"""Inductive conformal classifier: train once, calibrate on held-out scores.

p-values are counted against a sorted store of calibration scores (binary
search), optionally partitioned by a taxonomy.  The literal counting rule
leaves the test example out of the numerator, so p can reach 0 and never 1;
the ``include_test_in_count`` switch restores the conventional +1 and makes
the p-values match the offline conformal classifier's when calibration
equals the training bag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cp import _NO_SCORES, PValueTable, ScoreStoreClassifier, Taxonomy, _checked_scores
from .data import Bag, SeededRng, check_labels_known, check_observations, require_trained
from .metrics import check_epsilons


@dataclass(frozen=True)
class IcpConfig:
    """Settings for the inductive conformal classifier."""

    epsilons: tuple[float, ...]
    smoothed: bool = False
    taxonomy: Taxonomy | None = None
    include_test_in_count: bool = False

    def __post_init__(self):
        object.__setattr__(self, "epsilons", check_epsilons(self.epsilons))


class InductiveConformalClassifier(ScoreStoreClassifier):
    """Conformal classifier with an explicit calibration step: p-values are
    counted against the scores of the calibration bags, scored by a measure
    trained on the proper training bag; ``config`` is an :class:`IcpConfig`.
    """

    @property
    def calibration_count(self) -> int:
        return len(self._scores)

    def train(self, bag: Bag) -> "InductiveConformalClassifier":
        """Fit the measure to the proper training bag ``bag``, replacing any
        earlier one, and drop every calibration score: those were scored by
        the previous fit, so they must be calibrated again."""
        if len(bag) == 0:
            raise ValueError("cannot train on an empty bag")
        if not bag.is_classification:
            raise ValueError("the inductive conformal classifier needs a classification bag")
        self.measure.train(bag)
        self._bag = bag
        self._keep_scores(_NO_SCORES, self._categorise(bag.x[:0], (), fresh=True))
        return self

    def calibrate(self, calibration: Bag, override: bool = False) -> "InductiveConformalClassifier":
        """Score a calibration bag and merge the scores into the sorted store.

        Only the new calibration examples meet the taxonomy; ``override``
        drops the scores of earlier calibration bags.
        """
        bag = require_trained(self._bag, "classifier")
        check_observations(calibration.x, bag.n_features)
        check_labels_known(calibration, bag.label_space)
        scores = _checked_scores(self.measure.scores(calibration, False), (len(calibration),))
        categorised = self._categorise(calibration.x, calibration.y, override)
        self._keep_scores(scores if override else np.concatenate([self._scores, scores]), categorised)
        return self

    def p_values(self, X, rng: SeededRng | None = None) -> PValueTable:
        """p-values against the calibration store.

        A (row, label) pair whose category holds no calibration scores gets
        p = 1 and is flagged in ``empty_category``: it is vacuously
        conforming to an empty reference class.
        """
        vals, flags, labels = self._count(X, rng, self.config.include_test_in_count)
        vals[flags] = 1.0
        return PValueTable(vals, labels, empty_category=flags)
