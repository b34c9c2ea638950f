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
from typing import Hashable

import numpy as np

from .cp import (
    PValueTable,
    PredictionSet,
    Taxonomy,
    _SINGLE_CATEGORY,
    _draw_taus,
    _require_trained,
    _score_matrix,
    best_from_p_values,
    category_p_values,
    sets_from_p_values,
)
from .data import Bag, SeededRng, check_labels_known, check_observations
from .metrics import ValidityReport, check_epsilons, validity_report
from .ncm import NonconformityMeasure


@dataclass(frozen=True)
class IcpConfig:
    """Settings for the inductive conformal classifier."""

    epsilons: tuple[float, ...]
    smoothed: bool = False
    taxonomy: Taxonomy | None = None
    include_test_in_count: bool = False

    def __post_init__(self):
        object.__setattr__(self, "epsilons", check_epsilons(self.epsilons))


class InductiveConformalClassifier:
    """Conformal classifier with an explicit calibration step.

    Immutable once calibrated; concurrent ``predict`` / ``p_values`` calls
    are safe with caller-owned streams.  ``train`` and ``calibrate`` need
    exclusive access.
    """

    def __init__(self, measure: NonconformityMeasure, config: IcpConfig):
        self.measure = measure
        self.config = config
        self._bag: Bag | None = None
        self._calibration: dict[Hashable, np.ndarray] = {}

    @property
    def bag(self) -> Bag | None:
        return self._bag

    @property
    def calibration_count(self) -> int:
        return sum(len(v) for v in self._calibration.values())

    def train(self, bag: Bag, override: bool = False) -> "InductiveConformalClassifier":
        """Fit the measure; ``override`` replaces the bag and drops calibration scores."""
        merged = bag if (override or self._bag is None) else self._bag.append(bag)
        if len(merged) == 0:
            raise ValueError("cannot train on an empty bag")
        if not merged.is_classification:
            raise ValueError("the inductive conformal classifier needs a classification bag")
        self.measure.train(merged)
        self._bag = merged
        if override:
            self._calibration = {}
        return self

    def calibrate(self, calibration: Bag, override: bool = False) -> "InductiveConformalClassifier":
        """Score a calibration bag and merge the scores into the sorted store."""
        bag = _require_trained(self._bag)
        check_labels_known(calibration, bag.label_space)
        scores = np.asarray(self.measure.scores(calibration, False), dtype=float)
        if scores.shape != (len(calibration),):
            raise ValueError(f"measure returned {scores.shape}, expected ({len(calibration)},)")
        taxonomy = self.config.taxonomy
        fresh: dict[Hashable, list[float]] = {}
        for x, y, s in zip(calibration.x, calibration.y, scores):
            cat = taxonomy(x, y) if taxonomy is not None else _SINGLE_CATEGORY
            fresh.setdefault(cat, []).append(s)
        if override:
            self._calibration = {}
        for cat, vals in fresh.items():
            old = self._calibration.get(cat)
            arr = np.asarray(vals, dtype=float)
            merged = arr if old is None else np.concatenate([old, arr])
            self._calibration[cat] = np.sort(merged)
        return self

    def p_values(self, X, rng: SeededRng | None = None) -> PValueTable:
        """p-values against the calibration store.

        A (row, label) pair whose category holds no calibration scores gets
        p = 1 and is flagged in ``empty_category``: it is vacuously
        conforming to an empty reference class.
        """
        bag = _require_trained(self._bag)
        X = check_observations(X, bag.n_features)
        labels = bag.label_space
        taus = _draw_taus(self.config.smoothed, X.shape[0], len(labels), rng)
        alpha = _score_matrix(self.measure, X, labels)
        vals, flags = category_p_values(
            self._calibration, self.config.taxonomy, X, labels, alpha, taus,
            include_test=self.config.include_test_in_count,
        )
        vals[flags] = 1.0
        return PValueTable(vals, labels, empty_category=flags)

    def predict(self, X, rng: SeededRng | None = None) -> list[PredictionSet]:
        """Nested prediction sets at every configured significance level."""
        return sets_from_p_values(self.p_values(X, rng), self.config.epsilons)

    def predict_best(self, X, with_significance: bool = True, rng: SeededRng | None = None):
        """Single best label per row, optionally with its significance level."""
        labels, sig = best_from_p_values(self.p_values(X, rng))
        return (labels, sig) if with_significance else labels

    def score(self, test: Bag, rng: SeededRng | None = None) -> ValidityReport:
        """Validity and efficiency of batch predictions on a test bag."""
        bag = _require_trained(self._bag)
        if len(test) == 0:
            raise ValueError("empty test bag")
        check_labels_known(test, bag.label_space)
        sets = self.predict(test.x, rng)
        return validity_report(sets, test.y, self.config.epsilons)
