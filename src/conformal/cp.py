"""Conformal classifier over a full bag.

The default "offline" mode caches one nonconformity score per training
example and, at prediction time, counts how many cached scores are at least
as large as the candidate's score (the candidate itself is accounted for
analytically by the +1 terms).  The "transductive-exact" mode instead
re-scores the whole augmented bag for every candidate label, which is
quadratic and meant for small bags and oracle checks.  Both support
smoothing, category-conditional counting via a taxonomy, best-label
prediction, and online scoring.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .data import Bag, Label, SeededRng, check_labels_known, check_observations
from .metrics import EpsilonStats, ValidityReport, check_epsilons, validity_report
from .ncm import NonconformityMeasure

#: A taxonomy maps one example (x, y) to a category symbol.
Taxonomy = Callable[[np.ndarray, Label], Hashable]

_SINGLE_CATEGORY = object()
_NO_SCORES = np.empty(0)


def constant_taxonomy(x, y):
    """Single-category taxonomy: conditional counting reduces to plain counting."""
    return 0


def label_taxonomy(x, y):
    """Label-conditional taxonomy: the category is the example's own label."""
    return y


@dataclass(frozen=True)
class CpConfig:
    """Settings for the conformal classifier.

    Mode "offline" counts a candidate's score against the scores cached at
    training time; "transductive-exact" re-scores the augmented bag per
    candidate label.
    """

    epsilons: tuple[float, ...]
    smoothed: bool = False
    taxonomy: Taxonomy | None = None
    mode: str = "offline"

    def __post_init__(self):
        object.__setattr__(self, "epsilons", check_epsilons(self.epsilons))
        if self.mode not in ("offline", "transductive-exact"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class PredictionSet:
    """Per-significance-level label sets; a larger level gives a subset."""

    per_epsilon: Mapping[float, tuple[Label, ...]]

    def labels_at(self, epsilon: float) -> tuple[Label, ...]:
        return self.per_epsilon[epsilon]


@dataclass(frozen=True)
class PValueTable:
    """Per-observation p-values, one column per label in label-space order.

    ``empty_category`` flags (row, label) pairs whose reference category held
    no scores; it is only populated by the inductive classifier.
    """

    values: np.ndarray
    labels: tuple[Label, ...]
    empty_category: np.ndarray | None = None

    def row(self, i: int) -> dict[Label, float]:
        return {lbl: float(v) for lbl, v in zip(self.labels, self.values[i])}


def sorted_score_counts(sorted_scores: np.ndarray, alpha: float) -> tuple[int, int]:
    """(strictly greater, exactly equal) counts of stored scores against alpha."""
    c = len(sorted_scores)
    gt = c - int(np.searchsorted(sorted_scores, alpha, side="right"))
    ge = c - int(np.searchsorted(sorted_scores, alpha, side="left"))
    return gt, ge - gt


def p_value_from_counts(
    gt: int, eq: int, total: int, tau: float | None = None, include_test: bool = True
) -> float:
    """p-value over ``total`` reference scores plus the test example itself.

    Unsmoothed: (gt + eq + 1) / (total + 1); smoothing replaces the tie block
    (the equal scores plus the test example) by its tau fraction.  With
    ``include_test=False`` the test example is dropped from the numerator,
    which is the literal inductive formula.
    """
    extra = 1 if include_test else 0
    if tau is None:
        return (gt + eq + extra) / (total + 1)
    return (gt + tau * (eq + extra)) / (total + 1)


def category_p_values(
    store: Mapping[Hashable, np.ndarray],
    taxonomy: Taxonomy | None,
    X: np.ndarray,
    labels: Sequence[Label],
    alpha: np.ndarray,
    taus: np.ndarray | None = None,
    include_test: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """p-values of every (row, label) pair plus flags of empty categories.

    The taxonomy is called once per pair, row-major; the pairs are grouped
    by category and counted against that category's sorted ``store`` entry
    by binary search, with the formula of :func:`p_value_from_counts`.  A
    category missing from the store counts as holding no scores.
    """
    m, n_labels = alpha.shape
    if taxonomy is None:
        groups = {_SINGLE_CATEGORY: slice(None)}
    else:
        groups: dict[Hashable, list[int]] = {}
        for i, x in enumerate(X):
            for j, y in enumerate(labels):
                groups.setdefault(taxonomy(x, y), []).append(i * n_labels + j)
    alpha = alpha.ravel()
    taus = None if taus is None else taus.ravel()
    extra = 1 if include_test else 0
    vals = np.empty(m * n_labels)
    empty = np.zeros(m * n_labels, dtype=bool)
    for cat, pairs in groups.items():
        stored = store.get(cat, _NO_SCORES)
        total = len(stored)
        a = alpha[pairs]
        gt = total - np.searchsorted(stored, a, side="right")
        eq = total - np.searchsorted(stored, a, side="left") - gt
        if taus is None:
            vals[pairs] = (gt + eq + extra) / (total + 1)
        else:
            vals[pairs] = (gt + taus[pairs] * (eq + extra)) / (total + 1)
        empty[pairs] = total == 0
    return vals.reshape(m, n_labels), empty.reshape(m, n_labels)


def _score_matrix(measure: NonconformityMeasure, X: np.ndarray, labels: Sequence[Label]) -> np.ndarray:
    """The measure's (rows, labels) score matrix, shape-checked."""
    alpha = np.asarray(measure.score_matrix(X, labels), dtype=float)
    if alpha.shape != (X.shape[0], len(labels)):
        raise ValueError(f"measure returned {alpha.shape}, expected {(X.shape[0], len(labels))}")
    return alpha


def _draw_taus(smoothed: bool, rows: int, cols: int, rng: SeededRng | None) -> np.ndarray | None:
    """Tie-breaking draws for smoothed p-values, one per pair, row-major."""
    if not smoothed:
        return None
    if rng is None:
        raise ValueError("smoothed p-values need a SeededRng")
    return rng.uniform(rows * cols).reshape(rows, cols)


def _require_trained(bag: Bag | None) -> Bag:
    if bag is None:
        raise ValueError("classifier is not trained")
    return bag


def sets_from_p_values(table: PValueTable, epsilons: Sequence[float]) -> list[PredictionSet]:
    """Label sets per level: include a label when its p-value exceeds epsilon."""
    out = []
    for row in table.values:
        per = {
            eps: tuple(lbl for lbl, p in zip(table.labels, row) if p > eps)
            for eps in epsilons
        }
        out.append(PredictionSet(per))
    return out


def best_from_p_values(table: PValueTable) -> tuple[list[Label], np.ndarray]:
    """Highest-p label per row plus its significance (the second-highest p).

    Ties go to the earlier label in label-space order; a single-label space
    reports significance 0.
    """
    idx = table.values.argmax(axis=1)
    labels = [table.labels[j] for j in idx]
    if len(table.labels) < 2:
        return labels, np.zeros(len(labels))
    return labels, np.sort(table.values, axis=1)[:, -2].copy()


def zero_report(epsilons: Sequence[float]) -> ValidityReport:
    return ValidityReport({e: EpsilonStats(0.0, 0.0, 0.0, 0.0) for e in epsilons}, 0)


class ConformalClassifier:
    """Set-valued classifier: a label is predicted when its p-value exceeds epsilon.

    A trained instance is immutable and may serve concurrent ``predict`` /
    ``p_values`` / ``score`` calls as long as each caller supplies its own
    :class:`SeededRng`; ``train`` and ``score_online`` need exclusive access.
    """

    def __init__(self, measure: NonconformityMeasure, config: CpConfig):
        self.measure = measure
        self.config = config
        self._bag: Bag | None = None
        self._by_category: dict[Hashable, np.ndarray] = {}
        # taxonomy category of every bag example, as an index into _category_keys
        self._category_ids: np.ndarray | None = None
        self._category_keys: dict[Hashable, int] = {}

    @property
    def bag(self) -> Bag | None:
        """The bag the classifier is currently trained on."""
        return self._bag

    def train(self, bag: Bag, override: bool = False) -> "ConformalClassifier":
        """Fit the measure and cache per-example scores.

        Without ``override`` the new examples are appended to the bag already
        held; with it they replace that bag.  Either way the measure scores
        the bag through its ``extend`` hook, so the scores equal those of a
        measure trained from scratch on the resulting bag.
        """
        fresh = override or self._bag is None
        merged = bag if fresh else self._bag.append(bag)
        if len(merged) == 0 and not merged.label_space:
            raise ValueError("cannot train on an empty bag")
        if len(merged) and not merged.is_classification:
            raise ValueError("the conformal classifier needs a classification bag")
        n_old = 0 if fresh else len(self._bag)
        keys = {} if fresh else dict(self._category_keys)
        taxonomy = self.config.taxonomy
        ids = None
        if taxonomy is not None:
            new_ids = np.fromiter(
                (keys.setdefault(taxonomy(x, y), len(keys))
                 for x, y in zip(merged.x[n_old:], merged.y[n_old:])),
                dtype=int, count=len(merged) - n_old,
            )
            ids = new_ids if fresh else np.concatenate([self._category_ids, new_ids])
        scores = np.asarray(self.measure.extend(merged, n_old), dtype=float)
        if scores.shape != (len(merged),):
            raise ValueError(f"measure returned {scores.shape}, expected ({len(merged)},)")
        self._bag = merged
        self._category_ids, self._category_keys = ids, keys
        if taxonomy is None:
            self._by_category = {_SINGLE_CATEGORY: np.sort(scores)}
        else:
            self._by_category = {cat: np.sort(scores[ids == c]) for cat, c in keys.items()}
        return self

    def p_values(self, X, rng: SeededRng | None = None) -> PValueTable:
        """p-value of every (observation, candidate label) pair.

        With smoothing, one tie-breaking draw is taken per pair, row-major in
        label-space order, from the caller's stream.
        """
        bag = _require_trained(self._bag)
        X = check_observations(X, bag.n_features)
        labels = bag.label_space
        taus = _draw_taus(self.config.smoothed, X.shape[0], len(labels), rng)
        if self.config.mode == "transductive-exact":
            rows = [
                self._exact_row(x, None if taus is None else taus[i])
                for i, x in enumerate(X)
            ]
            vals = np.vstack(rows) if rows else np.empty((0, len(labels)))
            return PValueTable(vals, labels)
        if len(bag) == 0:
            # every category is empty; the candidate only ties with itself
            alpha = np.zeros((X.shape[0], len(labels)))
        else:
            alpha = _score_matrix(self.measure, X, labels)
        vals, _ = category_p_values(self._by_category, self.config.taxonomy, X, labels, alpha, taus)
        return PValueTable(vals, labels)

    def predict(self, X, rng: SeededRng | None = None) -> list[PredictionSet]:
        """Nested prediction sets at every configured significance level."""
        return sets_from_p_values(self.p_values(X, rng), self.config.epsilons)

    def predict_best(self, X, with_significance: bool = True, rng: SeededRng | None = None):
        """Single best label per row, optionally with its significance level."""
        labels, sig = best_from_p_values(self.p_values(X, rng))
        return (labels, sig) if with_significance else labels

    def predict_transductive_exact(self, x, rng: SeededRng | None = None) -> PredictionSet:
        """Exact prediction set for one observation, re-scoring the augmented bag."""
        bag = _require_trained(self._bag)
        x = check_observations(np.asarray(x, dtype=float)[None, :], bag.n_features)[0]
        taus = _draw_taus(self.config.smoothed, 1, len(bag.label_space), rng)
        row = self._exact_row(x, None if taus is None else taus[0])
        table = PValueTable(row[None, :], bag.label_space)
        return sets_from_p_values(table, self.config.epsilons)[0]

    def score(self, test: Bag, rng: SeededRng | None = None) -> ValidityReport:
        """Validity and efficiency of batch predictions on a test bag."""
        bag = _require_trained(self._bag)
        if len(test) == 0:
            raise ValueError("empty test bag")
        check_labels_known(test, bag.label_space)
        sets = self.predict(test.x, rng)
        return validity_report(sets, test.y, self.config.epsilons)

    def score_online(self, stream: Bag, rng: SeededRng | None = None, return_p_values: bool = False):
        """Predict each stream element, record the outcome, then absorb it.

        Each element is absorbed by a non-override ``train``, so the measure
        updates only the scores the element changes (see
        ``NonconformityMeasure.extend``).  Returns the cumulative
        report; with ``return_p_values`` also the p-value the true label had
        at prediction time, one entry per step.  The whole stream is checked
        before the first element is absorbed, so a bad element leaves the
        bag unchanged.
        """
        bag = _require_trained(self._bag)
        check_observations(stream.x, bag.n_features)
        check_labels_known(stream, bag.label_space, "stream")
        sets: list[PredictionSet] = []
        true_p: list[float] = []
        for i in range(len(stream)):
            x, y = stream.x[i], stream.y[i]
            table = self.p_values(x[None, :], rng)
            sets.append(sets_from_p_values(table, self.config.epsilons)[0])
            true_p.append(float(table.values[0, table.labels.index(y)]))
            self.train(Bag.classification(x[None, :], (y,), self._bag.label_space))
        if sets:
            report = validity_report(sets, stream.y, self.config.epsilons)
        else:
            report = zero_report(self.config.epsilons)
        return (report, np.array(true_p)) if return_p_values else report

    # -- internals ---------------------------------------------------------

    def _exact_row(self, x: np.ndarray, taus_row: np.ndarray | None) -> np.ndarray:
        bag = self._bag
        labels = bag.label_space
        taxonomy = self.config.taxonomy
        measure = copy.deepcopy(self.measure)
        out = np.empty(len(labels))
        for j, y in enumerate(labels):
            augmented = bag.append(Bag.classification(x[None, :], (y,), labels))
            if len(augmented) == 1:
                # empty reference bag: the candidate only ties with itself
                gt, eq, total = 0, 1, 1
            else:
                measure.train(augmented)
                scores = np.asarray(measure.scores(augmented, True), dtype=float)
                alpha_new = scores[-1]
                if taxonomy is not None:
                    cats = np.array(
                        [taxonomy(xx, yy) for xx, yy in zip(augmented.x, augmented.y)],
                        dtype=object,
                    )
                    scores = scores[cats == cats[-1]]
                gt = int((scores > alpha_new).sum())
                eq = int((scores == alpha_new).sum())
                total = len(scores)
            if taus_row is None:
                out[j] = (gt + eq) / total
            else:
                out[j] = (gt + taus_row[j] * eq) / total
        return out
