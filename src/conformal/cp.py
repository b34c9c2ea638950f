"""Conformal classifiers over a sorted store of reference scores.

Both classifiers keep one nonconformity score per reference example, sorted
per taxonomy category, and count at prediction time how many stored scores
are at least as large as the candidate's score.  The transductive
classifier's reference set is its training bag (the candidate itself is
accounted for analytically by the +1 terms); the inductive classifier of
``icp.py`` counts against a held-out calibration bag instead.  Both support
smoothing, category-conditional counting via a taxonomy and best-label
prediction.  The transductive classifier also scores online and, for small
bags and oracle checks, gives exact p-values that re-score the whole
augmented bag for every candidate label.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .data import Bag, Label, SeededRng, _example, check_labels_known, check_observations, require_trained
from .metrics import EpsilonStats, ValidityReport, check_epsilons, validity_report
from .ncm import NonconformityMeasure

#: A taxonomy maps one example (x, y) to a category symbol.
Taxonomy = Callable[[np.ndarray, Label], Hashable]

_NO_SCORES = np.empty(0)


def constant_taxonomy(x, y):
    """Single-category taxonomy: conditional counting reduces to plain counting."""
    return 0


def label_taxonomy(x, y):
    """Label-conditional taxonomy: the category is the example's own label."""
    return y


@dataclass(frozen=True)
class CpConfig:
    """Settings for the conformal classifier."""

    epsilons: tuple[float, ...]
    smoothed: bool = False
    taxonomy: Taxonomy | None = None

    def __post_init__(self):
        object.__setattr__(self, "epsilons", check_epsilons(self.epsilons))


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


def category_p_values(
    store: Mapping[Hashable, np.ndarray],
    taxonomy: Taxonomy,
    X: np.ndarray,
    labels: Sequence[Label],
    alpha: np.ndarray,
    taus: np.ndarray | None = None,
    include_test: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """p-values of every (row, label) pair plus flags of empty categories.

    The taxonomy is called once per pair, row-major; the pairs are grouped
    by category and counted against that category's sorted ``store`` entry
    by binary search.  The built-in taxonomies are not called per pair:
    :func:`constant_taxonomy` (plain counting) puts every pair in its one
    category, and :func:`label_taxonomy` each label's column in its own.  Over
    ``total`` stored scores, ``gt`` of them greater and ``eq`` equal,
    p = (gt + eq + 1) / (total + 1); smoothing replaces the tie block (the
    equal scores plus the test example) by its tau fraction, and
    ``include_test=False`` drops the test example from the numerator, the
    literal inductive formula.  A category missing from the store counts as
    holding no scores.
    """
    m, n_labels = alpha.shape
    groups: dict[Hashable, list[int] | slice]
    if taxonomy is constant_taxonomy:
        groups = {constant_taxonomy(None, None): slice(None)}
    elif taxonomy is label_taxonomy:
        groups = {y: slice(j, None, n_labels) for j, y in enumerate(labels)}
    else:
        groups = {}
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


def _checked_scores(scores, shape: tuple[int, ...]) -> np.ndarray:
    """A measure's scores as floats, checked for shape and finiteness."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape != shape:
        raise ValueError(f"measure returned {scores.shape}, expected {shape}")
    if not np.isfinite(scores).all():
        raise ValueError("measure returned non-finite scores")
    return scores


def _score_matrix(measure: NonconformityMeasure, X: np.ndarray, labels: Sequence[Label]) -> np.ndarray:
    """The measure's (rows, labels) score matrix, checked."""
    return _checked_scores(measure.score_matrix(X, labels), (X.shape[0], len(labels)))


def _draw_taus(smoothed: bool, rows: int, cols: int, rng: SeededRng | None) -> np.ndarray | None:
    """Tie-breaking draws for smoothed p-values, one per pair, row-major."""
    if not smoothed:
        return None
    if rng is None:
        raise ValueError("smoothed p-values need a SeededRng")
    return rng.uniform(rows * cols).reshape(rows, cols)


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


class ScoreStoreClassifier:
    """Read path shared by the transductive and inductive classifiers.

    A subclass keeps one score per reference example through
    :meth:`_keep_scores`, which holds them sorted per taxonomy category, and
    counts candidates against that store with :meth:`_count`.  A config
    without a taxonomy counts with :func:`constant_taxonomy`, so plain
    counting is the one-category case of the same store.  A trained
    instance is immutable and may serve concurrent ``predict`` /
    ``p_values`` / ``score`` calls as long as each caller supplies its own
    :class:`SeededRng`; the methods that change the store need exclusive
    access.
    """

    def __init__(self, measure: NonconformityMeasure, config):
        self.measure = measure
        self.config = config
        self._taxonomy: Taxonomy = constant_taxonomy if config.taxonomy is None else config.taxonomy
        self._bag: Bag | None = None
        # {category: sorted scores}, built from the reference scores in
        # order and each reference example's category id, an index into
        # _category_keys
        self._store: dict[Hashable, np.ndarray] = {}
        self._scores = _NO_SCORES
        self._category_ids = np.empty(0, dtype=int)
        self._category_keys: dict[Hashable, int] = {}

    @property
    def bag(self) -> Bag | None:
        """The bag the classifier is currently trained on."""
        return self._bag

    def predict(self, X, rng: SeededRng | None = None) -> list[PredictionSet]:
        """Nested prediction sets at every configured significance level."""
        return sets_from_p_values(self.p_values(X, rng), self.config.epsilons)

    def predict_best(self, X, with_significance: bool = True, rng: SeededRng | None = None):
        """Single best label per row, optionally with its significance level."""
        labels, sig = best_from_p_values(self.p_values(X, rng))
        return (labels, sig) if with_significance else labels

    def score(self, test: Bag, rng: SeededRng | None = None) -> ValidityReport:
        """Validity and efficiency of batch predictions on a test bag."""
        bag = require_trained(self._bag, "classifier")
        if len(test) == 0:
            raise ValueError("empty test bag")
        check_labels_known(test, bag.label_space)
        sets = self.predict(test.x, rng)
        return validity_report(sets, test.y, self.config.epsilons)

    def _count(self, X, rng: SeededRng | None, include_test: bool, checked: bool = False):
        """Counted p-values of every (observation, candidate label) pair, the
        flags of pairs whose category holds no scores, and the labels.
        ``checked`` says that ``X`` already passed ``check_observations``.

        With smoothing, one tie-breaking draw is taken per pair, row-major in
        label-space order, from the caller's stream.
        """
        bag = require_trained(self._bag, "classifier")
        if not checked:
            X = check_observations(X, bag.n_features)
        labels = bag.label_space
        taus = _draw_taus(self.config.smoothed, X.shape[0], len(labels), rng)
        if len(bag) == 0:
            # every category is empty; the candidate only ties with itself
            alpha = np.zeros((X.shape[0], len(labels)))
        else:
            alpha = _score_matrix(self.measure, X, labels)
        vals, empty = category_p_values(self._store, self._taxonomy, X, labels, alpha, taus, include_test)
        return vals, empty, labels

    def _categorise(self, x: np.ndarray, y: Sequence[Label], fresh: bool):
        """Category ids of the reference examples followed by those of the
        new examples (x, y), and the id of every category.  Only the new
        examples meet the taxonomy; ``fresh`` drops the held ones."""
        keys = {} if fresh else dict(self._category_keys)
        new_ids = np.fromiter(
            (keys.setdefault(self._taxonomy(xi, yi), len(keys)) for xi, yi in zip(x, y)),
            dtype=int, count=len(x),
        )
        return (new_ids if fresh else np.concatenate([self._category_ids, new_ids])), keys

    def _keep_scores(self, scores: np.ndarray, categorised) -> None:
        """Hold one score per reference example as the sorted store;
        ``categorised`` is what :meth:`_categorise` returned for them."""
        ids, keys = categorised
        self._scores, self._category_ids, self._category_keys = scores, ids, keys
        self._store = {cat: np.sort(scores[ids == c]) for cat, c in keys.items()}


class ConformalClassifier(ScoreStoreClassifier):
    """Set-valued classifier: a label is predicted when its p-value exceeds
    epsilon, counted against the scores of the training bag; ``config`` is a
    :class:`CpConfig`."""

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
        categorised = self._categorise(bag.x, bag.y, fresh)
        try:
            scores = _checked_scores(self.measure.extend(merged), (len(merged),))
        except ValueError:
            if self._bag is not None:
                # the measure may have absorbed the rejected examples; one
                # that overrides extend resumes from the fit it kept of the
                # held bag, and one that does not is trained on it (its
                # extend would also score the bag, for nothing)
                if type(self.measure).extend is NonconformityMeasure.extend:
                    self.measure.train(self._bag)
                else:
                    self.measure.extend(self._bag)
            raise
        self._bag = merged
        self._keep_scores(scores, categorised)
        return self

    def p_values(self, X, rng: SeededRng | None = None) -> PValueTable:
        """p-value of every (observation, candidate label) pair.

        With smoothing, one tie-breaking draw is taken per pair, row-major in
        label-space order, from the caller's stream.
        """
        vals, _, labels = self._count(X, rng, include_test=True)
        return PValueTable(vals, labels)

    def exact_p_values(self, X, rng: SeededRng | None = None) -> PValueTable:
        """p-values by the transductive definition: for every candidate label
        the measure is retrained on the bag augmented with the candidate, and
        the candidate's score is counted among all scores of that bag (of its
        category, with a taxonomy).  Quadratic; meant for small bags and
        oracle checks.  Tie-breaking draws are taken as by ``p_values``.
        """
        bag = require_trained(self._bag, "classifier")
        X = check_observations(X, bag.n_features)
        labels = bag.label_space
        taus = _draw_taus(self.config.smoothed, X.shape[0], len(labels), rng)
        measure = copy.deepcopy(self.measure)
        vals = np.empty((X.shape[0], len(labels)))
        for i, x in enumerate(X):
            for j, y in enumerate(labels):
                augmented = bag.append(Bag.classification(x[None, :], (y,), labels))
                if len(augmented) == 1:
                    # empty reference bag: the candidate only ties with itself
                    gt, eq, total = 0, 1, 1
                else:
                    measure.train(augmented)
                    scores = _checked_scores(measure.scores(augmented, True), (len(augmented),))
                    alpha_new = scores[-1]
                    # the bag examples of the candidate's category, then the candidate
                    cat = self._category_keys.get(self._taxonomy(x, y), -1)
                    scores = scores[np.append(self._category_ids, cat) == cat]
                    gt = int((scores > alpha_new).sum())
                    eq = int((scores == alpha_new).sum())
                    total = len(scores)
                tau = 1.0 if taus is None else taus[i, j]  # exact on these small counts
                vals[i, j] = (gt + tau * eq) / total
        return PValueTable(vals, labels)

    def predict_transductive_exact(self, x, rng: SeededRng | None = None) -> PredictionSet:
        """Exact prediction set for one observation, from :meth:`exact_p_values`."""
        table = self.exact_p_values(np.asarray(x, dtype=float)[None, :], rng)
        return sets_from_p_values(table, self.config.epsilons)[0]

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
        bag = require_trained(self._bag, "classifier")
        check_observations(stream.x, bag.n_features)
        check_labels_known(stream, bag.label_space, "stream")
        sets: list[PredictionSet] = []
        true_p: list[float] = []
        for i in range(len(stream)):
            # the stream was checked whole, so its rows are not checked again
            vals, _, labels = self._count(stream.x[i : i + 1], rng, include_test=True, checked=True)
            table = PValueTable(vals, labels)
            sets.append(sets_from_p_values(table, self.config.epsilons)[0])
            true_p.append(float(vals[0, labels.index(stream.y[i])]))
            self.train(_example(stream, i, self._bag.label_space))
        if sets:
            report = validity_report(sets, stream.y, self.config.epsilons)
        else:
            report = zero_report(self.config.epsilons)
        return (report, np.array(true_p)) if return_p_values else report
