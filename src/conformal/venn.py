"""Venn multi-probabilistic predictor over pluggable taxonomies.

For each candidate label the hypothetical example is assigned to a category
and the empirical label distribution inside that category (hypothetical
example included) becomes one matrix row.  The column with the best
worst-case entry names the prediction; its complement spans the error
probability interval.
"""

from __future__ import annotations

import itertools
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .data import Bag, Label, _example, check_labels_known, check_observations, require_trained
from .ncm import _Neighbours, _new_pairs, _remember, _resume, _shared_row


class VennTaxonomy(ABC):
    """Deterministic, total assignment of examples to category symbols.

    ``contains_x`` says whether the observation was part of the training
    bag, so a taxonomy can exclude an example from its own neighbourhood.
    Only ``train`` and ``extend`` change a trained taxonomy's fit.  A query
    may leave a record of its own work for the next ``extend``, under the
    rule of ``NonconformityMeasure`` (the nearest-neighbour taxonomy keeps
    the distances of its last one-row query).
    """

    @abstractmethod
    def train(self, bag: Bag) -> None:
        """Fit the underlying algorithm to the bag."""

    @abstractmethod
    def category(self, x: np.ndarray, y: Label, contains_x: bool) -> Hashable:
        """Category of the example (x, y)."""

    def categories(
        self, X: np.ndarray, hypotheses: Sequence[Sequence[Label]], contains_x: np.ndarray
    ) -> list[list[Hashable]]:
        """Batch form of ``category``: entry [i][r] is the category of
        (X[i], hypotheses[i][r]) with ``contains_x[i]``.

        This default loops over ``category``; a taxonomy overrides it to
        share work between the rows and hypotheses of a batch.
        """
        return [
            [self.category(x, y, bool(contains)) for y in ys]
            for x, ys, contains in zip(X, hypotheses, contains_x)
        ]

    def extend(self, bag: Bag) -> list[Hashable]:
        """Train on ``bag`` and return the category of every bag example
        (x_i, y_i), each with ``contains_x``.

        This default retrains and categorises the whole bag.  A taxonomy
        overrides it to update only the categories that new examples change
        when ``bag`` starts with exactly the bag of its previous ``extend``
        call; it decides that itself.
        """
        self.train(bag)
        hypotheses = [(y,) for y in bag.y]
        return [row[0] for row in self.categories(bag.x, hypotheses, np.ones(len(bag), bool))]

    def _rewritten(self, before: list, after: list):
        """The positions at which ``after``, the list the last ``extend``
        returned, may differ from ``before``, when ``before`` is the list
        the ``extend`` before it returned and the taxonomy knows them; None
        when it does not."""
        return None


class NearestNeighborTaxonomy(VennTaxonomy):
    """Category = label of the nearest training observation.

    With ``contains_x`` the observation's own zero-distance occurrence is
    excluded, so a training point maps to the label of its nearest *other*
    neighbour.  Distance ties break by ascending bag index.  Degenerate bags
    (empty, or a singleton equal to x) fall back to the hypothesis label so
    the mapping stays total.  ``extend`` keeps each example's nearest index
    and squared distance.  A fit from nothing takes them from one query of
    the bag against itself, the one ``categories`` makes on the bag
    (:func:`_nearest`).  A step that continues the fitted bag computes only
    the new examples' distances (``ncm._new_pairs``), merges them into the
    new examples' entries and, through the transpose, into the held ones
    they come strictly closer to, and rewrites only the categories of the
    examples whose nearest index changed and of the new ones.  A one-row
    ``categories`` query remembers its distance row, and a one-row step
    that absorbs that row merges it instead of computing it again.
    """

    def __init__(self):
        self._bag: Bag | None = None
        # (nearest index, its squared distance) per example of the bag extend
        # fitted, and the category list extend returned
        self._fit: tuple[np.ndarray, np.ndarray] | None = None
        self._categories: list[Hashable] = []
        self._query: tuple | None = None  # ncm._remember of the last one-row query
        self._knn: _Neighbours | None = None  # queries against _bag
        # (the list extend returned before, the list it returned last, the
        # positions that last extend rewrote)
        self._returned: tuple = (None, None, ())

    def train(self, bag: Bag) -> None:
        self._bag, self._knn = bag, _Neighbours(bag.feature_rows)
        self._fit = None

    def category(self, x: np.ndarray, y: Label, contains_x: bool) -> Hashable:
        return self.categories(np.asarray(x, dtype=float)[None, :], [(y,)], np.array([contains_x]))[0][0]

    def categories(
        self, X: np.ndarray, hypotheses: Sequence[Sequence[Label]], contains_x: np.ndarray
    ) -> list[list[Hashable]]:
        """One nearest-neighbour search per row (:func:`_nearest`), shared
        by its hypotheses; where it leaves no bag observation, the
        hypothesis label stands."""
        bag = require_trained(self._bag, "taxonomy")
        X = check_observations(X, bag.n_features)
        if len(bag) == 0:
            return [list(ys) for ys in hypotheses]
        nearest, _, row = _nearest(self._knn, X, np.asarray(contains_x, dtype=bool))
        if row is not None:
            self._query = _remember(bag, X, row)
        return [
            list(ys) if j < 0 else [bag.y[j]] * len(ys) for j, ys in zip(nearest.tolist(), hypotheses)
        ]

    def extend(self, bag: Bag) -> list[Hashable]:
        n_old, (nearest, dist) = _resume(self._bag, self._fit, bag, (np.empty(0, int), np.empty(0)))
        knn, new = _Neighbours(bag.feature_rows), np.arange(n_old, len(bag))
        redo = [new]  # the new examples and the held ones whose nearest index changes
        if n_old:
            query = _shared_row(self._query, self._bag, bag, n_old)
            nearest[n_old:], dist[n_old:] = -1, np.inf
            for rows, cols, sq in _new_pairs(bag, n_old, None if query is None else query[2]):
                _merge_nearest(nearest, dist, rows, cols, sq)
                redo.append(_merge_nearest(nearest, dist, slice(0, n_old), rows, sq[:, :n_old].T))
            # the merge skips each example itself, ``categories`` its first
            # zero-distance occurrence: they differ for a new example r with
            # a zero-distance one at a lower index.  Then j = nearest[r] is
            # the first occurrence of r's duplicates, and ``categories``
            # skips j and keeps the lowest other index at distance 0, which
            # the merge gave j.  (The held examples already hold what
            # ``categories`` gave them, and a later example never comes
            # strictly closer than distance 0.)
            dup = new[(dist[n_old:] == 0) & (nearest[n_old:] < new)]
            nearest[dup] = nearest[nearest[dup]]
        else:
            nearest, dist, _ = _nearest(knn, bag.x, np.ones(len(bag), dtype=bool))
        categories = self._categories[:n_old] + [None] * len(new)
        redo = list(dict.fromkeys(np.concatenate(redo).tolist()))  # each position once
        for i, j in zip(redo, nearest[redo].tolist()):
            categories[i] = bag.y[i] if j < 0 else bag.y[j]
        self._bag, self._fit, self._categories, self._query = bag, (nearest, dist), categories, None
        self._knn = knn
        out = list(categories)
        self._returned = (self._returned[1], out, redo)
        return out

    def _rewritten(self, before: list, after: list):
        last, out, redo = self._returned
        return redo if before is last and after is out else None


def _nearest(knn: _Neighbours, X: np.ndarray, contains: np.ndarray) -> tuple:
    """``(nearest, dist, row)``: each row's nearest bag column by (distance,
    column) and its squared distance, from the row's two nearest bag
    observations (only the nearest when no row has ``contains``).  A row
    with ``contains`` skips the first when it is at distance 0 (its own
    first zero-distance occurrence); when that leaves no bag observation at
    a finite distance, its column is -1.  ``row`` is
    :meth:`_Neighbours.smallest`'s."""
    own = bool(contains.any())
    near, idx, row = knn.smallest(X, 1 + own, index=True)
    nearest, dist = idx[:, 0, 0], near[:, 0, 0]
    if own:
        at = np.arange(len(X)), 0, (contains & (dist == 0)).astype(int)
        nearest, dist = idx[at], near[at]
        nearest[contains & (dist == np.inf)] = -1
    return nearest, dist, row


def _merge_nearest(nearest: np.ndarray, dist: np.ndarray, rows: slice, cols: slice, sq: np.ndarray) -> np.ndarray:
    """Merge the squared distances ``sq`` of the examples in slice ``rows``
    to those in slice ``cols`` into their held nearest index and distance; a
    tie keeps the held index, which is the lower one.  Returns the positions
    whose nearest index changed."""
    best, d = sq.argmin(axis=1), sq.min(axis=1)
    closer = (d < dist[rows]).nonzero()[0]
    at = rows.start + closer
    nearest[at] = cols.start + best[closer]
    dist[at] = d[closer]
    return at


@dataclass(frozen=True)
class VennMatrix:
    """Per-hypothesis empirical label distributions; every row sums to 1."""

    rows: np.ndarray
    labels: tuple[Label, ...]


@dataclass(frozen=True)
class ProbabilityInterval:
    low: float
    high: float

    def __post_init__(self):
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError("probability interval must satisfy 0 <= low <= high <= 1")

    @property
    def width(self) -> float:
        return self.high - self.low


@dataclass(frozen=True)
class VennReport:
    """Accuracy of the label predictions plus mean error-interval geometry."""

    accuracy: float
    mean_error_low: float
    mean_error_high: float
    mean_interval_width: float
    trials: int


class VennPredictor:
    """Multi-probabilistic predictor with per-prediction error intervals.

    A trained instance is immutable; ``predict`` is safe to call
    concurrently.  ``train`` and ``score_online`` need exclusive access.
    """

    def __init__(self, taxonomy: VennTaxonomy):
        self.taxonomy = taxonomy
        self._bag: Bag | None = None
        self._categories: list[Hashable] | None = None
        # row c: label counts (label-space order) of the bag examples in the
        # category with index c; the last row, all zeros, serves new
        # categories, and reads like the row of a category that lost all
        # its examples
        self._category_index: dict[Hashable, int] = {}
        self._label_counts: np.ndarray | None = None
        self._observations: set[bytes] = set()

    @property
    def bag(self) -> Bag | None:
        return self._bag

    def train(self, bag: Bag, override: bool = False) -> "VennPredictor":
        """Fit the taxonomy and cache each bag example's category and the
        label counts of every category.

        Without ``override`` the new examples are appended to the bag already
        held; with it they replace that bag.  Either way the taxonomy
        categorises the bag through its ``extend`` hook.  When appending,
        only the examples whose category changed, and the new ones, move
        label counts.
        """
        fresh = override or self._bag is None
        merged = bag if fresh else self._bag.append(bag)
        if not merged.label_space:
            raise ValueError("the Venn predictor needs a classification bag")
        if len(merged.label_space) < 2:
            raise ValueError("the label space must hold at least two labels")
        categories = self.taxonomy.extend(merged)
        if fresh:
            index, counts = _count_labels({}, np.zeros((1, 0)), merged.label_space, ([], []), (categories, merged.y))
        else:
            n_old, held, y = len(self._bag), self._categories, merged.y
            # the held examples whose category changed: among those the
            # taxonomy rewrote, when it names them; otherwise one list
            # comparison when none did
            moved = self.taxonomy._rewritten(held, categories)
            if moved is not None:
                moved = [i for i in moved if i < n_old and held[i] != categories[i]]
            elif held == categories[:n_old]:
                moved = []
            else:
                moved = list(itertools.compress(range(n_old), map(operator.ne, held, categories)))
            entering = moved + list(range(n_old, len(merged)))
            index, counts = _count_labels(
                self._category_index, self._label_counts, merged.label_space,
                ([held[i] for i in moved], [y[i] for i in moved]),
                ([categories[i] for i in entering], [y[i] for i in entering]),
            )
        observations = set() if fresh else self._observations
        observations.update(_row_key(x) for x in bag.x)
        self._bag = merged
        self._categories = categories
        self._category_index = index
        self._label_counts = counts
        self._observations = observations
        return self

    def matrix(self, x) -> VennMatrix:
        """Label distribution per hypothesis for one observation.

        Row r: assign (x, label_r) to its category, then count labels over
        the bag examples sharing that category together with the
        hypothetical example itself (so every denominator is at least one).
        """
        bag = require_trained(self._bag, "predictor")
        X = check_observations(np.asarray(x, dtype=float)[None, :], bag.n_features)
        return VennMatrix(self._matrices(X)[0], bag.label_space)

    def predict(self, X, proba: bool = True):
        """Predicted labels, optionally with error probability intervals.

        The best column maximizes the minimum entry (ties to the earlier
        label); its label is the prediction and its value range, reflected
        around 1, the error interval.
        """
        bag = require_trained(self._bag, "predictor")
        X = check_observations(X, bag.n_features)
        rows = self._matrices(X)
        best = rows.min(axis=1).argmax(axis=1)
        columns = rows[np.arange(len(X)), :, best]
        predictions = [bag.label_space[j] for j in best]
        intervals = [
            ProbabilityInterval(1.0 - float(hi), 1.0 - float(lo))
            for hi, lo in zip(columns.max(axis=1), columns.min(axis=1))
        ]
        return (predictions, intervals) if proba else predictions

    def score(self, test: Bag) -> VennReport:
        """Accuracy and mean error-interval geometry over a test bag."""
        require_trained(self._bag, "predictor")
        if len(test) == 0:
            raise ValueError("empty test bag")
        predictions, intervals = self.predict(test.x, proba=True)
        return _venn_report(predictions, intervals, test.y)

    def score_online(self, stream: Bag) -> VennReport:
        """Predict each stream element, record the outcome, then absorb it.

        The whole stream is checked before the first element is absorbed,
        so a bad element leaves the bag unchanged.
        """
        bag = require_trained(self._bag, "predictor")
        check_observations(stream.x, bag.n_features)
        check_labels_known(stream, bag.label_space, "stream")
        if len(stream) == 0:
            return VennReport(0.0, 0.0, 0.0, 0.0, 0)
        predictions: list[Label] = []
        intervals: list[ProbabilityInterval] = []
        for i in range(len(stream)):
            x, y = stream.x[i], stream.y[i]
            pred, interval = self.predict(x[None, :], proba=True)
            predictions.append(pred[0])
            intervals.append(interval[0])
            self.train(_example(stream, i, self._bag.label_space))
        return _venn_report(predictions, intervals, stream.y)

    def _matrices(self, X: np.ndarray) -> np.ndarray:
        """Venn matrix of every row of X, shape (m, L, L).

        Row r of a matrix: the label counts of the category of (x, label_r),
        read from the table cached at training, plus one for the hypothetical
        example itself (so every denominator is at least one), normalised.
        """
        labels = self._bag.label_space
        contains = np.fromiter(
            (_row_key(x) in self._observations for x in X), dtype=bool, count=len(X)
        )
        categories = self.taxonomy.categories(X, [labels] * len(X), contains)
        unseen = len(self._category_index)
        ids = np.array(
            [[self._category_index.get(cat, unseen) for cat in row] for row in categories],
            dtype=int,
        ).reshape(len(X), len(labels))
        counts = self._label_counts[ids] + np.eye(len(labels))
        return counts / counts.sum(axis=2, keepdims=True)


def _count_labels(index: dict, counts: np.ndarray, label_space, leave, enter) -> tuple[dict, np.ndarray]:
    """A new category index and label-count table from ``index`` and
    ``counts``: one row per category, one column per label of
    ``label_space`` (which extends the table's labels), and a last all-zero
    row for unseen categories.  ``leave`` and ``enter`` are each a sequence
    of categories and one of labels: every (category, label) pair of
    ``leave`` takes one from its count and every one of ``enter`` adds one;
    a category new to the index gets the next row."""
    index = dict(index)
    for cat in enter[0]:
        index.setdefault(cat, len(index))
    label_index = {lbl: j for j, lbl in enumerate(label_space)}
    table = np.zeros((len(index) + 1, len(label_index)))
    table[: len(counts) - 1, : counts.shape[1]] = counts[:-1]
    # a step moves a few counts, each cheaper alone than through np.add.at
    for (cats, labels), weight in ((leave, -1.0), (enter, 1.0)):
        for cat, lbl in zip(cats, labels):
            table[index[cat], label_index[lbl]] += weight
    return index, table


def _row_key(x: np.ndarray) -> bytes:
    # adding 0.0 turns -0.0 into 0.0, so equal finite rows get equal keys
    return (x + 0.0).tobytes()


def _venn_report(predictions, intervals, truths) -> VennReport:
    n = len(predictions)
    accuracy = sum(p == t for p, t in zip(predictions, truths)) / n
    low = sum(i.low for i in intervals) / n
    high = sum(i.high for i in intervals) / n
    width = sum(i.width for i in intervals) / n
    return VennReport(accuracy, low, high, width, n)
