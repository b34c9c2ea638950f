"""Nonconformity measures and regression coefficient providers.

Built in: a k-nearest-neighbour measure for classification, a
k-nearest-neighbour coefficient provider for regression intervals, a small
CART decision tree measure, and an adapter turning externally produced
per-label model outputs into nonconformity scores.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Bag, Label

#: Stand-in for an infinite score ratio; keeps downstream sorting total.
HUGE_SCORE = float(np.finfo(np.float64).max)


class NonconformityMeasure(ABC):
    """Trainable scorer measuring how strange an example is relative to a bag.

    Large scores mean nonconforming.  ``scores`` evaluates a whole bag; the
    flag says whether that bag is the one passed to ``train``, which lets a
    measure exclude each example from its own reference set.  ``score``
    evaluates one observation against every candidate label, in label-space
    order, and ``score_matrix`` does the same for a batch of observations.
    A trained measure is immutable; only ``train`` mutates it.
    """

    @abstractmethod
    def train(self, bag: Bag) -> None:
        """Fit the underlying algorithm to the bag."""

    @abstractmethod
    def scores(self, bag: Bag, is_training_bag: bool) -> np.ndarray:
        """One finite score per bag element."""

    @abstractmethod
    def score(self, x: np.ndarray, label_space: Sequence[Label]) -> np.ndarray:
        """One finite score per candidate label for a new observation."""

    def score_matrix(self, X: np.ndarray, label_space: Sequence[Label]) -> np.ndarray:
        """Scores of every (observation, candidate label) pair, shape (m, L).

        Row i equals ``score(X[i], label_space)``.  This default loops over
        ``score``; a measure overrides it to score a whole batch at once.
        """
        out = np.empty((len(X), len(label_space)))
        for i, x in enumerate(X):
            out[i] = self.score(x, label_space)
        return out


class RegressionCoefficientProvider(ABC):
    """Provides the (a, b) coefficients of regression score lines ``|a + b*y|``."""

    @abstractmethod
    def train(self, bag: Bag) -> None:
        """Fit the underlying regression algorithm to the bag."""

    @abstractmethod
    def coeffs(self, bag: Bag, is_training_bag: bool) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient vectors (a, b), one entry per bag element."""

    @abstractmethod
    def coeffs_n(self, x: np.ndarray) -> tuple[float, float]:
        """Coefficients (a, b) for a new observation."""


#: Most entries of one query-by-bag distance block (512 KiB of floats, about
#: one core's L2 cache); batches are processed in row chunks under this
#: bound, so scratch memory does not grow with the batch size.
_BLOCK_ENTRIES = 1 << 16


def _row_chunks(m: int, n: int):
    """Slices cutting ``m`` query rows into chunks of at most ``_BLOCK_ENTRIES``
    distances to ``n`` bag rows (at least one row per chunk)."""
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    return [slice(lo, lo + step) for lo in range(0, m, step)]


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, accumulated per feature so coincident rows
    give exactly 0 (no cancellation tricks).  The scratch buffer covers one
    row chunk, so the only full-size allocation is the result."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0], b.shape[0]))
    for rows in _row_chunks(a.shape[0], b.shape[0]):
        block = out[rows]
        tmp = np.empty_like(block)
        for j in range(a.shape[1]):
            np.subtract(a[rows, j][:, None], b[:, j][None, :], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(block, tmp, out=block)
    return out


def _pairwise_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances; see :func:`_pairwise_sq_dists` for exactness."""
    return np.sqrt(_pairwise_sq_dists(a, b))


def _k_smallest_dist_sums(sq: np.ndarray, k: int, order: str = "K") -> np.ndarray:
    """Row-wise sum of the k smallest distances, given squared distances.

    sqrt is monotone, so partitioning the squares selects the same k
    neighbours; the root is only taken for the selected entries.  ``order``
    is the memory layout of the roots, which decides the order in which
    numpy adds them up: with "C" each row is summed on its own, so a row's
    result does not depend on the other rows of the block.
    """
    if k == 1:
        return np.sqrt(sq.min(axis=1))
    if sq.shape[1] > k:
        sq = np.partition(sq, k - 1, axis=1)[:, :k]
    return np.sqrt(sq, order=order).sum(axis=1)


def _ratio_scores(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # num, den >= 0.  0/0 -> 0; x/0 -> largest finite float.
    out = np.empty_like(num)
    zero_den = den == 0
    np.divide(num, den, out=out, where=~zero_den)
    out[zero_den & (num == 0)] = 0.0
    out[zero_den & (num > 0)] = HUGE_SCORE
    return out


@dataclass(frozen=True)
class KnnConfig:
    """Nearest-neighbour settings; only the Euclidean distance is shipped.

    Distance ties are broken by ascending bag index, so results are
    deterministic under a fixed insertion order.
    """

    k: int = 1
    distance: str = "euclidean"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.distance != "euclidean":
            raise ValueError(f"unsupported distance {self.distance!r}")


def knn_scores(cfg: KnnConfig, training: Bag, target: Bag, is_training_bag: bool) -> np.ndarray:
    """Score each target example as d_k(same label) / d_k(other labels).

    d_k is the sum of the k smallest Euclidean distances from the example's
    observation to the training observations of the given label group.  When
    both sums are zero the score is 0; when only the denominator is zero the
    largest finite float stands in for infinity.  With ``is_training_bag``
    each example is excluded from its own same-label group (otherwise its
    zero self-distance would swamp every score); exclusion drops one
    zero-distance same-label occurrence, which also lets sub-bags of the
    training bag be scored.
    """
    k = cfg.k
    # when the target is the training bag itself, row r of a same-label block
    # is that block's column r, so self-exclusion is the block diagonal
    aligned = target is training or (target.x is training.x and target.y == training.y)
    sq = _pairwise_sq_dists(target.x, training.x)
    tr_labels = np.array(training.y, dtype=object)
    tg_labels = np.array(target.y, dtype=object)
    out = np.empty(len(target))
    for lbl in dict.fromkeys(target.y):
        rows = tg_labels == lbl
        same = tr_labels == lbl
        n_other = int((~same).sum())
        same_sq = sq[np.ix_(rows, same)]
        available = np.full(same_sq.shape[0], int(same.sum()))
        if is_training_bag and same_sq.size:
            if aligned:
                np.fill_diagonal(same_sq, np.inf)
                available -= 1
            else:
                # drop one zero-distance occurrence per row (the example itself)
                zero = same_sq == 0
                has_self = zero.any(axis=1)
                same_sq[has_self, zero.argmax(axis=1)[has_self]] = np.inf
                available[has_self] -= 1
        if int(available.min()) < k:
            raise ValueError(
                f"label {lbl!r}: {int(available.min())} same-label neighbour(s) available, need k={k}"
            )
        if n_other < k:
            raise ValueError(f"label {lbl!r}: {n_other} other-label neighbour(s) available, need k={k}")
        num = _k_smallest_dist_sums(same_sq, k)
        den = _k_smallest_dist_sums(sq[np.ix_(rows, ~same)], k)
        out[rows] = _ratio_scores(num, den)
    return out


def _label_codes(y: Sequence[Label]) -> tuple[np.ndarray, dict]:
    """Integer code per label (codes follow first appearance) and the code map."""
    code_of = {lbl: i for i, lbl in enumerate(dict.fromkeys(y))}
    return np.fromiter((code_of[v] for v in y), dtype=int, count=len(y)), code_of


def _same_label_masks(
    k: int, codes: np.ndarray, code_of: dict, label_space: Sequence[Label]
) -> list[np.ndarray]:
    """Per candidate label, which bag examples share it; checks both groups hold k."""
    masks = []
    for lbl in label_space:
        same = codes == code_of.get(lbl, -1)
        n_same = int(same.sum())
        n_other = len(codes) - n_same
        if n_same < k:
            raise ValueError(f"label {lbl!r}: {n_same} same-label neighbour(s) available, need k={k}")
        if n_other < k:
            raise ValueError(f"label {lbl!r}: {n_other} other-label neighbour(s) available, need k={k}")
        masks.append(same)
    return masks


def _knn_block_scores(k: int, bag_x: np.ndarray, masks: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    """Scores of every (row of X, candidate label) pair from one distance block
    per row chunk; ``masks[j]`` selects the bag examples labelled like candidate j."""
    out = np.empty((X.shape[0], len(masks)))
    others = [~same for same in masks]
    for rows in _row_chunks(X.shape[0], bag_x.shape[0]):
        sq = _pairwise_sq_dists(X[rows], bag_x)
        for j, (same, other) in enumerate(zip(masks, others)):
            num = _k_smallest_dist_sums(sq[:, same], k, order="C")
            den = _k_smallest_dist_sums(sq[:, other], k, order="C")
            out[rows, j] = _ratio_scores(num, den)
    return out


def knn_score_per_label(
    cfg: KnnConfig, training: Bag, x: np.ndarray, label_space: Sequence[Label]
) -> np.ndarray:
    """Scores for a new observation paired with each candidate label in order."""
    if len(training) == 0:
        raise ValueError("empty training bag")
    masks = _same_label_masks(cfg.k, *_label_codes(training.y), label_space)
    return _knn_block_scores(cfg.k, training.x, masks, np.asarray(x, dtype=float)[None, :])[0]


class KnnClassifierMeasure(NonconformityMeasure):
    """Nonconformity as the ratio of same-label to other-label neighbour distances."""

    def __init__(self, config: KnnConfig | None = None):
        self.config = config or KnnConfig()
        self._bag: Bag | None = None
        self._codes: np.ndarray | None = None
        self._code_of: dict = {}

    def train(self, bag: Bag) -> None:
        self._bag = bag
        self._codes, self._code_of = _label_codes(bag.y)

    def scores(self, bag: Bag, is_training_bag: bool) -> np.ndarray:
        self._require_trained()
        return knn_scores(self.config, self._bag, bag, is_training_bag)

    def score(self, x: np.ndarray, label_space: Sequence[Label]) -> np.ndarray:
        return self.score_matrix(np.asarray(x, dtype=float)[None, :], label_space)[0]

    def score_matrix(self, X: np.ndarray, label_space: Sequence[Label]) -> np.ndarray:
        self._require_trained()
        if len(self._bag) == 0:
            raise ValueError("empty training bag")
        masks = _same_label_masks(self.config.k, self._codes, self._code_of, label_space)
        return _knn_block_scores(self.config.k, self._bag.x, masks, np.asarray(X, dtype=float))

    def _require_trained(self):
        if self._bag is None:
            raise ValueError("measure is not trained")


def knn_regression_coeffs(
    cfg: KnnConfig, training: Bag, target: Bag, is_training_bag: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients for bag elements: a_i = y_i - mean(k nearest labels), b_i = 0.

    Each example is excluded from its own neighbourhood when the target is
    the training bag; distance ties break by ascending bag index.
    """
    k = cfg.k
    available = len(training) - (1 if is_training_bag else 0)
    if available < k:
        raise ValueError(f"need k={k} neighbours, only {available} available")
    if is_training_bag and len(target) != len(training):
        raise ValueError("is_training_bag requires the target to be the training bag itself")
    sq = _pairwise_sq_dists(target.x, training.x)
    if is_training_bag:
        np.fill_diagonal(sq, np.inf)
    order = np.argsort(sq, axis=1, kind="stable")[:, :k]
    labels = np.asarray(training.y, dtype=float)
    a = np.asarray(target.y, dtype=float) - labels[order].mean(axis=1)
    return a, np.zeros(len(target))


def knn_regression_coeffs_n(cfg: KnnConfig, training: Bag, x: np.ndarray) -> tuple[float, float]:
    """Coefficients for a new observation: a = -mean(k nearest labels), b = 1."""
    if len(training) < cfg.k:
        raise ValueError(f"need k={cfg.k} neighbours, only {len(training)} available")
    sq = _pairwise_sq_dists(np.asarray(x, dtype=float)[None, :], training.x)[0]
    order = np.argsort(sq, kind="stable")[: cfg.k]
    return -float(np.asarray(training.y, dtype=float)[order].mean()), 1.0


class KnnRegressionProvider(RegressionCoefficientProvider):
    """Coefficient provider built on nearest-neighbour label averages."""

    def __init__(self, config: KnnConfig | None = None):
        self.config = config or KnnConfig()
        self._bag: Bag | None = None

    def train(self, bag: Bag) -> None:
        self._bag = bag

    def coeffs(self, bag: Bag, is_training_bag: bool) -> tuple[np.ndarray, np.ndarray]:
        self._require_trained()
        return knn_regression_coeffs(self.config, self._bag, bag, is_training_bag)

    def coeffs_n(self, x: np.ndarray) -> tuple[float, float]:
        self._require_trained()
        return knn_regression_coeffs_n(self.config, self._bag, x)

    def _require_trained(self):
        if self._bag is None:
            raise ValueError("provider is not trained")


# ---------------------------------------------------------------------------
# Minimal CART
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartConfig:
    max_depth: int
    min_leaf: int = 1
    split_criterion: str = "gini"

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        if self.split_criterion != "gini":
            raise ValueError(f"unsupported split criterion {self.split_criterion!r}")


class CartNode:
    """Tree node; leaves carry per-label training counts in label-space order."""

    __slots__ = ("counts", "feature", "threshold", "left", "right")

    def __init__(self, counts, feature=None, threshold=None, left=None, right=None):
        self.counts = counts
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class CartTree:
    """Binary tree with axis-aligned threshold splits; ``x <= threshold`` goes left."""

    def __init__(self, root: CartNode, label_space: tuple[Label, ...]):
        self.root = root
        self.label_space = label_space
        self._index = {lbl: i for i, lbl in enumerate(label_space)}

    def leaf(self, x: np.ndarray) -> CartNode:
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def label_index(self, y: Label) -> int:
        try:
            return self._index[y]
        except KeyError:
            raise ValueError(f"label {y!r} is not in the tree's label space") from None


def cart_train(cfg: CartConfig, training: Bag) -> CartTree:
    """Grow a Gini tree, deterministically.

    Candidate thresholds are midpoints of consecutive distinct sorted feature
    values; equal-impurity ties go to the smaller feature index, then the
    smaller threshold.
    """
    if not training.is_classification:
        raise ValueError("the decision tree measure needs a classification bag")
    if len(training) == 0:
        raise ValueError("empty training bag")
    labels = training.label_space
    n_labels = len(labels)
    index = {lbl: i for i, lbl in enumerate(labels)}
    y = np.array([index[v] for v in training.y])
    x = training.x

    def gini(counts: np.ndarray, total: float) -> float:
        p = counts / total
        return 1.0 - float((p * p).sum())

    def build(rows: np.ndarray, depth: int) -> CartNode:
        counts = np.bincount(y[rows], minlength=n_labels).astype(float)
        n = len(rows)
        if depth >= cfg.max_depth or n < 2 * cfg.min_leaf or counts.max() == n:
            return CartNode(counts)
        best = None  # (weighted impurity, feature, threshold, boundary, order)
        for j in range(x.shape[1]):
            col = x[rows, j]
            order = np.argsort(col, kind="stable")
            vals = col[order]
            one_hot = np.zeros((n, n_labels))
            one_hot[np.arange(n), y[rows][order]] = 1.0
            cum = one_hot.cumsum(axis=0)
            for b in range(cfg.min_leaf, n - cfg.min_leaf + 1):
                if vals[b - 1] == vals[b]:
                    continue
                left_counts = cum[b - 1]
                right_counts = counts - left_counts
                weighted = (b * gini(left_counts, b) + (n - b) * gini(right_counts, n - b)) / n
                if best is None or weighted < best[0]:
                    threshold = (vals[b - 1] + vals[b]) / 2.0
                    best = (weighted, j, threshold, b, order)
        if best is None:
            return CartNode(counts)
        _, feature, threshold, boundary, order = best
        left_rows = rows[order[:boundary]]
        right_rows = rows[order[boundary:]]
        return CartNode(
            counts,
            feature,
            threshold,
            build(left_rows, depth + 1),
            build(right_rows, depth + 1),
        )

    return CartTree(build(np.arange(len(training)), 0), labels)


def cart_score(tree: CartTree, x: np.ndarray, y: Label) -> float:
    """One minus the fraction of the containing leaf's examples labelled ``y``."""
    leaf = tree.leaf(np.asarray(x, dtype=float))
    return 1.0 - float(leaf.counts[tree.label_index(y)] / leaf.counts.sum())


class DecisionTreeMeasure(NonconformityMeasure):
    """Nonconformity = 1 - (same-label fraction in the example's leaf).

    The training flag is accepted but has no effect: leaf counts retain every
    training example, so scores are the same either way.
    """

    def __init__(self, config: CartConfig):
        self.config = config
        self._tree: CartTree | None = None

    def train(self, bag: Bag) -> None:
        self._tree = cart_train(self.config, bag)

    def scores(self, bag: Bag, is_training_bag: bool) -> np.ndarray:
        tree = self._require_trained()
        return np.array([cart_score(tree, x, lbl) for x, lbl in zip(bag.x, bag.y)])

    def score(self, x: np.ndarray, label_space: Sequence[Label]) -> np.ndarray:
        tree = self._require_trained()
        return np.array([cart_score(tree, x, lbl) for lbl in label_space])

    def _require_trained(self) -> CartTree:
        if self._tree is None:
            raise ValueError("measure is not trained")
        return self._tree


# ---------------------------------------------------------------------------
# External model-output adapter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelOutputAdapterConfig:
    """Adapter over an external model's per-label scores.

    ``predict_fn`` maps an observation matrix to a (rows, labels) score
    matrix aligned with the bag's label space.  ``scorer`` is one of the
    presets "sum", "diff", "max", or a callable ``(score_row, label_index)
    -> float``.  ``gamma`` calibrates the "sum" and "max" denominators.
    ``train_fn``, when given, is called with ``(x, y)`` at training time.
    """

    predict_fn: Callable[[np.ndarray], np.ndarray]
    scorer: str | Callable[[np.ndarray, int], float] = "sum"
    gamma: float = 0.0
    train_fn: Callable | None = None

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if not callable(self.scorer) and self.scorer not in ("sum", "diff", "max"):
            raise ValueError(f'scorer must be "sum", "diff", "max" or a callable, got {self.scorer!r}')


def model_output_score(cfg: ModelOutputAdapterConfig, o: np.ndarray, y_index: int) -> float:
    """Nonconformity of label ``y_index`` given the model's per-label scores ``o``.

    Presets: "sum" -> sum of the other scores over (own + gamma); "diff" ->
    best other score minus own; "max" -> best other score over (own + gamma).
    """
    o = np.asarray(o, dtype=float)
    if callable(cfg.scorer):
        return float(cfg.scorer(o, y_index))
    if not np.all(np.isfinite(o)):
        raise ValueError("model output scores must be finite")
    others = np.delete(o, y_index)
    rest_max = float(others.max()) if others.size else 0.0
    if cfg.scorer == "diff":
        return rest_max - float(o[y_index])
    if np.any(o < 0):
        raise ValueError('the "sum" and "max" presets need nonnegative scores')
    den = float(o[y_index]) + cfg.gamma
    if den == 0.0:
        raise ValueError("own score plus gamma is zero; increase gamma")
    num = float(others.sum()) if cfg.scorer == "sum" else rest_max
    return num / den


class ModelOutputMeasure(NonconformityMeasure):
    """Nonconformity measure over externally produced per-label model outputs."""

    def __init__(self, config: ModelOutputAdapterConfig):
        self.config = config
        self._label_space: tuple[Label, ...] | None = None

    def train(self, bag: Bag) -> None:
        self._label_space = bag.label_space
        if self.config.train_fn is not None:
            self.config.train_fn(bag.x, bag.y)

    def scores(self, bag: Bag, is_training_bag: bool) -> np.ndarray:
        space = self._require_trained()
        out_matrix = self._predict(bag.x, len(space))
        index = {lbl: i for i, lbl in enumerate(space)}
        unknown = [lbl for lbl in bag.y if lbl not in index]
        if unknown:
            raise ValueError(f"label {unknown[0]!r} is outside the trained label space")
        return np.array(
            [model_output_score(self.config, row, index[lbl]) for row, lbl in zip(out_matrix, bag.y)]
        )

    def score(self, x: np.ndarray, label_space: Sequence[Label]) -> np.ndarray:
        self._require_trained()
        row = self._predict(np.asarray(x, dtype=float)[None, :], len(label_space))[0]
        return np.array([model_output_score(self.config, row, j) for j in range(len(label_space))])

    def _predict(self, x: np.ndarray, n_labels: int) -> np.ndarray:
        out = np.asarray(self.config.predict_fn(x), dtype=float)
        if out.shape != (x.shape[0], n_labels):
            raise ValueError(f"predict_fn returned shape {out.shape}, expected {(x.shape[0], n_labels)}")
        return out

    def _require_trained(self) -> tuple[Label, ...]:
        if self._label_space is None:
            raise ValueError("measure is not trained")
        return self._label_space
