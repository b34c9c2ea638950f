"""Nonconformity measures and regression coefficient providers.

Built in: a k-nearest-neighbour measure for classification, a
k-nearest-neighbour coefficient provider for regression intervals, a small
CART decision tree measure, and an adapter turning externally produced
per-label model outputs into nonconformity scores.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Bag, Label, check_observations, require_trained

#: Stand-in for an infinite score ratio; keeps downstream sorting total.
HUGE_SCORE = float(np.finfo(np.float64).max)


class NonconformityMeasure(ABC):
    """Trainable scorer measuring how strange an example is relative to a bag.

    Large scores mean nonconforming.  ``scores`` evaluates a whole bag; the
    flag says whether that bag is the one passed to ``train``, which lets a
    measure exclude each example from its own reference set.  ``score``
    evaluates one observation against every candidate label, in label-space
    order, and ``score_matrix`` does the same for a batch of observations.
    Only ``train`` and ``extend`` change a trained measure's fit.  A query
    may leave a record of its own work for the next ``extend`` to reuse (the
    kNN measure keeps the distances of its last one-row query); it replaces
    the record whole, and ``extend`` takes it only where it equals what
    ``extend`` would compute, so concurrent queries stay safe and cannot
    change a fit.
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

    def extend(self, bag: Bag) -> np.ndarray:
        """Train on ``bag`` and return its training scores.

        The result must equal ``train(bag)`` followed by ``scores(bag,
        True)``, which is what this default does.  A measure overrides it to
        update only the scores that new examples change when ``bag`` starts
        with exactly the bag of its previous ``extend`` call; it decides
        that itself.
        """
        self.train(bag)
        return self.scores(bag, True)


class RegressionCoefficientProvider(ABC):
    """Provides the (a, b) coefficients of regression score lines ``|a + b*y|``.

    Only ``train`` and ``extend`` change a trained provider's fit.  A
    ``coeffs_n`` query may leave a record of its own work for the next
    ``extend``, under the rule of ``NonconformityMeasure`` (the kNN provider
    keeps the distances and k nearest of its last query).
    """

    @abstractmethod
    def train(self, bag: Bag) -> None:
        """Fit the underlying regression algorithm to the bag."""

    @abstractmethod
    def coeffs(self, bag: Bag, is_training_bag: bool) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient vectors (a, b), one entry per bag element."""

    @abstractmethod
    def coeffs_n(self, x: np.ndarray) -> tuple[float, float]:
        """Coefficients (a, b) for a new observation."""

    def extend(self, bag: Bag) -> tuple[np.ndarray, np.ndarray]:
        """Train on ``bag`` and return its coefficients.

        The result must equal ``train(bag)`` followed by ``coeffs(bag,
        True)``, which is what this default does.  A provider overrides it
        to update only what new examples change when ``bag`` starts with
        exactly the bag of its previous ``extend`` call.
        """
        self.train(bag)
        return self.coeffs(bag, True)


#: Most entries of one query-by-bag distance block (512 KiB of floats, about
#: one core's L2 cache); batches are processed in row chunks under this
#: bound, so scratch memory does not grow with the batch size.
_BLOCK_ENTRIES = 1 << 16

#: Most entries (rows x features x bag rows) of a distance input that
#: :func:`_sq_dists_to` computes as one (m, d, n) block reduced over the
#: features in a single call (256 KiB of floats); larger inputs, which the
#: single block would push out of cache, keep the per-feature loop.
_REDUCE_ENTRIES = 1 << 15

#: Ufunc buffer size (elements) set around the per-feature loop.  With
#: numpy's default of 8192, a broadcast subtract against a bag of fewer than
#: about 2731 rows is buffered across rows, about 4x slower per entry.
_LOOP_BUFSIZE = 256

#: Least entries (query rows x features x bag rows) of a row chunk of two
#: or more rows that :meth:`_Neighbours.smallest` computes in two stages;
#: smaller chunks and one-row queries take the kernel's whole block.  The
#: kernel's cost grows with the features, stage 1's hardly does.  Measured
#: on 250-4,000 bag rows and 2-16 query rows, with 4 label groups and k = 1
#: and 3 and with one group and k = 2 and columns (2-vCPU Xeon, numpy
#: 2.4.6, one BLAS thread), two-stage over exact time at 16 features:
#: 1.2-2.3x at 2^13-2^14 entries, 0.9-1.1x at 2^15, 0.55-0.75x at 2^16 and
#: 0.35-0.7x above; at 4 features, 0.8-1.3x at 2^16-2^17.
_TWO_STAGE_ENTRIES = 1 << 16

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)
#: Largest ‖a - c‖² + max ‖b - c‖² of a two-stage query row; below it no
#: term of stage 1 can overflow.
_STAGE_ONE_MAX = float(np.finfo(float).max) / 8


def _row_chunks(m: int, n: int):
    """Slices cutting ``m`` query rows into chunks of at most ``_BLOCK_ENTRIES``
    distances to ``n`` bag rows (at least one row per chunk)."""
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    return [slice(lo, lo + step) for lo in range(0, m, step)]


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, accumulated per feature so coincident rows
    give exactly 0 (no cancellation tricks).  The scratch buffer covers one
    row chunk or a small input, so the only full-size allocation is the
    result."""
    return _sq_dists_to(a, _feature_rows(b))


def _feature_rows(b: np.ndarray) -> np.ndarray:
    """The bag side of :func:`_sq_dists_to`: one contiguous row per feature,
    so that each pass over a feature reads the bag sequentially (a bag
    holds its own as ``Bag.feature_rows``)."""
    return np.asarray(b, dtype=float).T.copy()


def _sq_dists_to(a: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """:func:`_pairwise_sq_dists` against a bag given by its feature rows.

    Both paths add the squared feature differences in feature order.  A
    small input is one (m, d, n) block whose reduction over axis 1 adds
    whole feature slices in turn, as the loop does; a bag of one row stays
    on the loop, because numpy sums a reduction over a single contiguous
    column pairwise, in another order.  The loop writes the first square
    straight into its block (fl(0 + s) = s for every square s >= +0) and
    runs under a ``_LOOP_BUFSIZE``-element ufunc buffer, restored on exit,
    so that numpy does not buffer its broadcast subtract across rows; a
    buffer size changes how elementwise operations are chunked, never their
    results.  The single reduce keeps the caller's buffer, so its summation
    order cannot move, and a one-row query does not pay for the switch.
    """
    a = np.asarray(a, dtype=float)
    m, (d, n) = a.shape[0], b_rows.shape
    if n >= 2 and m * d * n <= _REDUCE_ENTRIES:
        block = np.subtract(a[:, :, None], b_rows[None, :, :])
        np.multiply(block, block, out=block)
        return np.add.reduce(block, axis=1)
    if d == 0:
        return np.zeros((m, n))
    out = np.empty((m, n))
    old = np.setbufsize(_LOOP_BUFSIZE)
    try:
        for rows in _row_chunks(m, n):
            block = out[rows]
            np.subtract(a[rows, 0][:, None], b_rows[0][None, :], out=block)
            np.multiply(block, block, out=block)
            tmp = np.empty_like(block)
            for j in range(1, d):
                np.subtract(a[rows, j][:, None], b_rows[j][None, :], out=tmp)
                np.multiply(tmp, tmp, out=tmp)
                np.add(block, tmp, out=block)
    finally:
        np.setbufsize(old)
    return out


def _smallest(block: np.ndarray, starts, k: int) -> np.ndarray:
    """Shape (rows, groups, k): the k smallest entries of each row within
    each (non-empty) group of consecutive columns starting at ``starts``,
    ascending; a group of fewer than k entries is padded with infinity.

    sqrt is monotone, so selecting the squares selects the same neighbours.
    numpy promises no order within a partition's selected part, so it is
    sorted: the result depends only on the values of a group's k smallest
    entries, not on their columns or on the group's other entries.
    """
    if k == 1:
        return np.minimum.reduceat(block, starts, axis=1)[:, :, None]
    near = np.full((len(block), len(starts), k), np.inf)
    for g, (lo, hi) in enumerate(zip(starts, [*starts[1:], block.shape[1]])):
        part = block[:, lo:hi]
        if hi - lo > k:
            part = np.partition(part, k - 1, axis=1)[:, :k]
        near[:, g, : hi - lo] = np.sort(part, axis=1)
    return near


def _argmin_passes(block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's min(k, width) smallest entries of ``block`` and their
    columns, ordered by (value, column) as a stable ``argsort`` orders them:
    k passes of ``argmin``, each setting its pick to infinity, exact while
    the picks are finite; a row with an infinite pick takes the stable
    ``argsort`` (:func:`_k_nearest`)."""
    shape = (len(block), min(k, block.shape[1]))
    part, at = block.copy() if shape[1] > 1 else block, np.arange(len(block))
    vals, cols = np.empty(shape), np.empty(shape, dtype=int)
    for j in range(shape[1]):
        cols[:, j] = pick = part.argmin(axis=1)
        vals[:, j] = part[at, pick]
        if j + 1 < shape[1]:
            part[at, pick] = np.inf
    bad = vals[:, -1] == np.inf  # the picks ascend
    if bad.any():
        cols[bad] = _k_nearest(k, block[bad])
        vals[bad] = np.take_along_axis(block[bad], cols[bad], axis=1)
    return vals, cols


def _candidates(block: np.ndarray, starts, sizes, k: int, slack) -> tuple[np.ndarray, np.ndarray]:
    """Positions (row, column) of the entries of ``block`` at most each row's
    k-th smallest entry plus its ``slack`` (shape (rows, 1)) within each
    group of ``sizes`` consecutive columns starting at ``starts``; every
    entry of a group of at most k columns.  Row-major, columns ascending."""
    if k == 1:
        bound = np.minimum.reduceat(block, starts, axis=1)
    else:
        bound = np.full((len(block), len(starts)), np.inf)
        for g, (lo, size) in enumerate(zip(starts, sizes)):
            if size > k:
                bound[:, g] = np.partition(block[:, lo : lo + size], k - 1, axis=1)[:, k - 1]
    keep = block <= np.repeat(bound + slack, sizes, axis=1)
    # a 2-d np.nonzero is several times slower than this
    return np.divmod(np.flatnonzero(keep), block.shape[1])


def _select(vals: np.ndarray, idx, slots: np.ndarray, sq: np.ndarray, cols: np.ndarray) -> None:
    """Write the k smallest candidates of each (row, group) into ``vals``
    (rows, groups, k), ascending, and their columns ``cols`` into ``idx``
    (when not None).  Candidate i is entry ``sq[i]`` of the (row, group)
    with flat index ``slots[i]`` in ``vals[:, :, 0]``; candidates come
    row-major with columns ascending, and a stable sort keeps that order
    among equal entries, so the result is ordered by (distance, column).
    Slots past a group's candidates keep their padding."""
    k = vals.shape[2]
    order = np.lexsort((sq, slots))
    slots = slots[order]
    rank = np.arange(len(slots)) - np.searchsorted(slots, slots)
    top = rank < k
    at, flat = order[top], slots[top] * k + rank[top]
    vals.reshape(-1)[flat] = sq[at]
    if idx is not None:
        idx.reshape(-1)[flat] = cols[at]


class _Neighbours:
    """Batch k-nearest queries against one bag, per group of its columns.

    ``rows`` are the bag's feature rows (:func:`_feature_rows`); ``groups``
    (one ascending array of columns per label code, :func:`_label_columns`)
    split the bag, which is one group without them.  :meth:`smallest` gives
    each query row's k smallest squared distances per group exactly as the
    kernel computes them, with their columns in (distance, column) order.

    A row chunk of two or more rows and at least ``_TWO_STAGE_ENTRIES``
    entries (rows x features x bag rows) takes two stages.  Stage 1
    approximates the whole block, up to a constant per row, by one matrix
    product of the centred rows, (a - c)·(-2(b - c)) + ‖b - c‖², whose bag
    side the instance computes on its first such query and keeps; it keeps
    the entries within twice the row's error bound of the group's k-th
    approximate entry.  The bound covers the centring, the product, the
    norms and the kernel's own rounding in any summation order, so every
    entry that can be among the k smallest is kept.  Stage 2 computes the
    kept entries with the kernel's per-feature sum, so no output bit depends
    on the product.  Every other chunk, and one whose product could overflow
    (a bound that is not finite among them), selects from the kernel's
    whole block.
    """

    def __init__(self, rows: np.ndarray, groups: dict | None = None):
        self.rows = rows
        self.cols = np.concatenate(list(groups.values())) if groups else None
        self.sizes = [len(cols) for cols in groups.values()] if groups else [rows.shape[1]]
        self.starts = [0, *itertools.accumulate(self.sizes[:-1])]
        # (centre, product rows, largest squared norm) of the bag in column
        # order cols; computed by the first two-stage query, replaced whole
        self._centred: tuple | None = None

    def smallest(self, X: np.ndarray, k: int, index: bool = False) -> tuple:
        """``(vals, idx, row)``.  ``vals[i, g]`` holds row i's k smallest
        squared distances to the columns of group g, ascending, padded with
        infinity past the group's size; ``idx`` (with ``index``, else None)
        their bag columns, ordered by (distance, column) as a stable sort
        orders them, padded with -1.  ``row`` is the kernel's (1, n) block of
        a one-row query (for :func:`_remember`), else None."""
        (m, d), n = X.shape, self.rows.shape[1]
        vals = np.full((m, len(self.starts), k), np.inf)
        idx = np.full(vals.shape, -1) if index else None
        block = None
        for chunk in _row_chunks(m, n):
            rows = X[chunk]
            got = None
            if len(rows) >= 2 and d and n and len(rows) * d * n >= _TWO_STAGE_ENTRIES:
                got = self._two_stage(rows, k)
            if got is not None:
                r, c, cols, sq = got
                slots = (r + chunk.start) * len(self.starts)
                if self.cols is not None:
                    slots += np.searchsorted(self.starts, c, side="right") - 1
                _select(vals, idx, slots, sq, cols)
                continue
            block = _sq_dists_to(rows, self.rows)
            full = block if self.cols is None else np.take(block, self.cols, axis=1)
            if idx is None:
                vals[chunk] = _smallest(full, self.starts, k)
                continue
            for g, (lo, size) in enumerate(zip(self.starts, self.sizes)):
                near, cols = _argmin_passes(full[:, lo : lo + size], k)
                vals[chunk, g, : cols.shape[1]] = near
                idx[chunk, g, : cols.shape[1]] = lo + cols if self.cols is None else self.cols[lo + cols]
        return vals, idx, block if m == 1 else None

    def _two_stage(self, X: np.ndarray, k: int) -> tuple | None:
        """``(rows, positions, bag columns, squared distances)`` of the
        candidates of the query rows ``X``, or None when stage 1 could
        overflow."""
        centre, product, top = self._centred or self._centre()
        d = X.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.empty((len(X), d + 1))
            np.subtract(X, centre, out=q[:, :d])
            q[:, d] = 1.0
            scale = np.einsum("ij,ij->i", q[:, :d], q[:, :d]) + top
            # every stage-1 term is at most about 2 * scale; NaN fails too
            if not np.all(scale <= _STAGE_ONE_MAX):
                return None
            approx = q @ product
        # 16 (d + 4) eps = 32 (d + 4) u is at least 6x the (5d + 10) u that,
        # times ‖a - c‖² + ‖b - c‖², bounds the rounding of the centring
        # (4u), the norms (du), the product (2(d + 1) u) and the kernel
        # ((2d + 4) u); the second term covers underflow, half the smallest
        # subnormal per product or square
        slack = 16 * (d + 4) * _EPS * scale + 64 * (d + 4) * _TINY
        r, c = _candidates(approx, self.starts, self.sizes, k, 2 * slack[:, None])
        cols = c if self.cols is None else self.cols[c]
        # (d, candidates), C-ordered, so the reduce adds whole feature rows
        # in turn, as the kernel does (an F-ordered block is summed pairwise)
        diff = np.subtract(np.take(X.T, r, axis=1), np.take(self.rows, cols, axis=1))
        np.multiply(diff, diff, out=diff)
        return r, c, cols, np.add.reduce(diff, axis=0)

    def _centre(self) -> tuple:
        b = self.rows if self.cols is None else np.take(self.rows, self.cols, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            centre = b.mean(axis=1)
            cb = b - centre[:, None]
            norms = np.einsum("ij,ij->j", cb, cb)
            self._centred = centre, np.vstack([-2.0 * cb, norms]), norms.max()
        return self._centred


def _root_sums(sq: np.ndarray) -> np.ndarray:
    """Sums of the roots over the last axis, in C order (see :func:`_neighbour_sums`)."""
    return np.sqrt(sq, order="C").sum(axis=-1)


def _merge_smallest(held: np.ndarray, cand: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k smallest of a row of ``held`` (sorted, k wide) and of
    the same row of ``cand`` together, sorted, as :func:`_smallest` selects
    them.  A row is a position on the leading axes; its entries lie along
    the last axis."""
    if k == 1:
        return np.minimum(held, cand.min(axis=-1, keepdims=True))
    # only a row with a candidate below its k-th smallest changes
    hit = (cand < held[..., -1:]).any(axis=-1)
    part = cand[hit] if cand.shape[-1] <= k else np.partition(cand[hit], k - 1, axis=1)[:, :k]
    out = held.copy()
    out[hit] = np.sort(np.concatenate([held[hit], part], axis=1), axis=1)[:, :k]
    return out


def _neighbour_sums(k: int, near: np.ndarray, codes) -> np.ndarray:
    """Neighbour sums of query rows from ``near`` (rows, groups, k), each
    row's sorted k smallest squared distances per label group
    (:meth:`_Neighbours.smallest`; group codes are 0, 1, ...).

    Returns shape (2, rows, len(codes)): for each label code in ``codes``,
    the sum of the roots of the k smallest same-label squared distances,
    and the same over all other labels.  The k smallest of the other
    groups' lists together are the sorted k smallest over all other
    columns.  Every sum therefore adds the same sorted values, whatever the
    order of the bag, the chunk a row comes in or an entry added at or
    above the k-th smallest.  Each requested code must have k same-label
    and k other-label columns (:func:`_check_neighbours`).
    """
    m, n_groups, width = near.shape
    others = [[c for c in range(n_groups) if c != code] for code in codes]
    other = np.sort(near[:, others].reshape(m, len(codes), (n_groups - 1) * width), axis=2)[:, :, :k]
    return _root_sums(np.stack([near[:, codes], other]))


def _ratio_scores(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # num, den >= 0.  0/0 -> 0; x/0 -> largest finite float.
    zero_den = den == 0
    if not zero_den.any():
        return num / den
    out = num / np.where(zero_den, 1.0, den)
    out[zero_den] = np.where(num[zero_den] == 0, 0.0, HUGE_SCORE)
    return out


def _check_neighbours(k: int, lbl: Label, n_same: int, n_other: int) -> None:
    if n_same < k:
        raise ValueError(f"label {lbl!r}: {n_same} same-label neighbour(s) available, need k={k}")
    if n_other < k:
        raise ValueError(f"label {lbl!r}: {n_other} other-label neighbour(s) available, need k={k}")


def _resume(held: Bag | None, fit, bag: Bag, empty) -> tuple:
    """``(n_old, arrays)``.  ``n_old`` is ``len(held)`` when ``bag`` starts
    with exactly the examples of ``held`` (:meth:`Bag.starts_with`), the bag
    that ``fit`` (None: nothing usable) was made for, and adds no more
    examples than ``held`` has; otherwise it is 0 (the plug-in fits from
    nothing, with one query of the bag against itself) and ``empty`` stands
    in for ``fit``.  ``arrays`` are new copies of the fit's arrays, each
    grown along its first axis to ``len(bag)`` entries, the new entries
    unset."""
    n = 0 if fit is None else len(held)
    if fit is None or len(bag) > 2 * n or not bag.starts_with(held):
        n, fit = 0, empty
    new = len(bag) - n
    return n, tuple(np.concatenate([f, np.empty((new,) + f.shape[1:], f.dtype)]) for f in fit)


def _remember(bag: Bag, X: np.ndarray, sq: np.ndarray, *extra) -> tuple:
    """What a one-row query against ``bag`` leaves for the next ``extend``
    (:func:`_shared_row`): the bag, a copy of the row, and its squared
    distances ``sq`` (shape (1, len(bag))), made read-only, plus ``extra``.
    A plug-in holds it as one attribute, which a query replaces whole, so
    concurrent queries leave one query's complete record."""
    sq.setflags(write=False)
    return (bag, X[0].copy(), sq, *extra)


def _shared_row(query: tuple | None, held: Bag | None, bag: Bag, n_old: int) -> tuple | None:
    """``query`` (:func:`_remember`) when ``bag`` is the held bag ``held``
    plus exactly the row that query asked about (bit for bit), so its
    distances are those of the bag's one new example to the held ones;
    otherwise None.  ``n_old`` is what :func:`_resume` returned.  The kernel
    gives every entry the same bits whatever the batch it comes in, so the
    shared row changes no bit of the fit."""
    if query is None or n_old == 0 or len(bag) != n_old + 1 or query[0] is not held:
        return None
    return query if query[1].tobytes() == bag.x[n_old].tobytes() else None


def _new_pairs(bag: Bag, n_old: int, first=None):
    """The squared distances of a step's new examples (positions ``n_old``
    and above) to the bag, as blocks ``(rows, cols, sq)``: ``sq`` holds the
    distances of the positions in slice ``rows`` to those in slice
    ``cols``, each row's own at infinity.  Several new examples meet the
    whole bag in row chunks; a lone one meets only the held examples (its
    own column, the last, would sort after all of them), and ``first``, its
    distances (1, n_old) that the caller already holds (:func:`_shared_row`),
    is then the only block.  A consumer merges a block into its rows' own
    lists and, through its transpose, into those of the held examples (the
    columns below ``n_old``).  That :func:`_sq_dists_to` is bitwise
    symmetric (fl(a-b) = -fl(b-a), squares added in feature order on every
    path) makes the transpose exact.
    """
    n = len(bag)
    cols = slice(0, n if n - n_old > 1 else n_old)
    if first is not None:
        yield slice(n_old, n), cols, first
        return
    for chunk in _row_chunks(n - n_old, cols.stop):
        rows = slice(n_old + chunk.start, min(n, n_old + chunk.stop))
        sq = _sq_dists_to(bag.x[rows], bag.feature_rows[:, cols])
        if cols.stop == n:
            sq[np.arange(len(sq)), np.arange(rows.start, rows.stop)] = np.inf
        yield rows, cols, sq


@dataclass(frozen=True)
class KnnConfig:
    """Nearest-neighbour settings: ``k`` neighbours by Euclidean distance.

    Distance ties are broken by ascending bag index, so results are
    deterministic under a fixed insertion order.
    """

    k: int = 1

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError("k must be a positive integer")


def _label_columns(codes: np.ndarray, held: dict | None = None) -> dict:
    """The bag columns holding each label code.  With ``held``, the groups
    of the bag's first columns, ``codes`` are the codes of the columns that
    follow, and each group that gains columns is extended by them."""
    groups = dict(held or {})
    start = sum(len(cols) for cols in groups.values())
    # codes follow first appearance, so a code new to ``held`` is the next one
    for code in sorted(set(codes.tolist())):
        new = start + (codes == code).nonzero()[0]
        groups[code] = np.concatenate([groups[code], new]) if code in groups else new
    return groups


def knn_scores(cfg: KnnConfig, training: Bag, target: Bag, is_training_bag: bool) -> np.ndarray:
    """Score each target example as d_k(same label) / d_k(other labels).

    d_k is the sum of the k smallest Euclidean distances from the example's
    observation to the training observations of the given label group.  When
    both sums are zero the score is 0; when only the denominator is zero the
    largest finite float stands in for infinity.  With ``is_training_bag``
    each example is excluded from its own same-label group (otherwise its
    zero self-distance would swamp every score): one zero leaves the k + 1
    smallest squared distances of that group, when they hold one.  That one
    rule serves the training bag itself and its sub-bags, since a score
    depends only on the sorted k smallest values and every such zero is the
    same.  The k smallest come from :meth:`_Neighbours.smallest`, the
    selection that ``KnnClassifierMeasure.score_matrix`` uses too, so every
    score is invariant under permutation of the training bag.
    """
    codes, code_of = _label_codes(training.y)
    knn = _Neighbours(training.feature_rows, _label_columns(codes))
    return _knn_scores(cfg.k, knn, code_of, target, is_training_bag)


def _knn_scores(k: int, knn: "_Neighbours", code_of: dict, target: Bag, is_training_bag: bool) -> np.ndarray:
    """:func:`knn_scores` against the bag of ``knn``, whose groups are
    those of the label codes ``code_of``."""
    n, sizes = knn.rows.shape[1], knn.sizes
    codes = np.fromiter((code_of.get(v, -1) for v in target.y), dtype=int, count=len(target))
    near, has_own = _labelled_lists(k, knn, codes, target.x, is_training_bag)
    for code in sorted(set(codes.tolist())):
        mine = codes == code
        n_same = sizes[code] if code >= 0 else 0
        _check_neighbours(k, target.y[mine.argmax()], n_same - int(has_own[mine].any()), n - n_same)
    num, den = _root_sums(near).T
    return _ratio_scores(num, den)


def _labelled_lists(k: int, knn: "_Neighbours", codes: np.ndarray, X: np.ndarray, is_training_bag: bool) -> tuple:
    """``(near, has_own)``.  ``near[i, 0]`` and ``near[i, 1]`` (shape (rows,
    2, k)) are row i's sorted k smallest squared distances to the bag
    columns of its label code ``codes[i]`` and to those of every other
    label: the k smallest of the other groups' lists together.  With
    ``is_training_bag`` the query takes k + 1 per group, and a row whose own
    group starts with a zero (``has_own``) drops it: the example itself.
    Rows of an unknown code (-1) hold no usable lists."""
    near = knn.smallest(X, k + int(is_training_bag))[0]
    at = np.arange(len(X))
    same = near[at, codes]
    has_own = np.zeros(len(X), dtype=bool)
    if is_training_bag:
        has_own = (codes >= 0) & (same[:, 0] == 0)
        same = np.where(has_own[:, None], same[:, 1:], same[:, :-1])
    near[at, codes] = np.inf
    other = np.sort(near.reshape(-1, near.shape[1] * near.shape[2]), axis=1)[:, :k]
    return np.stack([same, other], axis=1), has_own


def _label_codes(y: Sequence[Label], codes: np.ndarray | None = None, code_of: dict | None = None):
    """Integer code per label (codes follow first appearance) and the code
    map; with ``codes`` and ``code_of`` of a bag, the codes of that bag
    followed by those of ``y``."""
    code_of = dict(code_of or {})
    for lbl in dict.fromkeys(y):
        code_of.setdefault(lbl, len(code_of))
    fresh = np.fromiter((code_of[v] for v in y), dtype=int, count=len(y))
    return (fresh if codes is None else np.concatenate([codes, fresh])), code_of


def knn_score_per_label(
    cfg: KnnConfig, training: Bag, x: np.ndarray, label_space: Sequence[Label]
) -> np.ndarray:
    """Scores for a new observation paired with each candidate label in order."""
    measure = KnnClassifierMeasure(cfg)
    measure.train(training)
    return measure.score(x, label_space)


class KnnClassifierMeasure(NonconformityMeasure):
    """Nonconformity as the ratio of same-label to other-label neighbour distances.

    ``scores`` and ``score_matrix`` take the k nearest through one sorted
    selection per label group (:func:`_neighbour_sums`).  ``extend`` keeps,
    for each example of the bag it fits, its sorted k smallest same-label
    and other-label squared distances (O(n·k) floats) and its score.  A fit
    from nothing takes them from one query of the bag against itself, the
    one ``scores(bag, True)`` makes (:func:`_labelled_lists`).  A step that
    continues the fitted bag computes only the new examples' distances
    (:func:`_new_pairs`) and merges them into the new examples' lists and,
    through the transpose, into the held lists they enter.  A one-row
    ``score_matrix`` remembers its distance row, and a one-row step that
    absorbs that row merges it instead of computing it again; the step then
    rescores only the new example and the held ones it enters.
    """

    def __init__(self, config: KnnConfig | None = None):
        self.config = config or KnnConfig()
        self._bag: Bag | None = None
        self._codes = np.empty(0, dtype=int)
        self._code_of: dict = {}
        self._groups: dict = {}  # _label_columns of _codes
        self._knn: _Neighbours | None = None  # queries against _bag by _groups
        # (near, scores) of the bag fitted by extend: near[i, 0] and
        # near[i, 1] are the sorted k smallest same-label and other-label
        # squared distances of example i to the other examples
        self._fit: tuple[np.ndarray, np.ndarray] | None = None
        self._query: tuple | None = None  # _remember of the last one-row query

    def train(self, bag: Bag) -> None:
        self._bag = bag
        self._codes, self._code_of = _label_codes(bag.y)
        self._groups = _label_columns(self._codes)
        self._knn = _Neighbours(bag.feature_rows, self._groups)
        self._fit = None

    def scores(self, bag: Bag, is_training_bag: bool) -> np.ndarray:
        require_trained(self._bag, "measure")
        return _knn_scores(self.config.k, self._knn, self._code_of, bag, is_training_bag)

    def extend(self, bag: Bag) -> np.ndarray:
        """Training scores of ``bag``; when it continues the bag of the last
        ``extend``, only the distances of its new examples are computed, and
        only the scores of the new examples and of the held ones they enter.

        Excluding each example itself drops the same zero as the first
        zero-distance same-label column that ``knn_scores`` drops, and a
        score depends only on the sorted values of its k smallest, so the
        scores are those of ``knn_scores``.  A label with too few neighbours
        raises, as ``scores`` would, before any state changes.
        """
        k = self.config.k
        empty = (np.empty((0, 2, k)), np.empty(0))
        n_old, (near, scores) = _resume(self._bag, self._fit, bag, empty)
        codes, code_of = _label_codes(bag.y[n_old:], self._codes[:n_old], self._code_of if n_old else None)
        groups = _label_columns(codes[n_old:], self._groups if n_old else None)
        for cols in groups.values():
            _check_neighbours(k, bag.y[cols[0]], len(cols) - 1, len(bag) - len(cols))
        knn = _Neighbours(bag.feature_rows, groups)
        if n_old:
            query = _shared_row(self._query, self._bag, bag, n_old)
            near[n_old:] = np.inf
            changed = self._step(near, codes, bag, n_old, None if query is None else query[2])
        else:
            near, changed = _labelled_lists(k, knn, codes, bag.x, True)[0], slice(None)
        num, den = _root_sums(near[changed]).T
        scores[changed] = _ratio_scores(num, den)
        self._bag, self._codes, self._code_of, self._groups = bag, codes, code_of, groups
        self._knn, self._fit, self._query = knn, (near, scores), None
        return scores.copy()

    def _step(self, near, codes, bag, n_old, first) -> np.ndarray:
        """Merge the new examples' distances (:func:`_new_pairs`, whose
        ``first`` this is) into ``near``: each block is split into
        same-label and other-label candidates by a label-code mask, then
        merged into its rows and, through its transpose, into the held
        examples it enters (strictly below their k-th).  Returns the
        positions whose lists may have changed: the new examples and the
        held ones entered."""
        k = self.config.k
        changed = [np.arange(n_old, len(bag))]
        for rows, cols, sq in _new_pairs(bag, n_old, first):
            # (rows, side, cols): the same-label, then the other-label candidates
            side = (codes[rows, None] == codes[None, cols])[:, None, :] == np.array([[True], [False]])
            cand = np.where(side, sq[:, None, :], np.inf)
            near[rows] = _merge_smallest(near[rows], cand, k)
            held = cand[:, :, :n_old]
            enter = (held < near[:n_old, :, -1].T).any(axis=(0, 1)).nonzero()[0]
            near[enter] = _merge_smallest(near[enter], held[:, :, enter].transpose(2, 1, 0), k)
            changed.append(enter)
        return np.concatenate(changed)

    def score(self, x: np.ndarray, label_space: Sequence[Label]) -> np.ndarray:
        return self.score_matrix(np.asarray(x, dtype=float)[None, :], label_space)[0]

    def score_matrix(self, X: np.ndarray, label_space: Sequence[Label]) -> np.ndarray:
        """Every row paired with every candidate label, from one
        :func:`_neighbour_sums` of the rows' k smallest squared distances
        per label group, selected once for all the candidate labels, exactly
        as training scores select them."""
        bag, k = require_trained(self._bag, "measure"), self.config.k
        if len(bag) == 0:
            raise ValueError("empty training bag")
        X = check_observations(X, bag.n_features)
        codes = [self._code_of.get(lbl, -1) for lbl in label_space]
        for lbl, code in zip(label_space, codes):
            n_same = len(self._groups.get(code, ()))
            _check_neighbours(k, lbl, n_same, len(bag) - n_same)
        near, _, row = self._knn.smallest(X, k)
        num, den = _neighbour_sums(k, near, codes)
        if row is not None:
            self._query = _remember(bag, X, row)
        return _ratio_scores(num, den)


def _k_nearest(k: int, sq: np.ndarray) -> np.ndarray:
    """Per row of squared distances, the columns of the k nearest bag
    examples, ordered by (distance, index) as a stable ``argsort`` orders
    them."""
    return np.argsort(sq, axis=1, kind="stable")[:, :k]


def _label_means(labels: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Mean of the labels at ``order`` per row, added in that order: the sum
    and division that ``.mean(axis=1)`` makes.  Every caller averages
    neighbour labels with this code."""
    return np.add.reduce(labels[order], axis=1) / order.shape[1]


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
    knn = _Neighbours(training.feature_rows)
    if is_training_bag:
        pick = _nearest_others(knn, target.x, k)[1]
    else:
        pick = knn.smallest(target.x, k, index=True)[1][:, 0]
    means = _label_means(np.asarray(training.y, dtype=float), pick)
    return np.asarray(target.y, dtype=float) - means, np.zeros(len(target))


def _nearest_others(knn: _Neighbours, X: np.ndarray, k: int) -> tuple:
    """``(near, idx)``, shape (rows, k): the k nearest other examples of
    each example of the bag of ``knn`` (``X`` holds the bag's rows), their
    squared distances and columns ordered by (distance, column), as a stable
    ``argsort`` orders them.  The query takes k + 1 and drops the row's own
    column, or the (k+1)-th when the row is not among them (k + 1 lower
    columns at distance 0).  The bag holds more than k examples."""
    vals, idx, _ = knn.smallest(X, k + 1, index=True)
    own = idx[:, 0] == np.arange(len(X))[:, None]
    own[:, -1] |= ~own.any(axis=1)
    keep = ~own
    return vals[:, 0][keep].reshape(len(X), k), idx[:, 0][keep].reshape(len(X), k)


def knn_regression_coeffs_n(
    cfg: KnnConfig, training: Bag, x: np.ndarray, labels: np.ndarray | None = None
) -> tuple[float, float]:
    """Coefficients for a new observation: a = -mean(k nearest labels), b = 1.
    ``labels`` are the training labels as floats, when the caller holds them."""
    _, _, pick = _query_neighbours(cfg, training, x)
    labels = np.asarray(training.y, dtype=float) if labels is None else labels
    return -float(_label_means(labels, pick)[0]), 1.0


def _query_neighbours(cfg: KnnConfig, training: Bag, x: np.ndarray) -> tuple:
    """``(X, sq, pick)``: the observation as a checked (1, d) matrix, its
    squared distances to the training bag and its k nearest columns."""
    if len(training) < cfg.k:
        raise ValueError(f"need k={cfg.k} neighbours, only {len(training)} available")
    X = check_observations(np.asarray(x, dtype=float)[None, :], training.n_features)
    sq = _sq_dists_to(X, training.feature_rows)
    return X, sq, _k_nearest(cfg.k, sq)


class KnnRegressionProvider(RegressionCoefficientProvider):
    """Coefficient provider built on nearest-neighbour label averages.

    ``extend`` keeps, for each example of the bag it fits, its coefficient
    and its k nearest other examples, squared distances and indices ordered
    by (distance, index).  A fit from nothing takes them from one query of
    the bag against itself, the one ``coeffs(bag, True)`` makes
    (:func:`_nearest_others`).  The next ``extend``, when its bag continues
    that one, computes only the new examples' distances (:func:`_new_pairs`).
    A held example that a new one comes strictly closer to than its k-th
    takes it into its list (the new, larger index goes after any tie, as the
    stable order puts it) and is averaged again; a tie changes nothing.
    ``coeffs_n`` remembers its distance row and k nearest, and a one-row
    step that absorbs that row takes both instead of computing them again.
    """

    def __init__(self, config: KnnConfig | None = None):
        self.config = config or KnnConfig()
        self._bag: Bag | None = None
        # (a, labels, near, idx) of the bag fitted by extend: example i's k
        # nearest others are idx[i], at squared distances near[i]
        self._fit: tuple[np.ndarray, ...] | None = None
        self._query: tuple | None = None  # _remember of the last coeffs_n, with its k nearest

    def train(self, bag: Bag) -> None:
        self._bag = bag
        self._fit = None

    def coeffs(self, bag: Bag, is_training_bag: bool) -> tuple[np.ndarray, np.ndarray]:
        training = require_trained(self._bag, "provider")
        return knn_regression_coeffs(self.config, training, bag, is_training_bag)

    def extend(self, bag: Bag) -> tuple[np.ndarray, np.ndarray]:
        n, k = len(bag), self.config.k
        if n - 1 < k:
            raise ValueError(f"need k={k} neighbours, only {n - 1} available")
        empty = (np.empty(0), np.empty(0), np.empty((0, k)), np.empty((0, k), dtype=int))
        n_old, (a, labels, near, idx) = _resume(self._bag, self._fit, bag, empty)
        labels[n_old:] = bag.y[n_old:]
        if n_old:
            changed = [np.arange(n_old, n)]
            query = _shared_row(self._query, self._bag, bag, n_old)
            for rows, _, sq in _new_pairs(bag, n_old, None if query is None else query[2]):
                new = np.arange(rows.start, rows.stop)
                pick = _k_nearest(k, sq) if query is None else query[3]  # as coeffs_n saw it
                hit = (sq[:, :n_old] < near[:n_old, -1]).any(axis=0).nonzero()[0]
                if len(hit):
                    # the held lists before the new, larger indices: a stable
                    # sort keeps the (distance, index) order
                    cand = np.concatenate([near[hit], sq[:, hit].T], axis=1)
                    ids = np.concatenate([idx[hit], new[None, :].repeat(len(hit), axis=0)], axis=1)
                    at = np.arange(len(hit))[:, None]
                    kept = _k_nearest(k, cand)
                    near[hit], idx[hit] = cand[at, kept], ids[at, kept]
                    changed.append(hit)
                idx[new] = pick
                near[new] = sq[np.arange(len(new))[:, None], pick]
            changed = np.concatenate(changed)
        else:  # one query of the bag against itself
            near, idx = _nearest_others(_Neighbours(bag.feature_rows), bag.x, k)
            changed = slice(None)
        a[changed] = labels[changed] - _label_means(labels, idx[changed])
        self._bag, self._fit, self._query = bag, (a, labels, near, idx), None
        return a.copy(), np.zeros(n)

    def coeffs_n(self, x: np.ndarray) -> tuple[float, float]:
        bag = require_trained(self._bag, "provider")
        X, sq, pick = _query_neighbours(self.config, bag, x)
        self._query = _remember(bag, X, sq, pick)
        labels = np.asarray(bag.y, dtype=float) if self._fit is None else self._fit[1]  # from extend
        return -float(_label_means(labels, pick)[0]), 1.0


# ---------------------------------------------------------------------------
# Minimal CART
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartConfig:
    """Gini tree settings: depth limit and least examples per leaf."""

    max_depth: int
    min_leaf: int = 1

    def __post_init__(self):
        for name in ("max_depth", "min_leaf"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer")


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
        tree = require_trained(self._tree, "measure")
        return np.array([cart_score(tree, x, lbl) for x, lbl in zip(bag.x, bag.y)])

    def score(self, x: np.ndarray, label_space: Sequence[Label]) -> np.ndarray:
        tree = require_trained(self._tree, "measure")
        return np.array([cart_score(tree, x, lbl) for lbl in label_space])


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
        space = require_trained(self._label_space, "measure")
        out_matrix = self._predict(bag.x, len(space))
        index = {lbl: i for i, lbl in enumerate(space)}
        unknown = [lbl for lbl in bag.y if lbl not in index]
        if unknown:
            raise ValueError(f"label {unknown[0]!r} is outside the trained label space")
        return np.array(
            [model_output_score(self.config, row, index[lbl]) for row, lbl in zip(out_matrix, bag.y)]
        )

    def score(self, x: np.ndarray, label_space: Sequence[Label]) -> np.ndarray:
        require_trained(self._label_space, "measure")
        row = self._predict(np.asarray(x, dtype=float)[None, :], len(label_space))[0]
        return np.array([model_output_score(self.config, row, j) for j in range(len(label_space))])

    def _predict(self, x: np.ndarray, n_labels: int) -> np.ndarray:
        out = np.asarray(self.config.predict_fn(x), dtype=float)
        if out.shape != (x.shape[0], n_labels):
            raise ValueError(f"predict_fn returned shape {out.shape}, expected {(x.shape[0], n_labels)}")
        return out
