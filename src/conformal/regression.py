"""Conformal regression intervals via score lines ``|a + b*y|``.

Each stored example's score is a function of the candidate label y.  The set
of y where example i stays at least as nonconforming as the new example is
an interval, a point, a ray, two rays, the whole line, or empty.
``prediction_intervals`` takes one of two paths, chosen from the lines:

* When every stored line is flat (b = 0, as the kNN provider gives) and the
  new line has b > 0, every region is an interval whose ends move
  monotonically with |a_i|, so the regions are nested.  The level set is
  then the region of one order statistic of |a|, and one ``np.partition``
  selects it for every level at once, in O(n).
* Otherwise (a sloped stored line, as a ridge provider gives, or a flat new
  line) every stored line's region is found at once with numpy case masks,
  the finite region endpoints are sorted into breakpoints and the regions'
  endpoint deltas become a coverage count for every open stretch and every
  breakpoint with one ``cumsum`` (the sort dominates at O(n log n)).  The
  qualifying stretches and breakpoints are merged into intervals by their
  runs.

Both paths evaluate a root with the float expressions of ``score_region``,
so they agree bit for bit where both apply.  ``score_region`` is the scalar
form of one line's region and the reference the tests compare against.
All raise ``ValueError`` when a root overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .data import Bag, _example, check_observations, require_trained
from .metrics import IntervalReport, IntervalStats, check_epsilons
from .ncm import RegressionCoefficientProvider

INF = math.inf

#: A region is a tuple of disjoint closed (lo, hi) pieces, lo <= hi, endpoints possibly +-inf.
Region = tuple[tuple[float, float], ...]

FULL_LINE: Region = ((-INF, INF),)
EMPTY: Region = ()

_NOT_NORMALIZED = "score lines must be sign-normalized (b >= 0)"
_OVERFLOW = "a score line root is not finite; the coefficients are too large"


class ScoreLine(NamedTuple):
    """Coefficients of one score function ``|a + b*y|``; b >= 0 after normalization."""

    a: float
    b: float


def normalize_line(a: float, b: float) -> ScoreLine:
    """Flip both signs when b is negative; ``|a + b*y|`` is unchanged for every y."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("score line coefficients must be finite")
    return ScoreLine(-a, -b) if b < 0 else ScoreLine(a, b)


def score_region(line_i: ScoreLine, line_new: ScoreLine) -> Region:
    """Solution set of ``|a_i + b_i*y| >= |a_new + b_new*y|`` over y.

    Both lines must be sign-normalized.  The case b_new == b_i > 0 with
    a_new == a_i is the identical score function, so the inequality holds
    everywhere and the whole line is returned.  A root whose denominator or
    value overflows raises ``ValueError`` instead of giving a wrong region.
    """
    if line_i.b < 0 or line_new.b < 0:
        raise ValueError(_NOT_NORMALIZED)
    ai, bi = line_i.a, line_i.b
    an, bn = line_new.a, line_new.b
    if bn != bi:
        r1 = -(ai - an) / (bi - bn) + 0.0  # + 0.0 folds -0.0 into 0.0
        r2 = -(ai + an) / (bi + bn) + 0.0
        if not all(map(math.isfinite, (bi + bn, r1, r2))):
            raise ValueError(_OVERFLOW)
        u, v = min(r1, r2), max(r1, r2)
        if bn > bi:
            return ((u, v),)
        return ((-INF, u), (v, INF))
    if bi > 0:
        if an == ai:
            return FULL_LINE
        u = -(ai + an) / (2.0 * bi) + 0.0
        if not (math.isfinite(2.0 * bi) and math.isfinite(u)):
            raise ValueError(_OVERFLOW)
        return ((u, INF),) if an < ai else ((-INF, u),)
    return FULL_LINE if abs(an) <= abs(ai) else EMPTY


def _nested_intervals(abs_a: np.ndarray, line_new: ScoreLine, eps) -> dict[float, Region]:
    """Level sets when every stored line is flat (b = 0) and the new line's b > 0.

    Line i's region is then [-fl(|a_i| + a_new), fl(|a_i| - a_new)] / b_new
    (the sign of a_i only swaps the two roots), and each end is monotone in
    |a_i| under rounding, so the regions are nested.  A point lies in at
    least t of them exactly when it lies in the region of the t-th largest
    |a_i|; with the candidate's own region it qualifies at level e when
    t = floor(e * (n + 1)), which is at most n for e < 1 (the narrowest
    region is never empty).  ``score_region`` gives the selected regions,
    and the widest one too: a root that overflows anywhere overflows there.
    """
    n = len(abs_a)
    need = {e: math.floor(e * (n + 1)) for e in eps}
    kth = sorted({n - t for t in need.values() if t > 0} | {n - 1})
    picked = np.partition(abs_a, kth)[kth].tolist() if n else []
    at = {rank: score_region(ScoreLine(a, 0.0), line_new) for rank, a in zip(kth, picked)}
    return {e: at[n - t] if t > 0 else FULL_LINE for e, t in need.items()}


def _coverage_counts(
    lines: np.ndarray, a_new: float, b_new: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coverage counts per open stretch (N) and per breakpoint (M).

    Every line's region is found with the float expressions of
    ``score_region``.  A region starting at -inf adds one to the count left
    of all breakpoints, a finite left end adds one at its breakpoint and a
    finite right end takes one away after it.  The new example's own region
    is the whole line, so counts start at one.  Returns (breakpoints, N, M)
    with N[j] covering the open stretch after the j-th breakpoint (N[0] is
    left of all of them) and M[j] covering the j-th breakpoint itself.
    """
    a, b = lines[:, 0], lines[:, 1]
    if b_new < 0 or (b < 0).any():
        raise ValueError(_NOT_NORMALIZED)
    sloped = b != b_new
    ray = ~sloped & (b > 0) & (a != a_new)  # equal slopes: one ray
    ai, bi, aj = a[sloped], b[sloped], a[ray]
    with np.errstate(over="ignore", invalid="ignore"):
        den = bi + b_new
        r1 = -(ai - a_new) / (bi - b_new) + 0.0  # + 0.0 folds -0.0 into 0.0
        r2 = -(ai + a_new) / den + 0.0
        den_ray = 2.0 * b[ray]
        w = -(aj + a_new) / den_ray + 0.0
    if not all(np.isfinite(x).all() for x in (den, r1, r2, den_ray, w)):
        raise ValueError(_OVERFLOW)
    u, v = np.minimum(r1, r2), np.maximum(r1, r2)
    inner = bi < b_new  # [u, v]; otherwise the rays (-inf, u] and [v, inf)
    rightward = a_new < aj  # [w, inf); otherwise (-inf, w]
    starts = np.concatenate((u[inner], v[~inner], w[rightward]))
    ends = np.concatenate((v[inner], u[~inner], w[~rightward]))
    full = ~sloped & np.where(b > 0, a == a_new, abs(a_new) <= np.abs(a))
    base = 1 + np.count_nonzero(full) + np.count_nonzero(~inner) + np.count_nonzero(~rightward)

    values = np.concatenate((starts, ends))
    values.sort()
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    values = values[first]
    m = len(values)
    up = np.bincount(np.searchsorted(values, starts), minlength=m)
    down = np.bincount(np.searchsorted(values, ends), minlength=m)
    interval_counts = base + np.concatenate(([0], np.cumsum(up - down)))
    return values, interval_counts, interval_counts[:-1] + up


def _qualifying_runs(values: np.ndarray, n_ok: np.ndarray, m_ok: np.ndarray) -> Region:
    """Merge runs of qualifying stretches and breakpoints into closed intervals.

    The atoms in order are stretch 0, breakpoint 0, stretch 1, ...; atom t
    spans edges[(t + 1) // 2] to edges[t // 2 + 1].
    """
    edges = np.concatenate(([-INF], values, [INF]))
    ok = np.zeros(2 * len(values) + 3, dtype=bool)  # False-padded atoms
    ok[1:-1:2] = n_ok
    ok[2:-1:2] = m_ok
    flips = np.flatnonzero(ok[1:] != ok[:-1])
    first, last = flips[0::2], flips[1::2] - 1
    return tuple(zip(edges[(first + 1) // 2].tolist(), edges[last // 2 + 1].tolist()))


@dataclass(frozen=True)
class PredictionIntervals:
    """Disjoint closed intervals per significance level (endpoints may be +-inf).

    Unions are nested: a larger level's union is contained in a smaller
    level's.  In convex-hull mode each level holds at most one interval.
    """

    per_epsilon: Mapping[float, Region]

    def intervals_at(self, epsilon: float) -> Region:
        return self.per_epsilon[epsilon]

    def contains(self, epsilon: float, y: float) -> bool:
        return any(lo <= y <= hi for lo, hi in self.per_epsilon[epsilon])

    def finite_width(self, epsilon: float) -> float:
        """Total length of the finite pieces; rays and the full line add nothing."""
        return sum(
            hi - lo
            for lo, hi in self.per_epsilon[epsilon]
            if math.isfinite(lo) and math.isfinite(hi)
        )


def prediction_intervals(
    lines: Sequence[ScoreLine] | np.ndarray,
    line_new: ScoreLine,
    epsilons: Sequence[float],
    convex_hull: bool = True,
) -> PredictionIntervals:
    """Candidate labels whose p-value exceeds each significance level.

    A stretch or breakpoint qualifies at level eps when its coverage count
    (the stored regions covering it, plus the candidate's own) exceeds
    eps * (n + 1).  With ``convex_hull`` the union is replaced by its
    envelope, trading possible holes for a single interval.  ``lines`` is a
    sequence of sign-normalized lines or an (n, 2) array of their (a, b).
    Flat stored lines (all b = 0) against a new line with b > 0 give nested
    regions, which one selection answers; any other lines are swept.
    """
    eps = check_epsilons(epsilons)
    store = np.asarray(lines, dtype=float).reshape(len(lines), 2)
    a_new, b_new = map(float, line_new)
    if b_new > 0 and not store[:, 1].any():  # flat stored lines: nested regions
        per = _nested_intervals(np.abs(store[:, 0]), ScoreLine(a_new, b_new), eps)
    else:
        per = _swept_intervals(store, a_new, b_new, eps, convex_hull)
    return PredictionIntervals(per)


def _swept_intervals(
    store: np.ndarray, a_new: float, b_new: float, eps, convex_hull: bool
) -> dict[float, Region]:
    """Level sets of any sign-normalized lines by the breakpoint sweep."""
    values, interval_counts, point_counts = _coverage_counts(store, a_new, b_new)
    total = len(store) + 1
    per: dict[float, Region] = {}
    for e in eps:
        cut = e * total
        pieces = _qualifying_runs(values, interval_counts > cut, point_counts > cut)
        if convex_hull and pieces:
            pieces = ((pieces[0][0], pieces[-1][1]),)
        per[e] = pieces
    return per


@dataclass(frozen=True)
class RrcmConfig:
    """Settings for the regression conformal predictor."""

    epsilons: tuple[float, ...]
    convex_hull: bool = True

    def __post_init__(self):
        object.__setattr__(self, "epsilons", check_epsilons(self.epsilons))


class ConformalRegressor:
    """Regression conformal predictor returning interval unions.

    A trained instance is immutable and ``predict`` changes no fit (the
    provider may keep a record of its query, see
    ``RegressionCoefficientProvider``), so concurrent prediction is safe;
    ``train`` and ``score_online`` need exclusive access.
    """

    def __init__(self, provider: RegressionCoefficientProvider, config: RrcmConfig):
        self.provider = provider
        self.config = config
        self._bag: Bag | None = None
        # (n, 2): the sign-normalized (a, b) of each example's score line
        self._lines: np.ndarray | None = None

    @property
    def bag(self) -> Bag | None:
        return self._bag

    def train(self, bag: Bag, override: bool = False) -> "ConformalRegressor":
        """Fit the coefficient provider and cache the bag's score lines.

        The provider computes the coefficients through its ``extend`` hook.
        Without ``override`` the new examples are appended to the bag already
        held; with it they replace that bag.  Non-finite coefficients raise
        ``ValueError`` before any state changes.
        """
        fresh = override or self._bag is None
        merged = bag if fresh else self._bag.append(bag)
        if len(merged) == 0:
            raise ValueError("cannot train on an empty bag")
        if merged.is_classification:
            raise ValueError("the regression predictor needs a regression bag")
        a, b = self.provider.extend(merged)
        if np.shape(a) != (len(merged),) or np.shape(b) != (len(merged),):
            raise ValueError("provider returned malformed coefficient vectors")
        lines = np.column_stack((a, b)).astype(float, copy=False)
        if not np.isfinite(lines).all():
            raise ValueError("score line coefficients must be finite")
        flip = lines[:, 1] < 0
        if flip.any():
            lines[flip] *= -1.0  # see normalize_line
        self._lines = lines
        self._bag = merged
        return self

    def predict(self, X) -> list[PredictionIntervals]:
        """Prediction-interval unions for each observation row."""
        lines = require_trained(self._lines, "predictor")
        X = check_observations(X, self._bag.n_features)
        out = []
        for x in X:
            a_new, b_new = self.provider.coeffs_n(x)
            out.append(
                prediction_intervals(
                    lines, normalize_line(a_new, b_new), self.config.epsilons, self.config.convex_hull
                )
            )
        return out

    def score(self, test: Bag) -> IntervalReport:
        """Miss rate (true label outside the union) and mean finite width per level."""
        require_trained(self._lines, "predictor")
        if len(test) == 0:
            raise ValueError("empty test bag")
        if test.is_classification:
            raise ValueError("scoring needs a regression bag")
        predictions = self.predict(test.x)
        return _interval_report(predictions, test.y, self.config.epsilons)

    def score_online(self, stream: Bag) -> IntervalReport:
        """Predict each stream element, record the outcome, then absorb it.

        Each element is absorbed by a non-override ``train``, so the provider
        updates only the coefficients the element changes (see
        ``RegressionCoefficientProvider.extend``).  The stream's width and
        kind are checked before the first element is absorbed.
        """
        require_trained(self._lines, "predictor")
        check_observations(stream.x, self._bag.n_features)
        if stream.is_classification:
            raise ValueError("scoring needs a regression bag")
        predictions: list[PredictionIntervals] = []
        for i in range(len(stream)):
            predictions.append(self.predict(stream.x[i: i + 1])[0])
            self.train(_example(stream, i, ()))
        if not predictions:
            zero = {e: IntervalStats(0.0, 0.0) for e in self.config.epsilons}
            return IntervalReport(zero, 0)
        return _interval_report(predictions, stream.y, self.config.epsilons)


def _interval_report(predictions, truths, epsilons) -> IntervalReport:
    n = len(predictions)
    per = {}
    for eps in epsilons:
        misses = sum(not pred.contains(eps, y) for pred, y in zip(predictions, truths))
        width = sum(pred.finite_width(eps) for pred in predictions)
        per[eps] = IntervalStats(misses / n, width / n)
    return IntervalReport(per, n)
