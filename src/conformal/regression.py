"""Conformal regression intervals via score lines ``|a + b*y|``.

Each stored example's score is a function of the candidate label y.  The set
of y where example i stays at least as nonconforming as the new example is
an interval, a point, a ray, two rays, the whole line, or empty.  All finite
region endpoints are sorted into breakpoints; counting how many regions
cover each open stretch and each breakpoint gives the p-value plateau
structure in one sweep (the sort dominates at O(n log n)), instead of
testing every stretch against every region directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Bag, check_observations
from .metrics import IntervalReport, IntervalStats, check_epsilons
from .ncm import RegressionCoefficientProvider

INF = math.inf

#: A region is a tuple of disjoint closed (lo, hi) pieces, lo <= hi, endpoints possibly +-inf.
Region = tuple[tuple[float, float], ...]

FULL_LINE: Region = ((-INF, INF),)
EMPTY: Region = ()


@dataclass(frozen=True)
class ScoreLine:
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
    everywhere and the whole line is returned.
    """
    if line_i.b < 0 or line_new.b < 0:
        raise ValueError("score lines must be sign-normalized (b >= 0)")
    ai, bi = line_i.a, line_i.b
    an, bn = line_new.a, line_new.b
    if bn != bi:
        r1 = -(ai - an) / (bi - bn) + 0.0  # + 0.0 folds -0.0 into 0.0
        r2 = -(ai + an) / (bi + bn) + 0.0
        u, v = min(r1, r2), max(r1, r2)
        if bn > bi:
            return ((u, v),)
        return ((-INF, u), (v, INF))
    if bi > 0:
        if an == ai:
            return FULL_LINE
        u = -(ai + an) / (2.0 * bi) + 0.0
        return ((u, INF),) if an < ai else ((-INF, u),)
    return FULL_LINE if abs(an) <= abs(ai) else EMPTY


@dataclass
class Breakpoint:
    """Sweep node: count deltas applied when passing one breakpoint value.

    Sweeping left to right, the point count at the breakpoint is the
    preceding stretch count plus ``point_delta``, and the following stretch
    count is the point count plus ``interval_delta``.
    """

    value: float
    interval_delta: int = 0
    point_delta: int = 0


def _sweep_counts(regions: Sequence[Region]) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Coverage counts per open stretch (N) and per breakpoint (M).

    The new example's own region is the whole line, so counts start at one.
    Returns (breakpoint values, N, M) with N[j] covering the open stretch
    after the j-th breakpoint (N[0] is left of all of them) and M[j]
    covering the j-th breakpoint itself.
    """
    values = sorted(
        {v for region in regions for piece in region for v in piece if math.isfinite(v)}
    )
    index = {v: j for j, v in enumerate(values)}
    breakpoints = [Breakpoint(v) for v in values]
    base = 1  # the candidate's own region covers everything
    for region in regions:
        for lo, hi in region:
            if lo == -INF and hi == INF:
                base += 1
            elif lo == -INF:
                base += 1
                breakpoints[index[hi]].interval_delta -= 1
            elif hi == INF:
                breakpoints[index[lo]].point_delta += 1
            else:
                breakpoints[index[lo]].point_delta += 1
                breakpoints[index[hi]].interval_delta -= 1
    m = len(values)
    interval_counts = np.empty(m + 1, dtype=int)
    point_counts = np.empty(m, dtype=int)
    running = base
    interval_counts[0] = running
    for j, bp in enumerate(breakpoints):
        point_counts[j] = running + bp.point_delta
        running = point_counts[j] + bp.interval_delta
        interval_counts[j + 1] = running
    return values, interval_counts, point_counts


def _merge_included(values: list[float], n_ok: np.ndarray, m_ok: np.ndarray) -> Region:
    """Merge qualifying stretches and breakpoints into closed intervals."""
    m = len(values)
    atoms: list[tuple[bool, float, float]] = [
        (bool(n_ok[0]), -INF, values[0] if m else INF)
    ]
    for j in range(m):
        atoms.append((bool(m_ok[j]), values[j], values[j]))
        atoms.append((bool(n_ok[j + 1]), values[j], values[j + 1] if j + 1 < m else INF))
    pieces: list[tuple[float, float]] = []
    start = None
    last_right = None
    for ok, left, right in atoms:
        if ok:
            if start is None:
                start = left
            last_right = right
        elif start is not None:
            pieces.append((start, last_right))
            start = None
    if start is not None:
        pieces.append((start, last_right))
    return tuple(pieces)


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
    lines: Sequence[ScoreLine],
    line_new: ScoreLine,
    epsilons: Sequence[float],
    convex_hull: bool = True,
) -> PredictionIntervals:
    """Candidate labels whose p-value exceeds each significance level.

    A stretch or breakpoint qualifies at level eps when its coverage count
    (the stored regions covering it, plus the candidate's own) exceeds
    eps * (n + 1).  With ``convex_hull`` the union is replaced by its
    envelope, trading possible holes for a single interval.
    """
    eps = check_epsilons(epsilons)
    regions = [score_region(line, line_new) for line in lines]
    values, interval_counts, point_counts = _sweep_counts(regions)
    total = len(lines) + 1
    per: dict[float, Region] = {}
    for e in eps:
        cut = e * total
        pieces = _merge_included(values, interval_counts > cut, point_counts > cut)
        if convex_hull and pieces:
            pieces = ((pieces[0][0], pieces[-1][1]),)
        per[e] = pieces
    return PredictionIntervals(per)


@dataclass(frozen=True)
class RrcmConfig:
    """Settings for the regression conformal predictor."""

    epsilons: tuple[float, ...]
    convex_hull: bool = True

    def __post_init__(self):
        object.__setattr__(self, "epsilons", check_epsilons(self.epsilons))


class ConformalRegressor:
    """Regression conformal predictor returning interval unions.

    A trained instance is immutable and ``predict`` is pure, so concurrent
    prediction is safe; ``train`` and ``score_online`` need exclusive access.
    """

    def __init__(self, provider: RegressionCoefficientProvider, config: RrcmConfig):
        self.provider = provider
        self.config = config
        self._bag: Bag | None = None
        self._lines: list[ScoreLine] | None = None
        # the provider's coefficients behind _lines, to spot the changed ones
        self._coeffs: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def bag(self) -> Bag | None:
        return self._bag

    def train(self, bag: Bag, override: bool = False) -> "ConformalRegressor":
        """Fit the coefficient provider and cache the bag's score lines.

        The provider computes the coefficients through its ``extend`` hook.
        Without ``override`` the new examples are appended to the bag already
        held and only the score lines whose coefficients changed are rebuilt;
        with it they replace that bag.
        """
        fresh = override or self._bag is None
        merged = bag if fresh else self._bag.append(bag)
        if len(merged) == 0:
            raise ValueError("cannot train on an empty bag")
        if merged.is_classification:
            raise ValueError("the regression predictor needs a regression bag")
        n_old = 0 if fresh else len(self._bag)
        a, b = self.provider.extend(merged, n_old)
        # copies: the next train compares against them
        a = np.array(a, dtype=float)
        b = np.array(b, dtype=float)
        if a.shape != (len(merged),) or b.shape != (len(merged),):
            raise ValueError("provider returned malformed coefficient vectors")
        if fresh:
            self._lines = [normalize_line(ai, bi) for ai, bi in zip(a, b)]
        else:
            old_a, old_b = self._coeffs
            changed = np.flatnonzero(_bits_differ(a[:n_old], old_a) | _bits_differ(b[:n_old], old_b))
            updates = [(i, normalize_line(a[i], b[i])) for i in changed.tolist()]
            tail = [normalize_line(ai, bi) for ai, bi in zip(a[n_old:], b[n_old:])]
            for i, line in updates:
                self._lines[i] = line
            self._lines.extend(tail)
        self._bag = merged
        self._coeffs = (a, b)
        return self

    def predict(self, X) -> list[PredictionIntervals]:
        """Prediction-interval unions for each observation row."""
        lines = self._require_trained()
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
        self._require_trained()
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
        ``RegressionCoefficientProvider.extend``).
        """
        self._require_trained()
        if stream.is_classification:
            raise ValueError("scoring needs a regression bag")
        predictions: list[PredictionIntervals] = []
        for i in range(len(stream)):
            x, y = stream.x[i], stream.y[i]
            predictions.append(self.predict(x[None, :])[0])
            self.train(Bag.regression(x[None, :], (y,)))
        if not predictions:
            zero = {e: IntervalStats(0.0, 0.0) for e in self.config.epsilons}
            return IntervalReport(zero, 0)
        return _interval_report(predictions, stream.y, self.config.epsilons)

    def _require_trained(self) -> list[ScoreLine]:
        if self._lines is None:
            raise ValueError("predictor is not trained")
        return self._lines


def _bits_differ(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Elementwise: the floats differ, telling -0.0 from 0.0."""
    return (new != old) | (np.signbit(new) != np.signbit(old))


def _interval_report(predictions, truths, epsilons) -> IntervalReport:
    n = len(predictions)
    per = {}
    for eps in epsilons:
        misses = sum(not pred.contains(eps, y) for pred, y in zip(predictions, truths))
        width = sum(pred.finite_width(eps) for pred in predictions)
        per[eps] = IntervalStats(misses / n, width / n)
    return IntervalReport(per, n)
