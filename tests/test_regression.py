import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import direct_membership_union, linear_regression_bag
from conformal import (
    Bag,
    ConformalRegressor,
    KnnConfig,
    KnnRegressionProvider,
    RrcmConfig,
    ScoreLine,
    knn_regression_coeffs,
    normalize_line,
    prediction_intervals,
    score_region,
)
from conformal.regression import _swept_intervals

INF = math.inf


def random_lines(rng, n):
    """Coefficient soup covering every region case: duplicates, zeros, negatives."""
    a = np.round(rng.uniform(-3, 3, size=n), 1)
    b = np.round(rng.uniform(-2, 2, size=n), 1)
    b[rng.random(n) < 0.3] = 0.0
    return [normalize_line(ai, bi) for ai, bi in zip(a, b)]


class TestScoreRegion:
    def test_interval_case_hand_computed(self):
        # |1| >= |y - 1| solves to [0, 2]
        region = score_region(ScoreLine(1.0, 0.0), ScoreLine(-1.0, 1.0))
        assert region == ((0.0, 2.0),)

    def test_two_rays_case(self):
        # |2y - 10| >= |y| solves outside (10/3, 10)
        region = score_region(normalize_line(-10.0, 2.0), ScoreLine(0.0, 1.0))
        assert len(region) == 2
        (lo1, hi1), (lo2, hi2) = region
        assert lo1 == -INF and hi2 == INF
        assert hi1 == pytest.approx(10 / 3)
        assert lo2 == pytest.approx(10.0)

    def test_equal_slopes_rays(self):
        # |2 + y| >= |y| holds for y >= -1
        assert score_region(ScoreLine(2.0, 1.0), ScoreLine(0.0, 1.0)) == ((-1.0, INF),)
        assert score_region(ScoreLine(0.0, 1.0), ScoreLine(2.0, 1.0)) == ((-INF, -1.0),)

    def test_both_constant(self):
        assert score_region(ScoreLine(3.0, 0.0), ScoreLine(2.0, 0.0)) == ((-INF, INF),)
        assert score_region(ScoreLine(3.0, 0.0), ScoreLine(3.0, 0.0)) == ((-INF, INF),)
        assert score_region(ScoreLine(2.0, 0.0), ScoreLine(3.0, 0.0)) == ()

    def test_identical_lines_cover_everything(self):
        assert score_region(ScoreLine(1.5, 2.0), ScoreLine(1.5, 2.0)) == ((-INF, INF),)

    def test_point_region(self):
        # b_new > b_i with coincident roots gives a single point
        region = score_region(ScoreLine(0.0, 0.0), ScoreLine(0.0, 1.0))
        assert region == ((0.0, 0.0),)

    def test_negative_b_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            score_region(ScoreLine(0.0, -1.0), ScoreLine(0.0, 1.0))
        with pytest.raises(ValueError, match="normalized"):
            prediction_intervals([ScoreLine(0.0, -1.0)], ScoreLine(0.0, 1.0), (0.1,))

    @pytest.mark.parametrize("line_i", [(1e308, 1e308), (1e308, 0.5e308)])
    def test_root_overflow_rejected(self, line_i):
        # unchecked, the roots come out as NaN and -inf, and the regions
        # silently lose y = -1 and [-1.43, 0) respectively
        line_i, line_new = normalize_line(*line_i), normalize_line(1e308, 0.9e308)
        with pytest.raises(ValueError, match="root is not finite"):
            score_region(line_i, line_new)
        for hull in (False, True):
            with pytest.raises(ValueError, match="root is not finite"):
                prediction_intervals([ScoreLine(0.0, 0.0), line_i], line_new, (0.1,), hull)

    def test_flat_overflow_rejected(self):
        # flat stored lines take the selection path, which finds the
        # overflow at the widest region whatever level it selects
        lines, line_new = [ScoreLine(1e308, 0.0), ScoreLine(0.0, 0.0)], ScoreLine(1e308, 1.0)
        with pytest.raises(ValueError, match="root is not finite"):
            score_region(lines[0], line_new)
        for hull in (False, True):
            with pytest.raises(ValueError, match="root is not finite"):
                prediction_intervals(lines, line_new, (0.1, 0.9), hull)

    def test_equal_slope_overflow_rejected(self):
        # unchecked, 2 * b overflows and puts the root at 0.0 instead of -0.75
        line_i, line_new = ScoreLine(1e308, 1e308), ScoreLine(0.5e308, 1e308)
        with pytest.raises(ValueError, match="root is not finite"):
            score_region(line_i, line_new)
        with pytest.raises(ValueError, match="root is not finite"):
            prediction_intervals([line_i], line_new, (0.1,))

    def test_normalization_preserves_scores(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = rng.uniform(-5, 5), rng.uniform(-5, 5)
            line = normalize_line(a, b)
            assert line.b >= 0
            for y in rng.uniform(-10, 10, size=5):
                assert abs(line.a + line.b * y) == pytest.approx(abs(a + b * y))

    def test_region_membership_matches_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            line_i = random_lines(rng, 1)[0]
            line_new = random_lines(rng, 1)[0]
            region = score_region(line_i, line_new)
            for y in rng.uniform(-8, 8, size=8):
                inside = any(lo <= y <= hi for lo, hi in region)
                holds = abs(line_i.a + line_i.b * y) >= abs(line_new.a + line_new.b * y)
                assert inside == holds


class TestPredictionIntervals:
    def test_single_line_worked_example(self):
        # S_1 = [0, 2]; p is 1 inside and 1/2 outside
        line = ScoreLine(1.0, 0.0)
        new = ScoreLine(-1.0, 1.0)
        assert prediction_intervals([line], new, (0.6,), False).intervals_at(0.6) == ((0.0, 2.0),)
        assert prediction_intervals([line], new, (0.9,), False).intervals_at(0.9) == ((0.0, 2.0),)
        # below 1/2 both plateaus qualify, so the union is the whole line
        assert prediction_intervals([line], new, (0.4,), False).intervals_at(0.4) == ((-INF, INF),)

    def test_holes_preserved_without_hull(self):
        union = prediction_intervals(
            [normalize_line(-10.0, 2.0)], ScoreLine(0.0, 1.0), (0.6,), convex_hull=False
        ).intervals_at(0.6)
        assert len(union) == 2
        assert union[0][0] == -INF and union[1][1] == INF

    def test_convex_hull_closes_holes(self):
        union = prediction_intervals(
            [normalize_line(-10.0, 2.0)], ScoreLine(0.0, 1.0), (0.6,), convex_hull=True
        ).intervals_at(0.6)
        assert union == ((-INF, INF),)

    def test_nested_across_epsilons(self):
        rng = np.random.default_rng(4)
        epsilons = (0.1, 0.3, 0.6)
        for _ in range(100):
            lines = random_lines(rng, int(rng.integers(1, 12)))
            new = random_lines(rng, 1)[0]
            intervals = prediction_intervals(lines, new, epsilons, convex_hull=False)
            for y in rng.uniform(-10, 10, size=12):
                included = [intervals.contains(e, y) for e in epsilons]
                # once excluded at a small level, excluded at every larger one
                for small, large in zip(included, included[1:]):
                    assert small or not large

    def test_plateau_constant_between_breakpoints(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lines = random_lines(rng, 8)
            new = random_lines(rng, 1)[0]

            def coverage(y):
                return sum(
                    abs(l.a + l.b * y) >= abs(new.a + new.b * y) for l in lines
                )

            breaks = sorted(
                {v for l in lines for piece in score_region(l, new) for v in piece
                 if math.isfinite(v)}
            )
            for lo, hi in zip(breaks, breaks[1:]):
                if hi - lo < 1e-9:
                    continue
                probes = lo + (hi - lo) * np.array([0.25, 0.5, 0.75])
                counts = {coverage(p) for p in probes}
                assert len(counts) == 1

    def test_sweep_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for trial in range(300):
            n = int(rng.integers(1, 13))
            lines = random_lines(rng, n)
            new = random_lines(rng, 1)[0]
            eps = float(rng.choice([0.05, 0.2, 0.4, 0.7]))
            for hull in (False, True):
                got = prediction_intervals(lines, new, (eps,), hull).intervals_at(eps)
                want = direct_membership_union(lines, new, eps, hull)
                assert len(got) == len(want), (trial, got, want)
                for (glo, ghi), (wlo, whi) in zip(got, want):
                    assert glo == pytest.approx(wlo, abs=1e-9)
                    assert ghi == pytest.approx(whi, abs=1e-9)


GRID_LINE = st.builds(
    lambda a, b: normalize_line(a / 10, b / 10), st.integers(-30, 30), st.integers(-20, 20)
)


@st.composite
def sweep_instances(draw):
    """Grid lines with b = 0 lines, repeated lines and a new line that may equal a stored one."""
    lines = draw(st.lists(GRID_LINE | st.just(normalize_line(0.5, 0.0)), max_size=14))
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=4))
        new = draw(GRID_LINE | st.sampled_from(lines))
    else:
        new = draw(GRID_LINE)
    eps = draw(st.lists(st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.75]), min_size=1, max_size=4,
                        unique=True))
    return lines, new, tuple(sorted(eps))


@st.composite
def flat_instances(draw):
    """Flat stored lines (b = 0 or -0.0) on an integer grid, many of them tied
    in |a| and some at a = -0.0, against a new line with b > 0; the levels
    reach t = floor(eps * (n + 1)) <= 0 and t = n."""
    zero_or = st.sampled_from([0.0, -0.0])
    a = draw(st.lists(st.integers(-6, 6).map(float) | zero_or, max_size=14))
    lines = [ScoreLine(v, draw(zero_or)) for v in a]
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=4))
    new = ScoreLine(draw(st.integers(-8, 8)) / 2, draw(st.sampled_from([0.1, 0.25, 0.3, 1.0, 3.0])))
    eps = draw(st.lists(st.sampled_from([0.01, 0.05, 0.3, 0.5, 0.8, 0.95, 0.99]), min_size=1,
                        max_size=4, unique=True))
    return lines, new, tuple(sorted(eps))


def _inside(inner, outer):
    return all(any(lo <= ilo and ihi <= hi for lo, hi in outer) for ilo, ihi in inner)


class TestSweepProperties:
    @settings(max_examples=300, deadline=None)
    @given(sweep_instances(), st.booleans())
    def test_equals_membership_oracle_exactly(self, instance, hull):
        lines, new, eps = instance
        got = prediction_intervals(lines, new, eps, hull)
        for e in eps:
            assert got.intervals_at(e) == tuple(direct_membership_union(lines, new, e, hull))

    @settings(max_examples=300, deadline=None)
    @given(flat_instances(), st.booleans())
    def test_flat_lines_equal_membership_oracle_exactly(self, instance, hull):
        lines, new, eps = instance
        got = prediction_intervals(lines, new, eps, hull)
        for e in eps:
            want = tuple(direct_membership_union(lines, new, e, hull))
            assert got.intervals_at(e) == want
            # the sign of a zero end too: both paths fold -0.0 into 0.0
            assert [math.copysign(1.0, v) for piece in got.intervals_at(e) for v in piece] == [
                math.copysign(1.0, v) for piece in want for v in piece]

    @settings(max_examples=200, deadline=None)
    @given(sweep_instances(), st.booleans())
    def test_nested_across_epsilons(self, instance, hull):
        lines, new, eps = instance
        got = prediction_intervals(lines, new, eps, hull)
        for small, large in zip(eps, eps[1:]):
            assert _inside(got.intervals_at(large), got.intervals_at(small))

    @settings(max_examples=200, deadline=None)
    @given(sweep_instances().flatmap(
        lambda inst: st.tuples(st.just(inst), st.permutations(inst[0]))), st.booleans())
    def test_invariant_under_permutation(self, drawn, hull):
        (lines, new, eps), permuted = drawn
        assert prediction_intervals(permuted, new, eps, hull) == prediction_intervals(
            lines, new, eps, hull)


class TestConformalRegressor:
    def _predictor(self, epsilons=(0.1, 0.3), convex_hull=True, k=1):
        return ConformalRegressor(
            KnnRegressionProvider(KnnConfig(k=k)),
            RrcmConfig(epsilons=epsilons, convex_hull=convex_hull),
        )

    def test_classification_bag_rejected(self):
        with pytest.raises(ValueError, match="regression"):
            self._predictor().train(Bag.classification([[0.0]], ["A"]))

    def test_untrained_predict_rejected(self):
        with pytest.raises(ValueError, match="not trained"):
            self._predictor().predict(np.zeros((1, 1)))

    def test_append_semantics(self):
        predictor = self._predictor()
        predictor.train(linear_regression_bag(10, seed=1))
        predictor.train(linear_regression_bag(6, seed=2))
        assert len(predictor.bag) == 16
        predictor.train(linear_regression_bag(4, seed=3), override=True)
        assert len(predictor.bag) == 4

    def test_convex_hull_is_single_interval_and_wider(self):
        bag = linear_regression_bag(40, seed=4)
        x_test = linear_regression_bag(10, seed=5).x
        hulls = self._predictor(convex_hull=True, k=3).train(bag).predict(x_test)
        unions = self._predictor(convex_hull=False, k=3).train(bag).predict(x_test)
        for hull_pred, union_pred in zip(hulls, unions):
            for eps in (0.1, 0.3):
                hull_pieces = hull_pred.intervals_at(eps)
                assert len(hull_pieces) <= 1
                assert hull_pred.finite_width(eps) >= union_pred.finite_width(eps) - 1e-12

    def test_score_counts_misses(self):
        bag = linear_regression_bag(60, seed=6)
        predictor = self._predictor(epsilons=(0.1,), k=3).train(bag)
        report = predictor.score(linear_regression_bag(40, seed=7))
        assert report.trials == 40
        assert 0.0 <= report.per_epsilon[0.1].miss_rate <= 0.5
        assert report.per_epsilon[0.1].mean_width > 0.0

    def test_online_miss_rate_in_band(self):
        predictor = self._predictor(epsilons=(0.1,), k=3)
        predictor.train(linear_regression_bag(20, seed=8))
        report = predictor.score_online(linear_regression_bag(300, seed=9))
        assert len(predictor.bag) == 320
        assert 0.03 <= report.per_epsilon[0.1].miss_rate <= 0.17

    def test_predict_equals_sweep_over_normalized_lines(self):
        # n = 2000: the array-held store, whose flat lines take the selection
        # path, against the breakpoint sweep over normalize_line lines
        eps = (0.05, 0.1, 0.2)
        bag = linear_regression_bag(2000, seed=10)
        predictor = self._predictor(epsilons=eps, convex_hull=False, k=3).train(bag)
        a, b = knn_regression_coeffs(KnnConfig(k=3), bag, bag, True)
        store = np.array([normalize_line(ai, bi) for ai, bi in zip(a, b)])
        x_test = linear_regression_bag(8, seed=11).x
        for x, got in zip(x_test, predictor.predict(x_test)):
            a_new, b_new = normalize_line(*predictor.provider.coeffs_n(x))
            assert got.per_epsilon == _swept_intervals(store, a_new, b_new, eps, False)

    def test_empty_test_rejected(self):
        predictor = self._predictor().train(linear_regression_bag(10, seed=1))
        with pytest.raises(ValueError, match="empty"):
            predictor.score(Bag(np.empty((0, 1)), (), ()))

    def test_non_finite_rows_rejected(self):
        # a NaN row used to get a finite interval
        predictor = self._predictor(k=3).train(linear_regression_bag(10, seed=1))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                predictor.predict(np.array([[bad]]))
        with pytest.raises(ValueError, match="1 columns"):
            predictor.predict(np.zeros((1, 2)))

    def test_wrong_width_stream_rejected_before_any_step(self):
        # an empty stream of the wrong width used to give a zero report, while
        # CP and Venn raise
        predictor = self._predictor(k=3).train(linear_regression_bag(10, seed=1))
        before = predictor.bag
        for rows in (0, 2):
            with pytest.raises(ValueError, match="1 columns"):
                predictor.score_online(Bag.regression(np.zeros((rows, 3)), [0.0] * rows))
            assert predictor.bag is before
