import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import conformal.cli as cli
import conformal.ncm as ncm
from _support import sq_dists_oracle
from conformal import (
    Bag,
    CartConfig,
    DecisionTreeMeasure,
    KnnClassifierMeasure,
    KnnConfig,
    KnnRegressionProvider,
    ModelOutputAdapterConfig,
    ModelOutputMeasure,
    NearestNeighborTaxonomy,
    cart_score,
    cart_train,
    knn_regression_coeffs,
    knn_regression_coeffs_n,
    knn_score_per_label,
    knn_scores,
    model_output_score,
)
from conformal.ncm import HUGE_SCORE

K1 = KnnConfig(k=1)

TRAIN_1D = Bag.classification([[0.0], [1.0], [3.0]], ["A", "A", "B"])


def one(x, label):
    return Bag.classification([[x]], [label], TRAIN_1D.label_space)


@st.composite
def distance_inputs(draw, n_bag=st.integers(1, 40), d=st.integers(1, 20)):
    """(queries, bag): up to three fresh rows of values spread over up to
    ``2 * spread`` decades (or on an integer grid), then copies of bag rows,
    whose distances to those rows must be exactly 0."""
    n, d, m = draw(n_bag), draw(d), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.integers(0, 6))
    if draw(st.booleans()):
        rows = rng.integers(-2, 3, size=(m + n, d)).astype(float)
    else:
        rows = rng.standard_normal((m + n, d)) * 10.0 ** rng.uniform(-spread, spread, size=(m + n, d))
    copies = draw(st.lists(st.integers(0, n - 1), min_size=1 if m == 0 else 0, max_size=2))
    bag = rows[m:]
    return np.vstack([rows[:m], bag[copies]]), bag


@st.composite
def signed_wide_inputs(draw):
    """:func:`distance_inputs` scaled per feature up to about 1e150, with
    entries of 0.0, -0.0 and +-5e-324, then copies of bag rows whose zeros
    have the other sign."""
    queries, bag = draw(distance_inputs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.integers(-150, 143, size=bag.shape[1])
    queries, bag = queries * scale, bag * scale
    special = rng.random(bag.shape) < 0.2
    bag[special] = rng.choice([0.0, -0.0, 5e-324, -5e-324], size=bag.shape)[special]
    copies = bag[draw(st.lists(st.integers(0, len(bag) - 1), max_size=3))]
    copies[copies == 0] *= -1
    return np.vstack([queries, copies]), bag


def assert_oracle_distances(queries, bag):
    got = ncm._pairwise_sq_dists(queries, bag)
    np.testing.assert_array_equal(got, sq_dists_oracle(queries, bag))
    same = (queries[:, None, :] == bag[None, :, :]).all(axis=2)
    assert (got[same] == 0).all()


class TestDistanceKernel:
    """Both paths of ``_sq_dists_to`` add the squared feature differences in
    feature order, so they equal the per-feature oracle bit for bit."""

    # every input with a bag of two or more rows on the single reduce, or none
    PATHS = {"reduce": 1 << 62, "loop": -1}

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=distance_inputs())
    def test_equals_per_feature_oracle(self, path, inputs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ncm, "_REDUCE_ENTRIES", self.PATHS[path])
            assert_oracle_distances(*inputs)

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=signed_wide_inputs())
    def test_bitwise_symmetric(self, path, inputs):
        # fl(a - b) = -fl(b - a), and both paths add the squares in feature
        # order, so the fits may take d(j, i) as the transpose of d(i, j)
        a, b = inputs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ncm, "_REDUCE_ENTRIES", self.PATHS[path])
            ab = ncm._sq_dists_to(a, ncm._feature_rows(b))
            ba = ncm._sq_dists_to(b, ncm._feature_rows(a))
        assert ab.shape == ba.T.shape and ab.tobytes() == ba.T.tobytes()

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=distance_inputs(n_bag=st.just(1), d=st.integers(8, 40)))
    def test_one_row_bag_keeps_the_loop(self, inputs):
        # numpy sums a reduction over one contiguous column pairwise
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ncm, "_REDUCE_ENTRIES", self.PATHS["reduce"])
            assert_oracle_distances(*inputs)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_both_sides_of_the_default_size_rule(self, extra):
        rng = np.random.default_rng(extra)
        d, n = 16, ncm._REDUCE_ENTRIES // 32 + extra  # two query rows
        bag = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        assert_oracle_distances(np.vstack([rng.standard_normal((1, d)), bag[:1]]), bag)

    # numpy's default 8192-element buffer spans rows of fewer than 8192 / 3
    # bag columns; the loop's own buffer is smaller than any of these widths
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("n", [2730, 2731, 2732, 8200])
    def test_widths_around_the_buffer(self, path, n):
        rng = np.random.default_rng(n)
        d = 5
        bag = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        queries = np.vstack([rng.standard_normal((2, d)), bag[[0, n - 1]]])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ncm, "_REDUCE_ENTRIES", self.PATHS[path])
            assert_oracle_distances(queries, bag)

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("n", [1, 7])
    def test_no_features_give_zero_distances(self, path, n):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ncm, "_REDUCE_ENTRIES", self.PATHS[path])
            got = ncm._sq_dists_to(np.empty((3, 0)), np.empty((0, n)))
        assert got.shape == (3, n) and got.tobytes() == np.zeros((3, n)).tobytes()

    def test_loop_restores_the_buffer_size(self, monkeypatch):
        rng = np.random.default_rng(3)
        a, b_rows = rng.standard_normal((4, 3)), rng.standard_normal((3, 50))
        monkeypatch.setattr(ncm, "_REDUCE_ENTRIES", -1)
        caller = np.setbufsize(4096)
        try:
            ncm._sq_dists_to(a, b_rows)
            assert np.getbufsize() == 4096

            seen = []

            def failing_multiply(*args, **kwargs):
                seen.append(np.getbufsize())
                raise FloatingPointError("injected")

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np, "multiply", failing_multiply)
                with pytest.raises(FloatingPointError, match="injected"):
                    ncm._sq_dists_to(a, b_rows)
            assert seen == [ncm._LOOP_BUFSIZE] and np.getbufsize() == 4096
        finally:
            np.setbufsize(caller)

    def test_reduce_path_keeps_the_caller_buffer(self, monkeypatch):
        rng = np.random.default_rng(4)
        seen = []
        multiply = np.multiply

        def spy(*args, **kwargs):
            seen.append(np.getbufsize())
            return multiply(*args, **kwargs)

        monkeypatch.setattr(np, "multiply", spy)
        ncm._sq_dists_to(rng.standard_normal((1, 3)), rng.standard_normal((3, 50)))
        assert seen == [np.getbufsize()]


@st.composite
def knn_queries(draw):
    """(queries, bag, label codes, k) for the two-stage query: 2-8 query
    rows and 1-40 bag rows in 0, 1 or 16 features, on an integer grid (ties
    at every k-th place) or spread, offset by 1e8, tiny (1e-160, some
    entries subnormal) or large enough that stage 1 could overflow while the
    kernel does not; duplicate bag rows and queries that copy bag rows; up
    to 4 label groups, some smaller than k."""
    d, n = draw(st.sampled_from([0, 1, 16])), draw(st.integers(1, 40))
    m, k = draw(st.integers(2, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "spread", "offset", "tiny", "large"]))
    if kind == "grid":
        rows = rng.integers(-2, 3, size=(m + n, d)).astype(float)
    else:
        rows = rng.standard_normal((m + n, d))
    if kind == "offset":
        rows += 1e8
    elif kind == "tiny":
        rows *= 1e-160
        rows[rng.random(rows.shape) < 0.2] *= 1e-150
    elif kind == "large":
        # |a - b| <= 2M keeps every distance finite, but the centred norms
        # pass the bound below which no stage-1 term can overflow
        big = np.sqrt(np.finfo(float).max / (6 * max(d, 1)))
        rows = big * rng.uniform(0.5, 1.0, size=rows.shape) * rng.choice([-1.0, 1.0], size=rows.shape)
    bag = rows[m:]
    bag[draw(st.lists(st.integers(0, n - 1), max_size=3))] = bag[0]
    queries = rows[:m]
    copies = draw(st.lists(st.integers(0, n - 1), max_size=m))
    queries[: len(copies)] = bag[copies]
    codes = rng.integers(0, draw(st.integers(1, 4)), size=n)
    return queries, bag, codes, k


def stable_oracle(queries, bag, groups, k):
    """Per row and group, the k nearest (squared distance, column) pairs of
    the kernel's whole block by a stable argsort, padded with (inf, -1)."""
    sq = ncm._pairwise_sq_dists(queries, bag)
    vals = np.full((len(queries), len(groups), k), np.inf)
    idx = np.full(vals.shape, -1)
    for g, cols in enumerate(groups):
        pick = np.argsort(sq[:, cols], axis=1, kind="stable")[:, :k]
        vals[:, g, : pick.shape[1]] = np.take_along_axis(sq[:, cols], pick, axis=1)
        idx[:, g, : pick.shape[1]] = cols[pick]
    return vals, idx


class TestTwoStageQuery:
    """Batch k-nearest queries through the matrix-product bound and the
    per-feature refinement give the bits of the kernel's whole block."""

    PATHS = {"exact": 1 << 62, "two-stage": 0}

    def run(self, path, query):
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a fallback is silent
            patch.setattr(ncm, "_TWO_STAGE_ENTRIES", self.PATHS[path])
            return query()

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=knn_queries())
    def test_equals_the_stable_oracle(self, case):
        queries, bag, codes, k = case
        groups = ncm._label_columns(codes)
        rows = ncm._feature_rows(bag)
        by_label = stable_oracle(queries, bag, list(groups.values()), k + 1)
        for path in self.PATHS:
            # the k smallest per label group, and k + 1 (the own-row exclusion)
            for width in (k, k + 1):
                vals, idx, _ = self.run(path, lambda: ncm._Neighbours(rows, groups).smallest(queries, width))
                assert idx is None and vals.tobytes() == by_label[0][:, :, :width].tobytes()
            # the k nearest by (distance, index), and the two nearest
            for width in (k, 2):
                vals, idx, _ = self.run(path, lambda: ncm._Neighbours(rows).smallest(queries, width, index=True))
                oracle = stable_oracle(queries, bag, [np.arange(len(bag))], width)
                assert vals.tobytes() == oracle[0].tobytes() and np.array_equal(idx, oracle[1])

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_argmin_passes_equal_a_stable_argsort(self, k):
        # the whole-block (distance, index) selection, also where kernel
        # distances overflowed to infinity
        rng = np.random.default_rng(k)
        for width in (1, k, 3 * k + 5):
            block = rng.integers(0, 4, size=(30, width)).astype(float)
            block[rng.random(block.shape) < 0.3] = np.inf
            vals, cols = ncm._argmin_passes(block, k)
            want = np.argsort(block, axis=1, kind="stable")[:, :k]
            assert np.array_equal(cols, want)
            assert vals.tobytes() == np.take_along_axis(block, want, axis=1).tobytes()

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=knn_queries())
    def test_consumers_agree_with_the_exact_path(self, case):
        queries, bag, codes, k = case
        labels = tuple("ABCD"[c] for c in codes)
        training = Bag.classification(bag, labels, tuple("ABCD"))
        target = Bag.classification(np.vstack([queries, bag]), labels[:1] * len(queries) + labels, tuple("ABCD"))
        got = {}
        for path in self.PATHS:
            out = []
            for own in (False, True):
                of = training if own else target
                try:
                    out.append(self.run(path, lambda: knn_scores(KnnConfig(k=k), training, of, own)).tobytes())
                except ValueError as exc:
                    out.append(str(exc))
            taxonomy = NearestNeighborTaxonomy()
            taxonomy.train(training)
            contains = np.arange(len(target)) % 2 == 0
            out.append(self.run(path, lambda: taxonomy.categories(target.x, [("A", "B")] * len(target), contains)))
            vote = cli._KnnBase(KnnConfig(k=k))
            vote.fit(bag, labels)
            out.append(self.run(path, lambda: vote.predict(target.x)))
            got[path] = out
        assert got["exact"] == got["two-stage"]


class TestKnnScores:
    def test_hand_computed_ratio(self):
        # z=(2.5, B): same-label distance 0.5, other-label 1.5
        assert knn_scores(K1, TRAIN_1D, one(2.5, "B"), False)[0] == pytest.approx(1 / 3)

    def test_equidistant_point(self):
        assert knn_scores(K1, TRAIN_1D, one(2.0, "B"), False)[0] == pytest.approx(1.0)

    def test_self_removal_on_training_example(self):
        # z1=(0, A): without removal the same-label distance would be 0
        alpha = knn_scores(K1, TRAIN_1D, one(0.0, "A"), True)[0]
        assert alpha == pytest.approx(1 / 3)
        assert knn_scores(K1, TRAIN_1D, one(0.0, "A"), False)[0] == 0.0

    def test_whole_training_bag(self):
        bag = Bag.classification([[0.0], [1.0], [4.0], [5.0]], ["A", "A", "B", "B"])
        alphas = knn_scores(K1, bag, bag, True)
        np.testing.assert_allclose(alphas, [1 / 4, 1 / 3, 1 / 3, 1 / 4])

    def test_zero_over_zero_is_zero(self):
        bag = Bag.classification([[0.0], [0.0], [0.0], [0.0]], ["A", "A", "B", "B"])
        np.testing.assert_array_equal(knn_scores(K1, bag, bag, True), np.zeros(4))

    def test_zero_denominator_sentinel(self):
        # same-label distance positive, other-label distance exactly zero
        training = Bag.classification([[0.0], [5.0]], ["A", "B"])
        target = Bag.classification([[5.0]], ["A"], ("A", "B"))
        assert knn_scores(K1, training, target, False)[0] == HUGE_SCORE

    def test_deficient_group_errors(self):
        # B has one member, so self-removal leaves it without same-label neighbours
        with pytest.raises(ValueError, match="'B'.*same-label"):
            knn_scores(K1, TRAIN_1D, TRAIN_1D, True)
        lonely = Bag.classification([[0.0], [1.0]], ["A", "A"], ("A", "B"))
        with pytest.raises(ValueError, match="other-label"):
            knn_scores(K1, lonely, Bag.classification([[2.0]], ["A"], ("A", "B")), False)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 3))
        y = ["A" if i % 2 else "B" for i in range(20)]
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        bag = Bag.classification(x, y)
        rotated = Bag.classification(x @ q, y)
        np.testing.assert_allclose(
            knn_scores(KnnConfig(k=2), bag, bag, True),
            knn_scores(KnnConfig(k=2), rotated, rotated, True),
            atol=1e-9,
        )

    def test_moving_other_labels_away_decreases_alpha(self):
        near = Bag.classification([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "B", "B"])
        far = Bag.classification([[0.0], [1.0], [20.0], [30.0]], ["A", "A", "B", "B"])
        target = one(0.5, "A")
        assert knn_scores(K1, far, target, False)[0] < knn_scores(K1, near, target, False)[0]


class TestKnnScorePerLabel:
    def test_both_labels_equidistant(self):
        np.testing.assert_allclose(
            knn_score_per_label(K1, TRAIN_1D, np.array([2.0]), ("A", "B")), [1.0, 1.0]
        )

    def test_coincident_point_scores_zero(self):
        alphas = knn_score_per_label(K1, TRAIN_1D, np.array([0.0]), ("A", "B"))
        assert alphas[0] == 0.0
        # hypothesis B puts the zero distance in the denominator instead
        assert alphas[1] == HUGE_SCORE

    def test_single_label_training_errors(self):
        lonely = Bag.classification([[0.0], [1.0]], ["A", "A"], ("A", "B"))
        with pytest.raises(ValueError, match="neighbour"):
            knn_score_per_label(K1, lonely, np.array([0.5]), ("A", "B"))

    def test_measure_wrapper_matches_functions(self):
        bag = Bag.classification([[0.0], [1.0], [4.0], [5.0]], ["A", "A", "B", "B"])
        measure = KnnClassifierMeasure(K1)
        measure.train(bag)
        np.testing.assert_array_equal(
            measure.score(np.array([2.5]), ("A", "B")),
            knn_score_per_label(K1, bag, np.array([2.5]), ("A", "B")),
        )
        np.testing.assert_array_equal(measure.scores(bag, True), knn_scores(K1, bag, bag, True))


class TestKnnRegressionCoeffs:
    def test_hand_computed_with_tie_rule(self):
        bag = Bag.regression([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        a, b = knn_regression_coeffs(K1, bag, bag, True)
        # x=1 ties between x=0 and x=2; ascending index picks x=0
        np.testing.assert_allclose(a, [-1.0, 1.0, 1.0])
        np.testing.assert_array_equal(b, np.zeros(3))

    def test_equal_labels_give_zero(self):
        bag = Bag.regression([[0.0], [1.0], [2.0]], [5.0, 5.0, 5.0])
        a, _ = knn_regression_coeffs(KnnConfig(k=2), bag, bag, True)
        np.testing.assert_allclose(a, np.zeros(3))

    def test_b_is_zero_for_bag_and_one_for_new(self):
        bag = Bag.regression([[0.0], [1.0], [2.0]], [0.0, 1.0, 4.0])
        _, b = knn_regression_coeffs(K1, bag, bag, True)
        assert set(b.tolist()) == {0.0}
        _, b_new = knn_regression_coeffs_n(K1, bag, np.array([0.7]))
        assert b_new == 1.0

    def test_coeffs_n_negated_mean(self):
        bag = Bag.regression([[0.0], [9.0]], [5.0, -100.0])
        assert knn_regression_coeffs_n(K1, bag, np.array([1.0])) == (-5.0, 1.0)
        two = Bag.regression([[0.0], [1.0]], [1.0, 3.0])
        assert knn_regression_coeffs_n(KnnConfig(k=2), two, np.array([0.5])) == (-2.0, 1.0)

    def test_too_few_neighbours_errors(self):
        bag = Bag.regression([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(ValueError, match="neighbours"):
            knn_regression_coeffs(KnnConfig(k=2), bag, bag, True)
        with pytest.raises(ValueError, match="neighbours"):
            knn_regression_coeffs_n(KnnConfig(k=3), bag, np.array([0.0]))

    def test_provider_wrapper(self):
        bag = Bag.regression([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        provider = KnnRegressionProvider(K1)
        provider.train(bag)
        a, b = provider.coeffs(bag, True)
        np.testing.assert_allclose(a, [-1.0, 1.0, 1.0])
        assert provider.coeffs_n(np.array([1.9])) == (-2.0, 1.0)

    def test_wrong_width_rejected(self):
        # a 2-feature row against a 3-feature bag used to get coefficients
        # from its first two features
        bag = Bag.regression(np.eye(3), [0.0, 1.0, 2.0])
        provider = KnnRegressionProvider(K1)
        provider.train(bag)
        for width in (2, 4):
            with pytest.raises(ValueError, match="3 columns"):
                provider.coeffs_n(np.zeros(width))
            with pytest.raises(ValueError, match="3 columns"):
                knn_regression_coeffs_n(K1, bag, np.zeros(width))


class TestCart:
    def test_pure_bag_single_leaf(self):
        bag = Bag.classification([[0.0], [1.0], [2.0]], ["A", "A", "A"])
        tree = cart_train(CartConfig(max_depth=5), bag)
        assert tree.root.is_leaf

    def test_separable_depth_one(self):
        bag = Bag.classification([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "B", "B"])
        tree = cart_train(CartConfig(max_depth=3), bag)
        assert tree.root.feature == 0
        assert tree.root.threshold == pytest.approx(1.5)
        assert tree.root.left.is_leaf and tree.root.right.is_leaf

    def test_depth_cap_leaves_impure(self):
        xor = Bag.classification([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                                 ["A", "B", "B", "A"])
        tree = cart_train(CartConfig(max_depth=1), xor)
        assert not tree.root.is_leaf
        assert tree.root.left.is_leaf and tree.root.right.is_leaf
        assert tree.root.left.counts.max() < tree.root.left.counts.sum()

    def test_min_leaf_respected(self):
        bag = Bag.classification([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "A", "B"])
        tree = cart_train(CartConfig(max_depth=3, min_leaf=2), bag)

        def smallest_leaf(node):
            if node.is_leaf:
                return node.counts.sum()
            return min(smallest_leaf(node.left), smallest_leaf(node.right))

        assert smallest_leaf(tree.root) >= 2

    def test_deterministic_structure(self):
        rng = np.random.default_rng(11)
        bag = Bag.classification(rng.standard_normal((40, 3)),
                                 [("A", "B", "C")[i % 3] for i in range(40)])
        t1 = cart_train(CartConfig(max_depth=4), bag)
        t2 = cart_train(CartConfig(max_depth=4), bag)

        def signature(node):
            if node.is_leaf:
                return ("leaf", tuple(node.counts))
            return (node.feature, node.threshold, signature(node.left), signature(node.right))

        assert signature(t1.root) == signature(t2.root)

    def test_threshold_tie_takes_smaller_value(self):
        # boundaries at 0.5 and 2.5 tie on impurity; the smaller wins
        bag = Bag.classification([[0.0], [1.0], [2.0], [3.0]], ["A", "B", "A", "B"])
        tree = cart_train(CartConfig(max_depth=1), bag)
        assert tree.root.threshold == pytest.approx(0.5)

    def test_feature_tie_takes_smaller_index(self):
        bag = Bag.classification([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
                                 ["A", "A", "B", "B"])
        tree = cart_train(CartConfig(max_depth=1), bag)
        assert tree.root.feature == 0

    def test_regression_bag_rejected(self):
        with pytest.raises(ValueError, match="classification"):
            cart_train(CartConfig(max_depth=2), Bag.regression([[0.0]], [1.0]))

    def test_scores(self):
        bag = Bag.classification([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "B", "B"])
        tree = cart_train(CartConfig(max_depth=3), bag)
        assert cart_score(tree, [0.5], "A") == 0.0
        assert cart_score(tree, [0.5], "B") == 1.0
        mixed = Bag.classification([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "A", "B"])
        stump = cart_train(CartConfig(max_depth=1, min_leaf=4), mixed)
        assert cart_score(stump, [9.0], "A") == pytest.approx(0.25)

    def test_measure_wrapper(self):
        bag = Bag.classification([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "B", "B"])
        measure = DecisionTreeMeasure(CartConfig(max_depth=2))
        measure.train(bag)
        np.testing.assert_array_equal(measure.scores(bag, True), np.zeros(4))
        np.testing.assert_array_equal(measure.score(np.array([2.9]), ("A", "B")), [1.0, 0.0])


class TestModelOutputAdapter:
    CFG = dict(predict_fn=lambda x: None)

    def test_diff_preset(self):
        cfg = ModelOutputAdapterConfig(scorer="diff", **self.CFG)
        assert model_output_score(cfg, [0.7, 0.2, 0.1], 0) == pytest.approx(-0.5)

    def test_sum_preset(self):
        cfg = ModelOutputAdapterConfig(scorer="sum", gamma=0.0, **self.CFG)
        assert model_output_score(cfg, [0.7, 0.2, 0.1], 0) == pytest.approx(0.3 / 0.7)

    def test_max_preset(self):
        cfg = ModelOutputAdapterConfig(scorer="max", gamma=0.1, **self.CFG)
        assert model_output_score(cfg, [0.4, 0.2, 0.1], 0) == pytest.approx(0.2 / 0.5)

    def test_one_hot_diff(self):
        cfg = ModelOutputAdapterConfig(scorer="diff", **self.CFG)
        assert model_output_score(cfg, [0.0, 0.9, 0.0], 1) == pytest.approx(-0.9)

    def test_zero_denominator_errors(self):
        cfg = ModelOutputAdapterConfig(scorer="sum", gamma=0.0, **self.CFG)
        with pytest.raises(ValueError, match="gamma"):
            model_output_score(cfg, [0.0, 1.0], 0)

    def test_negative_scores_rejected_for_ratio_presets(self):
        cfg = ModelOutputAdapterConfig(scorer="max", gamma=1.0, **self.CFG)
        with pytest.raises(ValueError, match="nonnegative"):
            model_output_score(cfg, [-0.1, 1.0], 1)

    def test_external_scorer(self):
        cfg = ModelOutputAdapterConfig(scorer=lambda o, j: 42.0 + j, **self.CFG)
        assert model_output_score(cfg, [0.5, 0.5], 1) == 43.0

    def test_measure_end_to_end(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])

        def predict(x):
            z = np.exp(x @ w.T)
            return z / z.sum(axis=1, keepdims=True)

        bag = Bag.classification([[2.0, 0.0], [0.0, 2.0]], ["A", "B"])
        measure = ModelOutputMeasure(ModelOutputAdapterConfig(predict_fn=predict, scorer="diff"))
        measure.train(bag)
        alphas = measure.scores(bag, True)
        assert np.all(alphas < 0)  # confident correct outputs are conforming
        per_label = measure.score(np.array([2.0, 0.0]), ("A", "B"))
        assert per_label[0] < 0 < per_label[1]

    def test_shape_mismatch_detected(self):
        measure = ModelOutputMeasure(
            ModelOutputAdapterConfig(predict_fn=lambda x: np.ones((len(x), 3)), scorer="diff")
        )
        measure.train(Bag.classification([[0.0]], ["A"], ("A", "B")))
        with pytest.raises(ValueError, match="shape"):
            measure.scores(Bag.classification([[0.0]], ["A"], ("A", "B")), False)

    def test_train_fn_called(self):
        calls = []
        cfg = ModelOutputAdapterConfig(
            predict_fn=lambda x: np.ones((len(x), 2)),
            scorer="diff",
            train_fn=lambda x, y: calls.append(len(y)),
        )
        ModelOutputMeasure(cfg).train(Bag.classification([[0.0], [1.0]], ["A", "B"]))
        assert calls == [2]
