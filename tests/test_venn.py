from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import gaussian_blobs
from conformal import (
    Bag,
    NearestNeighborTaxonomy,
    ProbabilityInterval,
    VennPredictor,
    VennTaxonomy,
)


class SingleCategory(VennTaxonomy):
    def train(self, bag):
        pass

    def category(self, x, y, contains_x):
        return "K"


class HypothesisCategory(VennTaxonomy):
    """Category equals the hypothesis label; exercises per-row categories."""

    def train(self, bag):
        pass

    def category(self, x, y, contains_x):
        return y


def brute_force_matrix(predictor, x):
    """Independent enumeration of the label distribution per hypothesis."""
    bag = predictor.bag
    labels = bag.label_space
    contains = any(np.array_equal(row, x) for row in bag.x)
    rows = []
    for hypothesis in labels:
        cat = predictor.taxonomy.category(x, hypothesis, contains)
        members = [hypothesis]
        for xi, yi in zip(bag.x, bag.y):
            if predictor.taxonomy.category(xi, yi, True) == cat:
                members.append(yi)
        counts = Counter(members)
        rows.append([counts[lbl] / len(members) for lbl in labels])
    return np.array(rows)


class TestWorkedExample:
    BAG = Bag.classification([[0.0], [1.0], [2.0]], ["A", "A", "B"])

    def test_matrix(self):
        predictor = VennPredictor(SingleCategory()).train(self.BAG)
        matrix = predictor.matrix(np.array([5.0]))
        np.testing.assert_allclose(matrix.rows, [[0.75, 0.25], [0.5, 0.5]])

    def test_prediction_and_interval(self):
        predictor = VennPredictor(SingleCategory()).train(self.BAG)
        labels, intervals = predictor.predict(np.array([[5.0]]))
        assert labels == ["A"]
        assert (intervals[0].low, intervals[0].high) == (pytest.approx(0.25), pytest.approx(0.5))

    def test_proba_flag_off(self):
        predictor = VennPredictor(SingleCategory()).train(self.BAG)
        out = predictor.predict(np.array([[5.0]]), proba=False)
        assert out == ["A"]


class TestEmptyBag:
    def test_identity_matrix_and_first_label(self):
        predictor = VennPredictor(NearestNeighborTaxonomy())
        predictor.train(Bag(np.empty((0, 1)), (), ("A", "B", "C")))
        matrix = predictor.matrix(np.array([0.0]))
        np.testing.assert_array_equal(matrix.rows, np.eye(3))
        labels, intervals = predictor.predict(np.array([[0.0]]))
        assert labels == ["A"]
        assert intervals[0].low == 0.0 and intervals[0].high == 1.0


class TestTrainValidation:
    def test_regression_bag_rejected(self):
        with pytest.raises(ValueError, match="classification"):
            VennPredictor(SingleCategory()).train(Bag.regression([[0.0]], [1.0]))

    def test_single_label_space_rejected(self):
        bag = Bag.classification([[0.0]], ["A"], ("A",))
        with pytest.raises(ValueError, match="two labels"):
            VennPredictor(SingleCategory()).train(bag)

    def test_append_semantics(self):
        predictor = VennPredictor(NearestNeighborTaxonomy())
        predictor.train(gaussian_blobs(10, seed=1))
        predictor.train(gaussian_blobs(5, seed=2))
        assert len(predictor.bag) == 15
        predictor.train(gaussian_blobs(4, seed=3), override=True)
        assert len(predictor.bag) == 4


class TestNearestNeighborTaxonomy:
    TRAIN = Bag.classification([[0.0], [1.0], [3.0]], ["A", "A", "B"])

    def _taxonomy(self):
        taxonomy = NearestNeighborTaxonomy()
        taxonomy.train(self.TRAIN)
        return taxonomy

    def test_new_observation(self):
        assert self._taxonomy().category(np.array([2.5]), "A", False) == "B"

    def test_training_point_maps_to_nearest_other(self):
        assert self._taxonomy().category(np.array([0.0]), "B", True) == "A"

    def test_hypothesis_label_ignored_when_neighbours_exist(self):
        taxonomy = self._taxonomy()
        assert taxonomy.category(np.array([2.9]), "A", False) == taxonomy.category(
            np.array([2.9]), "B", False
        )

    def test_singleton_bag_falls_back_to_own_label(self):
        taxonomy = NearestNeighborTaxonomy()
        taxonomy.train(Bag.classification([[1.0]], ["A"], ("A", "B")))
        assert taxonomy.category(np.array([1.0]), "B", True) == "B"

    def test_distance_tie_broken_by_index(self):
        taxonomy = NearestNeighborTaxonomy()
        taxonomy.train(Bag.classification([[1.0], [3.0]], ["A", "B"]))
        assert taxonomy.category(np.array([2.0]), "B", False) == "A"

    @pytest.mark.parametrize(
        "x, y, expected",
        [
            ([[0.0]], ["A"], ["A"]),
            ([[0.0], [0.0]], ["A", "B"], ["B", "B"]),
            ([[0.0], [1.0]], ["A", "B"], ["B", "A"]),
            # row 2 repeats row 0 under another label: its first zero-distance
            # occurrence is row 0, so it is its own nearest neighbour
            ([[0.0], [3.0], [0.0]], ["A", "B", "C"], ["C", "A", "C"]),
            ([[3.0], [0.0], [-0.0], [0.0]], ["A", "B", "C", "A"], ["B", "C", "C", "C"]),
        ],
    )
    def test_extend_skips_the_first_zero_distance_occurrence(self, x, y, expected):
        bag = Bag.classification(x, y, ("A", "B", "C"))
        taxonomy = NearestNeighborTaxonomy()
        assert taxonomy.extend(bag) == expected
        hypotheses = [(lbl,) for lbl in bag.y]
        assert [row[0] for row in taxonomy.categories(bag.x, hypotheses, np.ones(len(bag), bool))] == expected
        for cut in range(1, len(bag)):
            taxonomy.extend(bag.subset(range(cut)))
            assert taxonomy.extend(bag) == expected


class TestMatrixProperties:
    def test_rows_sum_to_one(self):
        predictor = VennPredictor(NearestNeighborTaxonomy()).train(gaussian_blobs(30, seed=4))
        for x in gaussian_blobs(50, seed=5).x:
            rows = predictor.matrix(x).rows
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
            assert np.all((rows >= 0.0) & (rows <= 1.0))

    def test_matches_brute_force_enumeration(self):
        for seed in range(8):
            bag = gaussian_blobs(int(np.random.default_rng(seed).integers(2, 11)), seed=seed)
            for taxonomy in (NearestNeighborTaxonomy(), HypothesisCategory()):
                predictor = VennPredictor(taxonomy).train(bag)
                for x in gaussian_blobs(6, seed=100 + seed).x:
                    np.testing.assert_allclose(
                        predictor.matrix(x).rows, brute_force_matrix(predictor, x), atol=1e-12
                    )

    def test_prediction_is_best_column_label(self):
        predictor = VennPredictor(NearestNeighborTaxonomy()).train(gaussian_blobs(25, seed=6))
        x_test = gaussian_blobs(20, seed=7).x
        labels, _ = predictor.predict(x_test)
        for x, label in zip(x_test, labels):
            rows = predictor.matrix(x).rows
            best = int(rows.min(axis=0).argmax())
            assert predictor.bag.label_space[best] == label

    def test_repeated_runs_identical(self):
        predictor = VennPredictor(NearestNeighborTaxonomy()).train(gaussian_blobs(20, seed=8))
        x_test = gaussian_blobs(10, seed=9).x
        first = predictor.predict(x_test)
        second = predictor.predict(x_test)
        assert first[0] == second[0]
        assert [(i.low, i.high) for i in first[1]] == [(i.low, i.high) for i in second[1]]


class TestScore:
    def test_perfect_predictions(self):
        bag = Bag.classification([[0.0], [0.1], [5.0], [5.1]], ["A", "A", "B", "B"])
        predictor = VennPredictor(NearestNeighborTaxonomy()).train(bag)
        test = Bag.classification([[0.05], [5.05]], ["A", "B"])
        report = predictor.score(test)
        assert report.accuracy == 1.0

    def test_interval_width_nonnegative(self):
        predictor = VennPredictor(NearestNeighborTaxonomy()).train(gaussian_blobs(30, seed=10))
        report = predictor.score(gaussian_blobs(40, seed=11))
        assert report.mean_interval_width >= 0.0
        assert 0.0 <= report.mean_error_low <= report.mean_error_high <= 1.0

    def test_online_appends(self):
        predictor = VennPredictor(NearestNeighborTaxonomy()).train(gaussian_blobs(10, seed=12))
        report = predictor.score_online(gaussian_blobs(15, seed=13))
        assert len(predictor.bag) == 25
        assert report.trials == 15

    def test_calibration_within_widened_interval(self):
        # empirical error should land inside the mean predicted error interval
        # widened by a three-sigma binomial margin
        predictor = VennPredictor(NearestNeighborTaxonomy())
        predictor.train(gaussian_blobs(30, seed=14, centers=((0, 0), (2.5, 2.5))))
        stream = gaussian_blobs(300, seed=15, centers=((0, 0), (2.5, 2.5)))
        report = predictor.score_online(stream)
        err = 1.0 - report.accuracy
        margin = 3.0 * np.sqrt(max(err * (1 - err), 0.25 / report.trials) / report.trials)
        assert report.mean_error_low - margin <= err <= report.mean_error_high + margin

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ProbabilityInterval(0.6, 0.4)
        with pytest.raises(ValueError):
            ProbabilityInterval(-0.1, 0.5)


class TestBatchedMatrices:
    """The cached label-count table and the batch taxonomy hook against the
    Counter oracle, bit for bit."""

    @staticmethod
    def duplicated_bag(seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, size=(24, 2)).astype(float)
        x[6:12] = x[:6]  # exact duplicates, some with different labels
        y = [("A", "B", "C")[i] for i in rng.integers(0, 3, size=24)]
        return Bag.classification(x, y, ("A", "B", "C"))

    def test_batch_matches_oracle_with_duplicates(self):
        for seed in range(5):
            bag = self.duplicated_bag(seed)
            for taxonomy in (NearestNeighborTaxonomy(), HypothesisCategory(), SingleCategory()):
                predictor = VennPredictor(taxonomy).train(bag)
                X = np.vstack([bag.x[:8], np.random.default_rng(seed).integers(-2, 3, (8, 2))])
                labels, intervals = predictor.predict(X)
                for x, label, interval in zip(X, labels, intervals):
                    expected = brute_force_matrix(predictor, x)
                    rows = predictor.matrix(x).rows
                    np.testing.assert_array_equal(rows, expected)
                    best = int(expected.min(axis=0).argmax())
                    assert label == bag.label_space[best]
                    assert (interval.low, interval.high) == (
                        1.0 - float(expected[:, best].max()), 1.0 - float(expected[:, best].min())
                    )

    def test_batch_hook_matches_category(self):
        bag = self.duplicated_bag(9)
        taxonomy = NearestNeighborTaxonomy()
        taxonomy.train(bag)
        X = np.vstack([bag.x, [[9.0, 9.0]]])
        contains = np.array([True] * len(bag) + [False])
        hypotheses = [("A", "C")] * len(X)
        batch = taxonomy.categories(X, hypotheses, contains)
        expected = [[taxonomy.category(x, y, c) for y in ys] for x, ys, c in zip(X, hypotheses, contains)]
        assert batch == expected

    def test_singleton_bag(self):
        bag = Bag.classification([[1.0]], ["A"], ("A", "B"))
        predictor = VennPredictor(NearestNeighborTaxonomy()).train(bag)
        for x in (np.array([1.0]), np.array([3.0])):
            np.testing.assert_array_equal(predictor.matrix(x).rows, brute_force_matrix(predictor, x))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-1, 1), min_size=n, max_size=n),
            st.lists(st.sampled_from("ABC"), min_size=n, max_size=n),
        )
    ),
    st.lists(st.integers(-1, 1), min_size=1, max_size=4),
)
def test_property_matrices_equal_oracle(bag_parts, queries):
    coords, labels = bag_parts
    bag = Bag.classification(np.array(coords, dtype=float)[:, None], labels, ("A", "B", "C"))
    predictor = VennPredictor(NearestNeighborTaxonomy()).train(bag)
    X = np.array(queries, dtype=float)[:, None]
    labels_out, _ = predictor.predict(X)
    for x, label in zip(X, labels_out):
        expected = brute_force_matrix(predictor, x)
        np.testing.assert_array_equal(predictor.matrix(x).rows, expected)
        assert label == bag.label_space[int(expected.min(axis=0).argmax())]


class TestInputValidation:
    def _predictor(self):
        return VennPredictor(NearestNeighborTaxonomy()).train(gaussian_blobs(20, seed=30))

    def test_non_finite_rows_rejected(self):
        predictor = self._predictor()
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                predictor.predict(np.array([[0.0, bad]]))
            with pytest.raises(ValueError, match="finite"):
                predictor.matrix(np.array([bad, 0.0]))

    def test_wrong_width_rejected(self):
        predictor = VennPredictor(NearestNeighborTaxonomy()).train(
            Bag.classification(np.eye(3), ["A", "B", "A"])
        )
        with pytest.raises(ValueError, match="3 columns"):
            predictor.matrix(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="3 columns"):
            predictor.predict(np.zeros((2, 2)))


class TestAtomicScoreOnline:
    def test_bad_label_leaves_bag_unchanged(self):
        predictor = VennPredictor(NearestNeighborTaxonomy()).train(gaussian_blobs(20, seed=31))
        before = predictor.bag
        x_probe = gaussian_blobs(5, seed=32).x
        expected = predictor.predict(x_probe)
        stream = gaussian_blobs(3, seed=33, centers=((0, 0), (2, 2), (4, 4)), labels=("A", "B", "C"))
        stream = Bag.classification(stream.x, ["A", "B", "C"], ("A", "B", "C"))
        with pytest.raises(ValueError, match="'C'.*outside the label space"):
            predictor.score_online(stream)
        assert predictor.bag is before and len(predictor.bag) == 20
        after = predictor.predict(x_probe)
        assert after[0] == expected[0]
        assert [(i.low, i.high) for i in after[1]] == [(i.low, i.high) for i in expected[1]]

    def test_wrong_width_stream_leaves_bag_unchanged(self):
        predictor = VennPredictor(NearestNeighborTaxonomy()).train(gaussian_blobs(20, seed=34))
        with pytest.raises(ValueError, match="2 columns"):
            predictor.score_online(Bag.classification(np.zeros((2, 3)), ["A", "B"]))
        assert len(predictor.bag) == 20


class TestTaxonomyWidth:
    def test_wrong_width_rejected(self):
        # a 2-feature row against a 3-feature bag used to be categorised on
        # its first two features
        taxonomy = NearestNeighborTaxonomy()
        taxonomy.train(Bag.classification(np.eye(3), ["A", "B", "A"]))
        for width in (2, 4):
            with pytest.raises(ValueError, match="3 columns"):
                taxonomy.category(np.zeros(width), "A", False)
            with pytest.raises(ValueError, match="3 columns"):
                taxonomy.categories(np.zeros((1, width)), [("A",)], np.array([False]))


LABELS = ("A", "B", "C")
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def grid_bags(draw):
    """Integer-grid bag with duplicate rows and distance ties, plus query rows
    (fresh grid rows and copies of bag rows)."""
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 2))
    coords = draw(st.lists(st.integers(-1, 1), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    bag = Bag.classification(np.array(coords, dtype=float).reshape(n, d), labels, LABELS)
    queries = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=4 * d))
    X = np.array(queries[: len(queries) // d * d], dtype=float).reshape(-1, d)
    return bag, np.vstack([X, bag.x])


@PROPERTY_SETTINGS
@given(grid_bags())
def test_property_matrix_rows_are_distributions(case):
    bag, X = case
    predictor = VennPredictor(NearestNeighborTaxonomy()).train(bag)
    for x in X:
        rows = predictor.matrix(x).rows
        assert rows.shape == (len(LABELS), len(LABELS))
        assert ((rows >= 0) & (rows <= 1)).all()
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # the hypothetical example always counts in its own row
        assert (np.diag(rows) > 0).all()


@st.composite
def tie_free_bags(draw):
    """Continuous bag, a permutation of it and query rows.  Its distances
    are distinct with probability one; the 1-NN taxonomy breaks distance
    ties by bag index, so on bags with ties a permutation may move an
    example to another category."""
    n = draw(st.integers(2, 16))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    bag = Bag.classification(rng.standard_normal((n, d)), labels, LABELS)
    perm = draw(st.permutations(range(n)))
    return bag, bag.subset(perm), np.vstack([rng.standard_normal((4, d)), bag.x])


@PROPERTY_SETTINGS
@given(tie_free_bags())
def test_property_matrix_invariant_under_permutation_of_tie_free_bag(case):
    bag, permuted, X = case
    a = VennPredictor(NearestNeighborTaxonomy()).train(bag)
    b = VennPredictor(NearestNeighborTaxonomy()).train(permuted)
    for x in X:
        np.testing.assert_array_equal(a.matrix(x).rows, b.matrix(x).rows)
    assert a.predict(X) == b.predict(X)


@st.composite
def absorbed_streams(draw):
    """A grid bag and a stream of fresh grid rows and copies of bag rows
    under any label, cut into chunks."""
    bag, X = draw(grid_bags())
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            rows.append(bag.x[draw(st.integers(0, len(bag) - 1))])
        else:
            rows.append(np.array(draw(st.lists(st.integers(-1, 1), min_size=bag.n_features,
                                               max_size=bag.n_features)), dtype=float))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=len(rows), max_size=len(rows)))
    stream = Bag.classification(np.vstack(rows), labels, LABELS)
    cuts = draw(st.sets(st.integers(1, len(stream) - 1), max_size=3)) if len(stream) > 1 else set()
    return bag, stream, [0, *sorted(cuts), len(stream)], X


@PROPERTY_SETTINGS
@given(absorbed_streams())
def test_property_incremental_equals_retrained_with_duplicate_rows(case):
    bag, stream, bounds, X = case
    venn = VennPredictor(NearestNeighborTaxonomy()).train(bag)
    merged = bag
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = stream.subset(range(lo, hi))
        venn.train(chunk)
        merged = merged.append(chunk)
        ref = VennPredictor(NearestNeighborTaxonomy()).train(merged)
        assert venn.taxonomy._fit[0].tolist() == ref.taxonomy._fit[0].tolist()
        rows = np.vstack([X, merged.x])
        for x in rows:
            np.testing.assert_array_equal(venn.matrix(x).rows, ref.matrix(x).rows)
        assert venn.predict(rows) == ref.predict(rows)
