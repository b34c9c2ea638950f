"""Batched read paths against their one-row and scalar references, bit for bit.

``score_matrix`` must equal the stacked ``score`` rows, and the batched
p-value counting must equal the scalar ``sorted_score_counts`` +
``p_value_from_counts`` reference, so that batching changes no output.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _support import gaussian_blobs, p_value_from_counts, sorted_score_counts
from conformal import (
    Bag,
    CartConfig,
    ConformalClassifier,
    CpConfig,
    DecisionTreeMeasure,
    IcpConfig,
    InductiveConformalClassifier,
    KnnClassifierMeasure,
    KnnConfig,
    ModelOutputAdapterConfig,
    ModelOutputMeasure,
    SeededRng,
    constant_taxonomy,
    knn_score_per_label,
    knn_scores,
    label_taxonomy,
)

LABELS = ("A", "B", "C")


def tied_bag(n, seed, d=2, labels=LABELS):
    """Integer-grid bag: many equal distances, and its second quarter repeats the first."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(n, d)).astype(float)
    x[n // 4: 2 * (n // 4)] = x[: n // 4]
    y = [labels[i % len(labels)] for i in rng.permutation(n)]
    return Bag.classification(x, y, labels)


def query_rows(bag, seed, m=12):
    """Fresh grid rows plus copies of bag rows (zero distances)."""
    rng = np.random.default_rng(seed)
    fresh = rng.integers(-2, 3, size=(m, bag.n_features)).astype(float)
    return np.vstack([fresh, bag.x[:4], bag.x[:2]])


def stacked_scores(measure, X, labels):
    return np.vstack([measure.score(x, labels) for x in X])


def counted_bag(counts, seed, d=2):
    """Integer-grid bag with ``counts[i]`` examples of ``LABELS[i]``, in
    shuffled order; its second quarter repeats the first."""
    bag = tied_bag(sum(counts), seed, d)
    y = [lbl for lbl, c in zip(LABELS, counts) for _ in range(c)]
    y = [y[i] for i in np.random.default_rng(seed).permutation(len(y))]
    return Bag.classification(bag.x, y, LABELS[: len(counts)])


def selection_bags(k):
    """Bags whose label groups sit at the edges of the shared selection: a
    group of exactly k and of k + 1 examples, and other labels that together
    number exactly k (one label of k; two labels of k - 1 and 1)."""
    bags = [tied_bag(60, seed) for seed in range(4)]
    bags += [counted_bag((k, 2 * k + 3, k + 4), 5), counted_bag((k + 1, k + 3, 2 * k), 6)]
    bags.append(counted_bag((2 * k, k), 7))
    if k >= 2:
        bags.append(counted_bag((2 * k + 1, k - 1, 1), 8))
    return bags


class TestScoreMatrix:
    @pytest.mark.parametrize("k", [1, 3, 8, 9])
    def test_knn_equals_stacked_score_and_knn_scores(self, k):
        for i, bag in enumerate(selection_bags(k)):
            # the candidate labels with k same-label and k other-label examples
            labels = tuple(lbl for lbl in bag.label_space if k <= bag.y.count(lbl) <= len(bag) - k)
            X = query_rows(bag, 100 + i)
            measure = KnnClassifierMeasure(KnnConfig(k=k))
            measure.train(bag)
            batch = measure.score_matrix(X, labels)
            assert batch.shape == (len(X), len(labels))
            np.testing.assert_array_equal(batch, stacked_scores(measure, X, labels))
            # independent path: the bag scorer on a one-example target per label
            reference = np.array([
                [knn_scores(KnnConfig(k=k), bag, Bag.classification([x], [lbl], bag.label_space), False)[0]
                 for lbl in labels]
                for x in X
            ])
            np.testing.assert_array_equal(batch, reference)
            np.testing.assert_array_equal(
                batch[0], knn_score_per_label(KnnConfig(k=k), bag, X[0], labels)
            )

    def test_knn_chunked_block_equals_one_block(self, monkeypatch):
        import conformal.ncm as ncm

        bag = tied_bag(40, 7)
        X = query_rows(bag, 8, m=30)
        measure = KnnClassifierMeasure(KnnConfig(k=3))
        measure.train(bag)
        whole = measure.score_matrix(X, LABELS)
        monkeypatch.setattr(ncm, "_BLOCK_ENTRIES", 3 * len(bag))  # three rows per chunk
        np.testing.assert_array_equal(measure.score_matrix(X, LABELS), whole)

    def test_knn_label_order_and_deficient_label(self):
        bag = tied_bag(30, 3)
        measure = KnnClassifierMeasure(KnnConfig(k=1))
        measure.train(bag)
        X = query_rows(bag, 4)
        forward = measure.score_matrix(X, LABELS)
        np.testing.assert_array_equal(measure.score_matrix(X, LABELS[::-1]), forward[:, ::-1])
        with pytest.raises(ValueError, match="'Z'.*same-label"):
            measure.score_matrix(X, ("A", "Z"))

    def test_cart_default_loops_over_score(self):
        bag = gaussian_blobs(40, seed=2)
        measure = DecisionTreeMeasure(CartConfig(max_depth=3))
        measure.train(bag)
        X = gaussian_blobs(15, seed=3).x
        np.testing.assert_array_equal(
            measure.score_matrix(X, bag.label_space), stacked_scores(measure, X, bag.label_space)
        )

    def test_model_output_default_loops_over_score(self):
        def predict(x):
            z = np.exp(np.clip(x, -30, 30))
            return z / z.sum(axis=1, keepdims=True)

        bag = gaussian_blobs(20, seed=4)
        measure = ModelOutputMeasure(ModelOutputAdapterConfig(predict_fn=predict, scorer="max", gamma=0.1))
        measure.train(bag)
        X = gaussian_blobs(9, seed=5).x
        np.testing.assert_array_equal(
            measure.score_matrix(X, bag.label_space), stacked_scores(measure, X, bag.label_space)
        )

    def test_empty_batch(self):
        measure = KnnClassifierMeasure()
        measure.train(tied_bag(12, 1))
        assert measure.score_matrix(np.empty((0, 2)), LABELS).shape == (0, 3)


def reference_p_values(store, taxonomy, X, labels, alpha, taus, include_test=True):
    """Scalar loop over every (row, label) pair, as the classifiers counted before batching."""
    vals = np.empty(alpha.shape)
    empty = np.zeros(alpha.shape, dtype=bool)
    for i, x in enumerate(X):
        for j, y in enumerate(labels):
            cat = taxonomy(x, y) if taxonomy is not None else constant_taxonomy(x, y)
            stored = store.get(cat, np.empty(0))
            gt, eq = sorted_score_counts(stored, alpha[i, j])
            tau = None if taus is None else taus[i, j]
            vals[i, j] = p_value_from_counts(gt, eq, len(stored), tau, include_test=include_test)
            empty[i, j] = len(stored) == 0
    return vals, empty


def taus_for(seed, shape, smoothed):
    return SeededRng(seed).uniform(shape[0] * shape[1]).reshape(shape) if smoothed else None


class TestBatchedPValues:
    @pytest.mark.parametrize("smoothed", [False, True])
    @pytest.mark.parametrize("taxonomy", [None, label_taxonomy])
    @pytest.mark.parametrize("k", [1, 3])
    def test_cp_matches_scalar_reference(self, smoothed, taxonomy, k):
        for seed in range(3):
            bag = tied_bag(45, seed)
            X = query_rows(bag, 50 + seed)
            cp = ConformalClassifier(
                KnnClassifierMeasure(KnnConfig(k=k)),
                CpConfig(epsilons=(0.1,), smoothed=smoothed, taxonomy=taxonomy),
            ).train(bag)
            table = cp.p_values(X, SeededRng(seed))
            alpha = stacked_scores(cp.measure, X, LABELS)
            expected, _ = reference_p_values(
                cp._store, taxonomy, X, LABELS, alpha,
                taus_for(seed, alpha.shape, smoothed),
            )
            np.testing.assert_array_equal(table.values, expected)
            assert table.empty_category is None

    @pytest.mark.parametrize("include_test", [False, True])
    @pytest.mark.parametrize("smoothed", [False, True])
    def test_icp_matches_scalar_reference_with_empty_flags(self, include_test, smoothed):
        for seed in range(3):
            bag = tied_bag(60, seed)
            proper = bag.subset(range(40))
            # calibration without label C: every (row, C) pair hits an empty category
            calibration = bag.subset([i for i in range(40, 60) if bag.y[i] != "C"])
            X = query_rows(bag, 70 + seed)
            icp = InductiveConformalClassifier(
                KnnClassifierMeasure(KnnConfig(k=2)),
                IcpConfig(epsilons=(0.1,), smoothed=smoothed, taxonomy=label_taxonomy,
                          include_test_in_count=include_test),
            )
            icp.train(proper).calibrate(calibration)
            table = icp.p_values(X, SeededRng(seed))
            alpha = stacked_scores(icp.measure, X, LABELS)
            expected, empty = reference_p_values(
                icp._store, label_taxonomy, X, LABELS, alpha,
                taus_for(seed, alpha.shape, smoothed), include_test,
            )
            expected[empty] = 1.0
            np.testing.assert_array_equal(table.values, expected)
            np.testing.assert_array_equal(table.empty_category, empty)
            assert empty[:, LABELS.index("C")].all() and not empty[:, :2].any()

    def test_rows_do_not_depend_on_the_batch(self):
        bag = tied_bag(40, 11)
        X = query_rows(bag, 12)
        cp = ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=3)), CpConfig(epsilons=(0.1,)))
        cp.train(bag)
        whole = cp.p_values(X).values
        np.testing.assert_array_equal(whole, np.vstack([cp.p_values(x[None, :]).values for x in X]))


@st.composite
def small_bags(draw):
    n_labels = draw(st.integers(2, 3))
    n = draw(st.integers(3 * n_labels, 16))
    d = draw(st.integers(1, 2))
    coords = draw(st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d))
    codes = draw(st.permutations([i % n_labels for i in range(n)]))
    queries = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=5 * d))
    labels = LABELS[:n_labels]
    bag = Bag.classification(
        np.array(coords, dtype=float).reshape(n, d), [labels[c] for c in codes], labels
    )
    X = np.array(queries[: len(queries) // d * d], dtype=float).reshape(-1, d)
    return bag, np.vstack([X, bag.x[:2]])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_bags(), st.integers(1, 2), st.booleans())
def test_property_batched_cp_equals_scalar_reference(bag_and_queries, k, smoothed):
    bag, X = bag_and_queries
    labels = bag.label_space
    cp = ConformalClassifier(
        KnnClassifierMeasure(KnnConfig(k=k)),
        CpConfig(epsilons=(0.1,), smoothed=smoothed, taxonomy=label_taxonomy),
    ).train(bag)
    alpha = stacked_scores(cp.measure, X, labels)
    np.testing.assert_array_equal(cp.measure.score_matrix(X, labels), alpha)
    expected, _ = reference_p_values(
        cp._store, label_taxonomy, X, labels, alpha, taus_for(5, alpha.shape, smoothed)
    )
    np.testing.assert_array_equal(cp.p_values(X, SeededRng(5)).values, expected)
