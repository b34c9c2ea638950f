"""Property tests of the conformal classifiers and the regression conformal
predictor over small random bags.

Integer-grid features give many equal distances and equal scores, so the
tie handling of the counting is exercised on every draw.  Each classifier
property runs without a taxonomy and with ``label_taxonomy``.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conformal import (
    Bag,
    ConformalClassifier,
    ConformalRegressor,
    CpConfig,
    IcpConfig,
    InductiveConformalClassifier,
    KnnClassifierMeasure,
    KnnConfig,
    KnnRegressionProvider,
    ModelOutputAdapterConfig,
    ModelOutputMeasure,
    RrcmConfig,
    SeededRng,
    label_taxonomy,
)
from conformal.ncm import _pairwise_sq_dists

LABELS = ("A", "B", "C")
EPSILONS = (0.05, 0.1, 0.2, 0.35, 0.5)
SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def bags(draw, per_label=3):
    """A bag with at least ``per_label`` examples of every label, plus query rows."""
    n_labels = draw(st.integers(2, 3))
    n = draw(st.integers(per_label * n_labels, 18))
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


taxonomies = st.sampled_from([None, label_taxonomy])


def model_output_measure(weights, bag):
    """A measure whose scores do not depend on the training flag."""
    w = np.array(weights, dtype=float).reshape(2, 3)[: bag.n_features, : len(bag.label_space)]

    def predict(x):
        z = np.exp(x @ w)
        return z / z.sum(axis=1, keepdims=True)

    return ModelOutputMeasure(ModelOutputAdapterConfig(predict_fn=predict, scorer="diff"))


def cp_for(bag, taxonomy, smoothed=False, k=1):
    config = CpConfig(EPSILONS, smoothed=smoothed, taxonomy=taxonomy)
    return ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=k)), config).train(bag)


def icp_for(bag, taxonomy, smoothed=False):
    # every other example of each label is for proper training, the rest calibrate
    seen = {lbl: 0 for lbl in bag.label_space}
    proper, calibration = [], []
    for i, lbl in enumerate(bag.y):
        (proper if seen[lbl] % 2 == 0 else calibration).append(i)
        seen[lbl] += 1
    config = IcpConfig(EPSILONS, smoothed=smoothed, taxonomy=taxonomy)
    icp = InductiveConformalClassifier(KnnClassifierMeasure(), config)
    return icp.train(bag.subset(proper)).calibrate(bag.subset(calibration))


def assert_nested(sets, labels):
    for s in sets:
        for small, large in zip(EPSILONS, EPSILONS[1:]):
            assert set(s.labels_at(large)) <= set(s.labels_at(small))
            assert set(s.labels_at(small)) <= set(labels)


@SETTINGS
@given(bags(), taxonomies, st.lists(st.integers(-2, 2), min_size=6, max_size=6), st.integers(0, 99))
def test_icp_with_self_count_on_the_training_bag_equals_cp(bag_and_queries, taxonomy, weights, seed):
    bag, X = bag_and_queries
    for smoothed in (False, True):
        cp = ConformalClassifier(
            model_output_measure(weights, bag), CpConfig(EPSILONS, smoothed=smoothed, taxonomy=taxonomy)
        ).train(bag)
        icp = InductiveConformalClassifier(
            model_output_measure(weights, bag),
            IcpConfig(EPSILONS, smoothed=smoothed, taxonomy=taxonomy, include_test_in_count=True),
        )
        icp.train(bag).calibrate(bag)
        values = cp.p_values(X, SeededRng(seed)).values
        np.testing.assert_array_equal(values, icp.p_values(X, SeededRng(seed)).values)
        if not smoothed:
            np.testing.assert_array_equal(values, counted_p_values(cp.measure, bag, X, taxonomy))


def counted_p_values(measure, bag, X, taxonomy):
    """Unsmoothed CP p-values by direct counting over the training scores of
    the candidate's category, without the sorted store."""
    scores = measure.scores(bag, True)
    categories = [taxonomy(x, y) if taxonomy else 0 for x, y in zip(bag.x, bag.y)]
    out = np.empty((len(X), len(bag.label_space)))
    for i, x in enumerate(X):
        for j, (y, alpha) in enumerate(zip(bag.label_space, measure.score(x, bag.label_space))):
            cat = taxonomy(x, y) if taxonomy else 0
            same = scores[[c == cat for c in categories]]
            out[i, j] = ((same >= alpha).sum() + 1) / (len(same) + 1)
    return out


@SETTINGS
@given(bags(), taxonomies, st.booleans(), st.integers(1, 2))
def test_cp_p_values_in_unit_interval_and_sets_nested(bag_and_queries, taxonomy, smoothed, k):
    bag, X = bag_and_queries
    cp = cp_for(bag, taxonomy, smoothed, k)
    values = cp.p_values(X, SeededRng(3)).values
    assert np.all((values > 0) & (values <= 1))
    assert_nested(cp.predict(X, SeededRng(3)), bag.label_space)


@SETTINGS
@given(bags(per_label=4), taxonomies, st.booleans())
def test_literal_icp_p_values_in_closed_unit_interval_and_sets_nested(bag_and_queries, taxonomy, smoothed):
    bag, X = bag_and_queries
    icp = icp_for(bag, taxonomy, smoothed)
    values = icp.p_values(X, SeededRng(4)).values
    assert np.all((values >= 0) & (values <= 1))
    assert_nested(icp.predict(X, SeededRng(4)), bag.label_space)


@SETTINGS
@given(bags(), taxonomies, st.integers(1, 2), st.randoms(use_true_random=False))
def test_unsmoothed_cp_p_values_invariant_under_bag_permutation(bag_and_queries, taxonomy, k, random):
    bag, X = bag_and_queries
    order = list(range(len(bag)))
    random.shuffle(order)
    shuffled = bag.subset(order)
    np.testing.assert_array_equal(
        cp_for(bag, taxonomy, k=k).p_values(X).values,
        cp_for(shuffled, taxonomy, k=k).p_values(X).values,
    )


@st.composite
def exact_k_bags(draw):
    """A continuous bag in which one label, or the labels other than the
    first together, hold exactly k examples; the labels with k same-label
    and k other-label examples; query rows; and a calibration bag of those
    labels."""
    k = draw(st.integers(3, 4))
    split = draw(st.integers(0, k - 1))
    # (m, k): B holds exactly k and A's other labels number exactly k;
    # (m, split, k - split): B and C together hold exactly k
    counts = (draw(st.integers(k + 1, 2 * k + 3)), k) if split == 0 else (
        draw(st.integers(k, 2 * k + 3)), split, k - split)
    labels = LABELS[: len(counts)]
    y = draw(st.permutations([lbl for lbl, c in zip(labels, counts) for _ in range(c)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    bag = Bag.classification(rng.normal(size=(len(y), d)), y, labels)
    scored = tuple(lbl for lbl, c in zip(labels, counts) if k <= c <= len(y) - k)
    cal_y = [scored[i % len(scored)] for i in range(6)]
    calibration = Bag.classification(rng.normal(size=(6, d)), cal_y, labels)
    return k, bag, scored, rng.normal(size=(5, d)), calibration


@SETTINGS
@given(exact_k_bags(), st.randoms(use_true_random=False))
def test_knn_scores_bit_identical_under_bag_permutation_with_exactly_k(case, random):
    # a sum over exactly k neighbours must not depend on the bag's column order
    k, bag, labels, X, calibration = case
    order = list(range(len(bag)))
    random.shuffle(order)
    results = []
    for b in (bag, bag.subset(order)):
        measure = KnnClassifierMeasure(KnnConfig(k=k))
        measure.train(b)
        icp = InductiveConformalClassifier(KnnClassifierMeasure(KnnConfig(k=k)), IcpConfig(EPSILONS))
        store = icp.train(b).calibrate(calibration)._store
        results.append([measure.score_matrix(X, labels).tobytes()] + [s.tobytes() for s in store.values()])
    assert results[0] == results[1]


@st.composite
def tie_free_regression_bags(draw):
    """k, a continuous regression bag, a permutation of it and query rows,
    with all distances between distinct points distinct: the kNN provider
    breaks distance ties by bag index, so on bags with ties a permutation
    may pick other neighbours."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 16))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bag = Bag.regression(rng.standard_normal((n, d)), rng.standard_normal(n))
    X = rng.standard_normal((4, d))
    points = np.vstack([bag.x, X])
    upper = _pairwise_sq_dists(points, points)[np.triu_indices(len(points), 1)]
    assume(len(np.unique(upper)) == len(upper))
    return k, bag, bag.subset(draw(st.permutations(range(n)))), X


@SETTINGS
@given(tie_free_regression_bags(), st.booleans())
def test_rrcm_intervals_invariant_under_permutation_of_tie_free_bag(case, convex_hull):
    k, bag, permuted, X = case
    config = RrcmConfig(EPSILONS, convex_hull=convex_hull)
    a, b = (ConformalRegressor(KnnRegressionProvider(KnnConfig(k=k)), config).train(z) for z in (bag, permuted))
    assert [p.per_epsilon for p in a.predict(X)] == [p.per_epsilon for p in b.predict(X)]
