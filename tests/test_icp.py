import numpy as np
import pytest

from _support import gaussian_blobs
from conformal import (
    Bag,
    ConformalClassifier,
    CpConfig,
    IcpConfig,
    InductiveConformalClassifier,
    KnnClassifierMeasure,
    ModelOutputAdapterConfig,
    ModelOutputMeasure,
    NonconformityMeasure,
    SeededRng,
    label_taxonomy,
)


class StubMeasure(NonconformityMeasure):
    def __init__(self, calibration_scores, per_label):
        self.calibration_scores = np.asarray(calibration_scores, dtype=float)
        self.per_label = np.asarray(per_label, dtype=float)

    def train(self, bag):
        pass

    def scores(self, bag, is_training_bag):
        return self.calibration_scores[: len(bag)]

    def score(self, x, label_space):
        return self.per_label


BAG3 = Bag.classification([[0.0], [1.0], [2.0]], ["A", "A", "B"])


def stub_icp(calibration_scores, per_label, **cfg):
    icp = InductiveConformalClassifier(
        StubMeasure(calibration_scores, per_label), IcpConfig(**{"epsilons": (0.25,), **cfg})
    )
    return icp.train(BAG3).calibrate(BAG3)


class TestCounting:
    def test_literal_formula(self):
        table = stub_icp([1, 2, 3], [2, 99]).p_values(np.zeros((1, 1)))
        # two calibration scores >= 2 over 3 + 1
        assert table.values[0, 0] == pytest.approx(0.5)

    def test_above_max_gives_zero(self):
        table = stub_icp([1, 2, 3], [99, 99]).p_values(np.zeros((1, 1)))
        assert table.values[0, 0] == 0.0

    def test_at_or_below_min_gives_c_over_c_plus_one(self):
        table = stub_icp([1, 2, 3], [1, 0.5]).p_values(np.zeros((1, 1)))
        assert table.values[0, 0] == pytest.approx(3 / 4)
        assert table.values[0, 1] == pytest.approx(3 / 4)

    def test_include_test_switch_adds_one(self):
        table = stub_icp([1, 2, 3], [2, 99], include_test_in_count=True).p_values(np.zeros((1, 1)))
        assert table.values[0, 0] == pytest.approx(0.75)
        assert table.values[0, 1] == pytest.approx(0.25)

    def test_bounds_of_literal_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.integers(0, 5, size=8).astype(float)
            alpha = float(rng.integers(0, 5))
            icp = stub_icp(scores.tolist()[:3], [alpha, alpha])
            p = icp.p_values(np.zeros((1, 1))).values[0, 0]
            assert 0.0 <= p <= 3 / 4

    def test_binary_search_matches_linear_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            c = int(rng.integers(1, 12))
            scores = rng.integers(0, 6, size=c).astype(float)
            alpha = float(rng.integers(0, 6))
            icp = InductiveConformalClassifier(
                StubMeasure(scores, [alpha]), IcpConfig(epsilons=(0.5,))
            )
            single = Bag.classification([[0.0]] * c, ["A"] * c, ("A",))
            icp.train(single).calibrate(single)
            p = icp.p_values(np.zeros((1, 1))).values[0, 0]
            expected = int((scores >= alpha).sum()) / (c + 1)
            assert p == pytest.approx(expected)

    def test_inserting_smaller_score_only_grows_denominator(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = int(rng.integers(2, 10))
            scores = np.sort(rng.uniform(1.0, 2.0, size=c))
            alpha = float(rng.uniform(1.0, 2.0))
            smaller = float(rng.uniform(0.0, alpha - 1e-9))

            def p_of(cal):
                icp = InductiveConformalClassifier(
                    StubMeasure(np.asarray(cal), [alpha]), IcpConfig(epsilons=(0.5,))
                )
                bag = Bag.classification([[0.0]] * len(cal), ["A"] * len(cal), ("A",))
                return icp.train(bag).calibrate(bag).p_values(np.zeros((1, 1))).values[0, 0]

            numerator = int((scores >= alpha).sum())
            assert p_of(scores) == pytest.approx(numerator / (c + 1))
            assert p_of(np.append(scores, smaller)) == pytest.approx(numerator / (c + 2))

    def test_equal_score_insertion_order_unobservable(self):
        a = InductiveConformalClassifier(StubMeasure([2, 1, 2], [2, 2]), IcpConfig(epsilons=(0.5,)))
        b = InductiveConformalClassifier(StubMeasure([2, 2, 1], [2, 2]), IcpConfig(epsilons=(0.5,)))
        for icp in (a, b):
            icp.train(BAG3).calibrate(BAG3)
        np.testing.assert_array_equal(
            a.p_values(np.zeros((1, 1)), SeededRng(5)).values,
            b.p_values(np.zeros((1, 1)), SeededRng(5)).values,
        )


class TestCalibrationStore:
    def test_fresh_train_has_no_scores(self):
        icp = InductiveConformalClassifier(KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,)))
        icp.train(gaussian_blobs(20, seed=1))
        assert icp.calibration_count == 0

    def test_calibrate_stores_one_score_per_example(self):
        icp = InductiveConformalClassifier(KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,)))
        icp.train(gaussian_blobs(20, seed=1))
        icp.calibrate(gaussian_blobs(7, seed=2))
        assert icp.calibration_count == 7

    def test_calibrate_appends_by_default(self):
        icp = InductiveConformalClassifier(KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,)))
        icp.train(gaussian_blobs(20, seed=1))
        icp.calibrate(gaussian_blobs(7, seed=2))
        icp.calibrate(gaussian_blobs(5, seed=3))
        assert icp.calibration_count == 12

    def test_calibrate_override_replaces(self):
        icp = InductiveConformalClassifier(KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,)))
        icp.train(gaussian_blobs(20, seed=1))
        icp.calibrate(gaussian_blobs(7, seed=2))
        icp.calibrate(gaussian_blobs(5, seed=3), override=True)
        assert icp.calibration_count == 5

    def test_train_override_discards_calibration(self):
        icp = InductiveConformalClassifier(KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,)))
        icp.train(gaussian_blobs(20, seed=1))
        icp.calibrate(gaussian_blobs(7, seed=2))
        icp.train(gaussian_blobs(10, seed=4))
        assert icp.calibration_count == 0

    def test_retrain_then_recalibrate_equals_fresh_classifier(self):
        # calibration scores of the first fit must not be counted against
        # test scores of the second
        config = IcpConfig(epsilons=(0.1,), smoothed=True, taxonomy=label_taxonomy)
        icp = InductiveConformalClassifier(KnnClassifierMeasure(), config)
        icp.train(gaussian_blobs(20, seed=1)).calibrate(gaussian_blobs(50, seed=2))
        proper, calibration = gaussian_blobs(200, seed=4), gaussian_blobs(30, seed=5)
        icp.train(proper)
        assert len(icp.bag) == 200 and icp.calibration_count == 0
        icp.calibrate(calibration)
        fresh = InductiveConformalClassifier(KnnClassifierMeasure(), config)
        fresh.train(proper).calibrate(calibration)
        X = gaussian_blobs(25, seed=6).x
        got, want = icp.p_values(X, SeededRng(3)), fresh.p_values(X, SeededRng(3))
        assert got.values.tobytes() == want.values.tobytes()
        np.testing.assert_array_equal(got.empty_category, want.empty_category)

    def test_calibrate_before_train_rejected(self):
        icp = InductiveConformalClassifier(KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,)))
        with pytest.raises(ValueError, match="not trained"):
            icp.calibrate(gaussian_blobs(5, seed=2))

    def test_store_is_sorted(self):
        icp = InductiveConformalClassifier(KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,)))
        icp.train(gaussian_blobs(30, seed=1))
        icp.calibrate(gaussian_blobs(9, seed=2))
        icp.calibrate(gaussian_blobs(9, seed=3))
        for scores in icp._store.values():
            assert np.all(np.diff(scores) >= 0)


class TestEmptyCategory:
    def test_empty_category_flagged_with_p_one(self):
        icp = InductiveConformalClassifier(
            KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,), taxonomy=label_taxonomy)
        )
        bag = gaussian_blobs(20, seed=5)
        only_a = bag.subset([i for i, y in enumerate(bag.y) if y == "A"])
        icp.train(bag)
        icp.calibrate(only_a)
        table = icp.p_values(bag.x[:3])
        col_b = list(table.labels).index("B")
        assert np.all(table.values[:, col_b] == 1.0)
        assert np.all(table.empty_category[:, col_b])
        assert not np.any(table.empty_category[:, 1 - col_b])


class TestPredictAndScore:
    def test_threshold_rule(self):
        sets = stub_icp([1, 2, 3], [2, 99]).predict(np.zeros((1, 1)))
        assert sets[0].labels_at(0.25) == ("A",)

    def test_nestedness(self):
        bag = gaussian_blobs(80, seed=6)
        train, cal = bag.subset(range(40)), bag.subset(range(40, 80))
        icp = InductiveConformalClassifier(
            KnnClassifierMeasure(), IcpConfig(epsilons=(0.05, 0.2, 0.5), smoothed=True)
        )
        icp.train(train).calibrate(cal)
        for pred in icp.predict(gaussian_blobs(30, seed=7).x, SeededRng(1)):
            assert set(pred.labels_at(0.5)) <= set(pred.labels_at(0.2)) <= set(pred.labels_at(0.05))

    def test_score_report(self):
        bag = gaussian_blobs(100, seed=8)
        icp = InductiveConformalClassifier(
            KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,), smoothed=True)
        )
        icp.train(bag.subset(range(50))).calibrate(bag.subset(range(50, 100)))
        report = icp.score(gaussian_blobs(60, seed=9), SeededRng(2))
        assert report.trials == 60
        assert 0.0 <= report.per_epsilon[0.1].err_rate <= 0.35


class TestAgreementWithCp:
    def _flag_free_measure(self):
        rng = np.random.default_rng(77)
        w = rng.standard_normal((2, 2))

        def predict(x):
            z = np.exp(np.clip(x @ w, -30, 30))
            return z / z.sum(axis=1, keepdims=True)

        return ModelOutputMeasure(ModelOutputAdapterConfig(predict_fn=predict, scorer="diff"))

    def test_literal_formula_differs_by_exactly_the_self_count(self):
        # calibration = training bag: same counts except the +1 term
        for seed in range(5):
            bag = gaussian_blobs(20, seed=300 + seed)
            x_test = gaussian_blobs(6, seed=400 + seed).x
            cp = ConformalClassifier(
                self._flag_free_measure(), CpConfig(epsilons=(0.1,))
            ).train(bag)
            icp = InductiveConformalClassifier(
                self._flag_free_measure(), IcpConfig(epsilons=(0.1,))
            )
            icp.train(bag).calibrate(bag)
            difference = cp.p_values(x_test).values - icp.p_values(x_test).values
            np.testing.assert_allclose(difference, 1 / (len(bag) + 1), atol=1e-12)

    def test_predict_best_matches_cp_contract(self):
        icp = stub_icp([1, 2, 3], [2, 99])
        labels, significance = icp.predict_best(np.zeros((1, 1)))
        assert labels == ["A"]
        assert significance[0] == pytest.approx(0.0)  # label B scored above everything
        assert icp.predict_best(np.zeros((1, 1)), with_significance=False) == ["A"]

    def test_icp_with_switch_matches_offline_cp(self):
        # the measure must not depend on the training flag for this identity
        for seed in range(10):
            bag = gaussian_blobs(25, seed=100 + seed)
            x_test = gaussian_blobs(8, seed=200 + seed).x
            cp = ConformalClassifier(
                self._flag_free_measure(), CpConfig(epsilons=(0.1,), smoothed=True)
            ).train(bag)
            icp = InductiveConformalClassifier(
                self._flag_free_measure(),
                IcpConfig(epsilons=(0.1,), smoothed=True, include_test_in_count=True),
            )
            icp.train(bag).calibrate(bag)
            a = cp.p_values(x_test, SeededRng(seed)).values
            b = icp.p_values(x_test, SeededRng(seed)).values
            np.testing.assert_array_equal(a, b)


class TestInputValidation:
    def test_non_finite_rows_rejected(self):
        # an inf row used to get p = 0
        icp = InductiveConformalClassifier(KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,)))
        bag = gaussian_blobs(30, seed=50)
        icp.train(bag.subset(range(20))).calibrate(bag.subset(range(20, 30)))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                icp.p_values(np.array([[bad, 0.0]]))
        with pytest.raises(ValueError, match="2 columns"):
            icp.p_values(np.zeros(2))

    def test_wrong_width_calibration_rejected(self):
        # a 2-feature calibration bag used to be scored on the first two of
        # three features, and a 4-feature one raised IndexError
        three = ((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        icp = InductiveConformalClassifier(KnnClassifierMeasure(), IcpConfig(epsilons=(0.1,)))
        icp.train(gaussian_blobs(20, seed=51, centers=three))
        for width in (2, 4):
            with pytest.raises(ValueError, match="3 columns"):
                icp.calibrate(Bag.classification(np.zeros((10, width)), ["A", "B"] * 5))
        assert icp.calibration_count == 0


class TestFiniteScoreContract:
    def test_non_finite_calibration_score_rejected_before_merging(self):
        icp = stub_icp([1, 2, 3], [2, 99])
        store = {cat: s.copy() for cat, s in icp._store.items()}
        icp.measure.calibration_scores = np.array([1.0, np.nan, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            icp.calibrate(BAG3)
        assert icp.calibration_count == 3
        assert icp._store.keys() == store.keys()
        assert all(np.array_equal(icp._store[cat], s) for cat, s in store.items())

    def test_non_finite_candidate_score_rejected(self):
        # a non-finite candidate score used to get a p-value instead of an error
        for bad in (np.nan, np.inf):
            icp = stub_icp([1, 2, 3], [bad, 1.0])
            with pytest.raises(ValueError, match="non-finite"):
                icp.p_values(np.zeros((1, 1)))
