import numpy as np
import pytest

from _support import gaussian_blobs
from conformal import (
    Bag,
    ConformalClassifier,
    CpConfig,
    KnnClassifierMeasure,
    KnnConfig,
    ModelOutputAdapterConfig,
    ModelOutputMeasure,
    NonconformityMeasure,
    SeededRng,
    constant_taxonomy,
    label_taxonomy,
)
from conformal.cp import sets_from_p_values


class StubMeasure(NonconformityMeasure):
    """Fixed per-example scores and per-label scores, for exact counting checks."""

    def __init__(self, cached, per_label):
        self.cached = np.asarray(cached, dtype=float)
        self.per_label = np.asarray(per_label, dtype=float)

    def train(self, bag):
        pass

    def scores(self, bag, is_training_bag):
        return self.cached[: len(bag)]

    def score(self, x, label_space):
        return self.per_label


class OnesRng:
    """Stream of taus fixed at 1, to check the smoothing degeneracy."""

    def uniform(self, count):
        return np.ones(count)


BAG3 = Bag.classification([[0.0], [1.0], [2.0]], ["A", "A", "B"])


def stub_cp(cached, per_label, **cfg):
    classifier = ConformalClassifier(
        StubMeasure(cached, per_label), CpConfig(**{"epsilons": (0.5,), **cfg})
    )
    return classifier.train(BAG3)


class TestPValues:
    def test_counting_includes_test_example(self):
        table = stub_cp([1, 2, 3], [2, 99]).p_values(np.zeros((1, 1)))
        # two cached scores >= 2, plus the candidate itself, over 4
        assert table.values[0, 0] == pytest.approx(0.75)

    def test_lower_bound_when_strictly_largest(self):
        table = stub_cp([1, 2, 3], [99, 99]).p_values(np.zeros((1, 1)))
        assert table.values[0, 0] == pytest.approx(1 / 4)

    def test_tau_one_recovers_unsmoothed_on_distinct_scores(self):
        plain = stub_cp([1, 2, 3], [2, 99]).p_values(np.zeros((1, 1)))
        smooth = stub_cp([1, 2, 3], [2, 99], smoothed=True).p_values(np.zeros((1, 1)), OnesRng())
        np.testing.assert_allclose(smooth.values, plain.values)

    def test_smoothed_needs_rng(self):
        with pytest.raises(ValueError, match="SeededRng"):
            stub_cp([1, 2, 3], [2], smoothed=True).p_values(np.zeros((1, 1)))

    def test_smoothed_bounds(self):
        classifier = stub_cp([1, 1, 2], [1, 2], smoothed=True)
        rng = SeededRng(0)
        values = np.concatenate(
            [classifier.p_values(np.zeros((1, 1)), rng).values.ravel() for _ in range(200)]
        )
        assert np.all(values > 0.0) and np.all(values <= 1.0)

    def test_unsmoothed_values_on_the_counting_lattice(self):
        bag = gaussian_blobs(23, seed=14)
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        cp.train(bag)
        values = cp.p_values(gaussian_blobs(15, seed=15).x).values
        scaled = values * (len(bag) + 1)
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)
        assert np.all(values >= 1 / (len(bag) + 1)) and np.all(values <= 1.0)

    def test_monotone_in_alpha_new(self):
        cached = [0.5, 1.0, 1.0, 2.0]
        bag = Bag.classification([[0.0]] * 4, ["A"] * 4, ("A",))
        previous = 1.1
        for alpha in (0.0, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0):
            cp = ConformalClassifier(StubMeasure(cached, [alpha]), CpConfig(epsilons=(0.5,)))
            cp.train(bag)
            p = cp.p_values(np.zeros((1, 1))).values[0, 0]
            assert p <= previous + 1e-12
            previous = p


class TestPredict:
    def test_threshold_rule(self):
        sets = stub_cp([1, 2, 3], [2, 4]).predict(np.zeros((1, 1)))
        assert sets[0].labels_at(0.5) == ("A",)

    def test_tiny_epsilon_keeps_all_labels(self):
        cp = stub_cp([1, 2, 3], [99, 99], epsilons=(0.01,))
        assert cp.predict(np.zeros((1, 1)))[0].labels_at(0.01) == ("A", "B")

    def test_nested_sets(self):
        bag = gaussian_blobs(60, seed=1)
        cp = ConformalClassifier(
            KnnClassifierMeasure(KnnConfig(k=1)),
            CpConfig(epsilons=(0.05, 0.2, 0.5), smoothed=True),
        )
        cp.train(bag)
        rng = SeededRng(2)
        for pred in cp.predict(gaussian_blobs(40, seed=3).x, rng):
            s_small = set(pred.labels_at(0.05))
            s_mid = set(pred.labels_at(0.2))
            s_large = set(pred.labels_at(0.5))
            assert s_large <= s_mid <= s_small


class TestPredictBest:
    def test_best_and_significance(self):
        labels, sig = stub_cp([1, 2, 3], [2, 4]).predict_best(np.zeros((1, 1)))
        assert labels == ["A"]
        assert sig[0] == pytest.approx(0.25)

    def test_tie_takes_first_label(self):
        labels = stub_cp([1, 2, 3], [2, 2]).predict_best(np.zeros((1, 1)), with_significance=False)
        assert labels == ["A"]

    def test_single_label_space_significance_zero(self):
        bag = Bag.classification([[0.0], [1.0]], ["A", "A"], ("A",))
        cp = ConformalClassifier(StubMeasure([1, 2], [1.5]), CpConfig(epsilons=(0.5,)))
        cp.train(bag)
        labels, sig = cp.predict_best(np.zeros((1, 1)))
        assert labels == ["A"] and sig[0] == 0.0


class TestTrainSemantics:
    def test_append_grows_scores(self):
        measure = KnnClassifierMeasure(KnnConfig(k=1))
        cp = ConformalClassifier(measure, CpConfig(epsilons=(0.1,)))
        cp.train(gaussian_blobs(20, seed=4))
        assert len(cp.bag) == 20
        cp.train(gaussian_blobs(5, seed=5))
        assert len(cp.bag) == 25

    def test_override_replaces(self):
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        cp.train(gaussian_blobs(20, seed=4))
        cp.train(gaussian_blobs(8, seed=5), override=True)
        assert len(cp.bag) == 8

    def test_empty_bag_rejected(self):
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        with pytest.raises(ValueError, match="empty"):
            cp.train(Bag(np.empty((0, 1)), (), ()))

    def test_regression_bag_rejected(self):
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        with pytest.raises(ValueError, match="classification"):
            cp.train(Bag.regression([[0.0]], [1.0]))

    def test_untrained_predict_rejected(self):
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        with pytest.raises(ValueError, match="not trained"):
            cp.p_values(np.zeros((1, 1)))


class TestPermutationInvariance:
    def test_unsmoothed_outputs_invariant(self):
        rng = np.random.default_rng(9)
        bag = gaussian_blobs(30, seed=9)
        shuffled = bag.subset(rng.permutation(len(bag)))
        config = CpConfig(epsilons=(0.05, 0.2))
        x_test = gaussian_blobs(10, seed=10).x
        a = ConformalClassifier(KnnClassifierMeasure(), config).train(bag).p_values(x_test)
        b = ConformalClassifier(KnnClassifierMeasure(), config).train(shuffled).p_values(x_test)
        np.testing.assert_array_equal(a.values, b.values)


class TestScore:
    def test_full_sets_never_err(self):
        bag = gaussian_blobs(40, seed=6)
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.001,)))
        cp.train(bag)
        report = cp.score(gaussian_blobs(30, seed=7))
        assert report.per_epsilon[0.001].err_rate == 0.0

    def test_offline_error_rate_in_band(self):
        cp = ConformalClassifier(
            KnnClassifierMeasure(), CpConfig(epsilons=(0.1,), smoothed=True)
        )
        cp.train(gaussian_blobs(400, seed=8))
        report = cp.score(gaussian_blobs(400, seed=18), SeededRng(3))
        assert 0.03 <= report.per_epsilon[0.1].err_rate <= 0.17

    def test_empty_test_rejected(self):
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        cp.train(gaussian_blobs(20, seed=4))
        with pytest.raises(ValueError, match="empty"):
            cp.score(Bag(np.empty((0, 2)), (), ("A", "B")))

    def test_unknown_test_label_rejected(self):
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        cp.train(gaussian_blobs(20, seed=4))
        bad = Bag.classification([[0.0, 0.0]], ["Z"])
        with pytest.raises(ValueError, match="outside the label space"):
            cp.score(bad)


class TestScoreOnline:
    def test_empty_stream_zero_trials(self):
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        cp.train(gaussian_blobs(20, seed=4))
        report = cp.score_online(Bag(np.empty((0, 2)), (), ("A", "B")))
        assert report.trials == 0

    def test_bag_grows_by_stream_length(self):
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        cp.train(gaussian_blobs(20, seed=4))
        cp.score_online(gaussian_blobs(15, seed=5))
        assert len(cp.bag) == 35

    def test_absorbing_keeps_the_label_order(self):
        # the p-value columns follow the label space; a step must not reorder it
        blobs = gaussian_blobs(20, seed=4)
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        cp.train(Bag.classification(blobs.x, blobs.y, ("B", "A")))
        assert cp.p_values(blobs.x[:2]).labels == ("B", "A")
        cp.score_online(gaussian_blobs(1, seed=5))
        assert cp.bag.label_space == ("B", "A")
        assert cp.p_values(blobs.x[:2]).labels == ("B", "A")

    def test_online_error_rate_in_band(self):
        cp = ConformalClassifier(
            KnnClassifierMeasure(), CpConfig(epsilons=(0.1,), smoothed=True)
        )
        cp.train(gaussian_blobs(20, seed=40))
        report = cp.score_online(gaussian_blobs(500, seed=41), SeededRng(4))
        assert 0.04 <= report.per_epsilon[0.1].err_rate <= 0.16


class TestMondrian:
    def test_constant_taxonomy_matches_unconditional(self):
        bag = gaussian_blobs(50, seed=12)
        x_test = gaussian_blobs(20, seed=13).x
        plain = ConformalClassifier(
            KnnClassifierMeasure(), CpConfig(epsilons=(0.1,), smoothed=True)
        ).train(bag)
        conditional = ConformalClassifier(
            KnnClassifierMeasure(),
            CpConfig(epsilons=(0.1,), smoothed=True, taxonomy=constant_taxonomy),
        ).train(bag)
        a = plain.p_values(x_test, SeededRng(7)).values
        b = conditional.p_values(x_test, SeededRng(7)).values
        np.testing.assert_array_equal(a, b)

    def test_label_taxonomy_counts_within_label(self):
        # categories are the hypothesis labels: counting splits by column
        bag = Bag.classification([[0.0], [1.0], [10.0], [11.0]], ["A", "A", "B", "B"])
        cached = [1.0, 2.0, 5.0, 6.0]

        class PerLabel(StubMeasure):
            def score(self, x, label_space):
                return np.array([1.5, 5.5])

        cp = ConformalClassifier(
            PerLabel(cached, None), CpConfig(epsilons=(0.5,), taxonomy=label_taxonomy)
        )
        cp.train(bag)
        table = cp.p_values(np.zeros((1, 1)))
        # label A: among cached scores of A-examples {1,2}: one >= 1.5 -> (1+1)/3
        assert table.values[0, 0] == pytest.approx(2 / 3)
        # label B: among {5,6}: one >= 5.5 -> (1+1)/3
        assert table.values[0, 1] == pytest.approx(2 / 3)


class TestTransductiveExact:
    def test_empty_reference_bag_gives_p_one(self):
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.25,)))
        cp.train(Bag(np.empty((0, 1)), (), ("A", "B")))
        pred = cp.predict_transductive_exact(np.array([0.0]))
        assert pred.labels_at(0.25) == ("A", "B")
        table = cp.p_values(np.zeros((1, 1)))
        np.testing.assert_array_equal(table.values, [[1.0, 1.0]])

    def test_exact_mode_permutation_invariant(self):
        rng = np.random.default_rng(20)
        bag = gaussian_blobs(16, seed=20)
        shuffled = bag.subset(rng.permutation(len(bag)))
        config = CpConfig(epsilons=(0.1, 0.3))
        x = np.array([[0.5, 0.5]])
        a = ConformalClassifier(KnnClassifierMeasure(), config).train(bag).exact_p_values(x)
        b = ConformalClassifier(KnnClassifierMeasure(), config).train(shuffled).exact_p_values(x)
        np.testing.assert_array_equal(a.values, b.values)

    def test_exact_close_to_offline_on_continuous_data(self):
        # the two p-values score against different reference sets, so only
        # approximate agreement is expected
        agreements = 0
        trials = 0
        for seed in range(6):
            bag = gaussian_blobs(20, seed=30 + seed, centers=((0, 0), (3, 3)))
            cp = ConformalClassifier(
                KnnClassifierMeasure(), CpConfig(epsilons=(0.1, 0.3))
            ).train(bag)
            for x in gaussian_blobs(10, seed=60 + seed, centers=((0, 0), (3, 3))).x:
                sets_a = cp.predict(x[None, :])[0]
                sets_b = sets_from_p_values(cp.exact_p_values(x[None, :]), (0.1, 0.3))[0]
                for eps in (0.1, 0.3):
                    trials += 1
                    agreements += sets_a.labels_at(eps) == sets_b.labels_at(eps)
        assert agreements / trials >= 0.8


    def test_exact_batch_rows_equal_one_row_sets(self):
        bag = gaussian_blobs(12, seed=31)
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.2,))).train(bag)
        x = gaussian_blobs(3, seed=32).x
        direct = [cp.predict_transductive_exact(row) for row in x]
        batch = sets_from_p_values(cp.exact_p_values(x), (0.2,))
        assert [p.labels_at(0.2) for p in direct] == [p.labels_at(0.2) for p in batch]


class TestInputValidation:
    def test_non_finite_rows_rejected(self):
        # a NaN row used to get p = 1/21 for every label
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        cp.train(gaussian_blobs(20, seed=40))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                cp.p_values(np.array([[0.0, 0.0], [bad, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            cp.predict_transductive_exact(np.array([np.nan, 0.0]))

    def test_wrong_width_rejected(self):
        cp = ConformalClassifier(KnnClassifierMeasure(), CpConfig(epsilons=(0.1,)))
        cp.train(gaussian_blobs(20, seed=40))
        with pytest.raises(ValueError, match="2 columns"):
            cp.p_values(np.zeros((1, 3)))


class TestAtomicScoreOnline:
    def _trained(self):
        return ConformalClassifier(
            KnnClassifierMeasure(), CpConfig(epsilons=(0.1,))
        ).train(gaussian_blobs(20, seed=41))

    def test_bad_label_leaves_bag_unchanged(self):
        # the bag used to grow by the elements before the bad one
        cp = self._trained()
        before = cp.bag
        probe = gaussian_blobs(5, seed=42).x
        expected = cp.p_values(probe).values
        stream = Bag.classification(np.zeros((3, 2)), ["A", "B", "C"], ("A", "B", "C"))
        with pytest.raises(ValueError, match="'C'.*outside the label space"):
            cp.score_online(stream)
        assert cp.bag is before and len(cp.bag) == 20
        np.testing.assert_array_equal(cp.p_values(probe).values, expected)

    def test_wrong_width_stream_leaves_bag_unchanged(self):
        cp = self._trained()
        with pytest.raises(ValueError, match="2 columns"):
            cp.score_online(Bag.classification(np.zeros((2, 3)), ["A", "B"]))
        assert len(cp.bag) == 20


class TestMeasureContract:
    def test_wrong_score_matrix_shape_rejected(self):
        class Narrow(StubMeasure):
            def score_matrix(self, X, label_space):
                return np.zeros((len(X), 1))

        cp = ConformalClassifier(Narrow([1, 2], [0, 0]), CpConfig(epsilons=(0.1,)))
        cp.train(Bag.classification([[0.0], [1.0]], ["A", "B"]))
        with pytest.raises(ValueError, match="expected"):
            cp.p_values(np.zeros((2, 1)))


class ScoresAfter(StubMeasure):
    """Stub whose training scores turn to ``bad`` once the bag outgrows ``n_good``."""

    def __init__(self, cached, per_label, n_good, bad=np.nan):
        super().__init__(cached, per_label)
        self.n_good, self.bad = n_good, bad

    def scores(self, bag, is_training_bag):
        out = np.asarray(super().scores(bag, is_training_bag), dtype=float).copy()
        if len(bag) > self.n_good:
            out[-1] = self.bad
        return out


class TestFiniteScoreContract:
    def test_non_finite_training_score_rejected_before_absorbing(self):
        for bad in (np.nan, np.inf, -np.inf):
            cp = ConformalClassifier(
                ScoresAfter([1, 2, 3, 4], [2, 99], n_good=3, bad=bad), CpConfig(epsilons=(0.5,))
            ).train(BAG3)
            before = cp.bag
            expected = cp.p_values(np.zeros((1, 1))).values
            with pytest.raises(ValueError, match="non-finite"):
                cp.train(Bag.classification([[3.0]], ["B"]))
            assert cp.bag is before
            np.testing.assert_array_equal(cp.p_values(np.zeros((1, 1))).values, expected)

    def test_measure_refit_to_the_kept_bag_after_a_rejected_train(self):
        class NanAfter(KnnClassifierMeasure):
            def extend(self, bag):
                scores = super().extend(bag).copy()
                if len(bag) > 20:
                    scores[-1] = np.nan
                return scores

        cp = ConformalClassifier(NanAfter(), CpConfig(epsilons=(0.1,)))
        cp.train(gaussian_blobs(20, seed=1))
        probe = np.array([[0.1, 0.1], [0.2, 0.0]])
        expected = cp.p_values(probe).values
        with pytest.raises(ValueError, match="non-finite"):
            cp.train(Bag.classification([[0.1, 0.1]], ["B"], ("A", "B")))
        np.testing.assert_array_equal(cp.p_values(probe).values, expected)
        cp.train(gaussian_blobs(20, seed=1), override=True)
        np.testing.assert_array_equal(cp.p_values(probe).values, expected)

    def test_non_finite_candidate_score_rejected(self):
        # a NaN candidate score used to get a p-value instead of an error
        cp = stub_cp([1, 2, 3], [np.nan, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            cp.p_values(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            cp.predict(np.zeros((1, 1)))

    def test_exact_p_values_reject_non_finite_scores(self):
        cp = ConformalClassifier(
            ScoresAfter([1, 2, 3, 4], [2, 99], n_good=3), CpConfig(epsilons=(0.5,))
        ).train(BAG3)
        with pytest.raises(ValueError, match="non-finite"):
            cp.exact_p_values(np.zeros((1, 1)))

    def test_callable_model_output_scorer_returning_inf_rejected(self):
        measure = ModelOutputMeasure(ModelOutputAdapterConfig(
            predict_fn=lambda x: np.ones((len(x), 2)), scorer=lambda o, j: np.inf
        ))
        cp = ConformalClassifier(measure, CpConfig(epsilons=(0.1,)))
        with pytest.raises(ValueError, match="non-finite"):
            cp.train(BAG3)
        assert cp.bag is None
