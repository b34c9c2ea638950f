"""Incremental absorption against retraining from scratch, bit for bit.

A non-override ``train`` appends to the held bag and lets the measure,
provider or taxonomy update only what the new examples change (their
``extend`` hooks).  Every cached score, store, Venn matrix and interval
union must equal that of a predictor trained with ``override=True`` on the
merged bag.  The bags sit on an integer grid, so they hold duplicate rows
and many distance ties.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conformal import (
    Bag,
    CartConfig,
    ConformalClassifier,
    ConformalRegressor,
    CpConfig,
    DecisionTreeMeasure,
    KnnClassifierMeasure,
    KnnConfig,
    KnnRegressionProvider,
    NearestNeighborTaxonomy,
    RrcmConfig,
    SeededRng,
    VennPredictor,
    VennTaxonomy,
    knn_regression_coeffs,
    knn_score_per_label,
    knn_scores,
    label_taxonomy,
)
from conformal import ncm
from conformal.ncm import _neighbour_sums, _smallest

LABELS = ("A", "B", "C")
EPSILONS = (0.05, 0.2)


def grid_bag(n, seed, labels=LABELS, d=2):
    """Integer-grid bag whose second quarter repeats its first."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(n, d)).astype(float)
    x[n // 4: 2 * (n // 4)] = x[: n // 4]
    y = [labels[i % len(labels)] for i in rng.permutation(n)]
    return Bag.classification(x, y, labels)


def grid_stream(bag, n, seed):
    """Fresh grid rows mixed with copies of bag rows under shuffled labels."""
    fresh = grid_bag(n, seed, bag.label_space, bag.n_features)
    x = fresh.x.copy()
    x[::3] = bag.x[: len(x[::3])]
    return Bag.classification(x, fresh.y, bag.label_space)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_stores(incremental, reference):
    assert incremental._store.keys() == reference._store.keys()
    for cat, stored in reference._store.items():
        assert same_bits(incremental._store[cat], stored), cat


def cp_pair(measure_factory, **cfg):
    config = CpConfig(EPSILONS, **cfg)
    return ConformalClassifier(measure_factory(), config), ConformalClassifier(measure_factory(), config)


class TestConformalClassifier:
    @pytest.mark.parametrize("taxonomy", [None, label_taxonomy])
    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_one_row_steps_equal_retraining(self, k, taxonomy):
        for seed in range(3):
            bag = grid_bag(40, seed)
            stream = grid_stream(bag, 24, 50 + seed)
            queries = np.vstack([grid_bag(6, 90 + seed).x, stream.x[:3]])
            cp, ref = cp_pair(lambda: KnnClassifierMeasure(KnnConfig(k=k)),
                              smoothed=True, taxonomy=taxonomy)
            cp.train(bag)
            merged = bag
            for i in range(len(stream)):
                step = stream.subset([i])
                cp.train(step)
                merged = merged.append(step)
                ref.train(merged, override=True)
                assert_same_stores(cp, ref)
                assert same_bits(
                    cp.measure.scores(cp.bag, True), knn_scores(KnnConfig(k=k), merged, merged, True)
                )
            assert same_bits(cp.p_values(queries, SeededRng(seed)).values,
                             ref.p_values(queries, SeededRng(seed)).values)

    @pytest.mark.parametrize("k", [1, 3])
    def test_multi_row_appends(self, k):
        bag = grid_bag(30, 7)
        stream = grid_stream(bag, 20, 8)
        cp, ref = cp_pair(lambda: KnnClassifierMeasure(KnnConfig(k=k)), taxonomy=label_taxonomy)
        cp.train(bag)
        merged = bag
        for lo, hi in ((0, 3), (3, 4), (4, 12), (12, 20)):
            chunk = stream.subset(range(lo, hi))
            cp.train(chunk)
            merged = merged.append(chunk)
            # a new measure fits from nothing, where ref.train(merged,
            # override=True) would resume the bag it holds
            fresh = ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=k)), ref.config)
            assert_same_stores(cp, fresh.train(merged))

    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_score_online_equals_retraining_loop(self, k):
        bag = grid_bag(36, 11)
        stream = grid_stream(bag, 30, 12)
        cp, ref = cp_pair(lambda: KnnClassifierMeasure(KnnConfig(k=k)), smoothed=True)
        cp.train(bag)
        report, p = cp.score_online(stream, SeededRng(5), return_p_values=True)
        ref.train(bag)
        rng = SeededRng(5)
        expected = []
        for i in range(len(stream)):
            x, y = stream.x[i], stream.y[i]
            table = ref.p_values(x[None, :], rng)
            expected.append(table.values[0, table.labels.index(y)])
            ref = ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=k)), ref.config).train(
                ref.bag.append(stream.subset([i])))
        assert same_bits(p, expected)
        assert_same_stores(cp, ref)
        assert report.trials == len(stream)

    def test_measure_without_hook_gives_identical_results(self):
        bag = grid_bag(30, 21)
        stream = grid_stream(bag, 12, 22)
        cp, ref = cp_pair(lambda: DecisionTreeMeasure(CartConfig(max_depth=3)),
                          smoothed=True, taxonomy=label_taxonomy)
        cp.train(bag)
        _, p = cp.score_online(stream, SeededRng(1), return_p_values=True)
        ref.train(bag.append(stream), override=True)
        assert_same_stores(cp, ref)
        queries = grid_bag(8, 23).x
        assert same_bits(cp.p_values(queries, SeededRng(2)).values,
                         ref.p_values(queries, SeededRng(2)).values)

    def test_shared_measure_falls_back_to_retraining(self):
        # the measure's cached scores belong to another bag: extend retrains
        measure = KnnClassifierMeasure(KnnConfig(k=3))
        cp = ConformalClassifier(measure, CpConfig(EPSILONS)).train(grid_bag(30, 31))
        ConformalClassifier(measure, CpConfig(EPSILONS)).train(grid_bag(30, 32))
        step = grid_bag(3, 33)
        cp.train(step)
        ref = ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=3)), CpConfig(EPSILONS))
        assert_same_stores(cp, ref.train(grid_bag(30, 31).append(step)))

    @pytest.mark.parametrize("k", [1, 3])
    def test_too_few_neighbours_leaves_everything_unchanged(self, k):
        bag = grid_bag(30, 41, labels=("A", "B"))
        cp = ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=k)),
                                 CpConfig(EPSILONS, smoothed=True, taxonomy=label_taxonomy))
        cp.train(bag)
        stores = {cat: s.copy() for cat, s in cp._store.items()}
        queries = grid_bag(6, 42).x
        before = cp.p_values(queries, SeededRng(3)).values
        # k examples of a new label C: each has only k - 1 same-label neighbours
        newcomers = Bag.classification(grid_bag(k, 43).x, ["C"] * k, LABELS)
        with pytest.raises(ValueError, match="label 'C': .* same-label neighbour"):
            cp.train(newcomers)
        assert cp.bag is bag
        assert cp._store.keys() == stores.keys()
        assert all(same_bits(cp._store[cat], s) for cat, s in stores.items())
        assert same_bits(cp.p_values(queries, SeededRng(3)).values, before)
        # and the next absorbed examples still match a retrain
        step = grid_bag(2, 44, labels=("A", "B"))
        cp.train(step)
        ref = ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=k)),
                                  CpConfig(EPSILONS, smoothed=True, taxonomy=label_taxonomy))
        assert_same_stores(cp, ref.train(bag.append(step)))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 4),
    n=st.integers(15, 30),
    chunks=st.lists(st.integers(1, 4), min_size=1, max_size=5),
)
def test_property_incremental_scores_equal_retraining(seed, k, n, chunks):
    bag = grid_bag(n, seed)
    stream = grid_stream(bag, sum(chunks), seed + 1)
    measure = KnnClassifierMeasure(KnnConfig(k=k))
    measure.extend(bag)
    merged, lo = bag, 0
    for size in chunks:
        merged = merged.append(stream.subset(range(lo, lo + size)))
        got = measure.extend(merged)
        assert same_bits(got, knn_scores(KnnConfig(k=k), merged, merged, True))
        lo += size


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    k=st.sampled_from([1, 2, 3, 8]),
    n=st.integers(27, 40),
    chunks=st.lists(st.integers(1, 20), min_size=1, max_size=4),
    block=st.sampled_from([64, ncm._BLOCK_ENTRIES]),
)
def test_property_fits_and_extends_equal_knn_scores(seed, k, n, chunks, block):
    # a fit from nothing, extends by chunks and knn_scores give the same
    # bits, up to k = 8 (n >= 27 leaves every label of a three-label grid
    # at least 9 rows); a small block budget makes many row chunks, and a
    # chunk larger than the bag held sends the extend to a fit from nothing
    bag = grid_bag(n, seed)
    stream = grid_stream(bag, sum(chunks), seed + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncm, "_BLOCK_ENTRIES", block)
        measure = KnnClassifierMeasure(KnnConfig(k=k))
        measure.extend(bag)
        merged, lo = bag, 0
        for size in chunks:
            merged = merged.append(stream.subset(range(lo, lo + size)))
            got = measure.extend(merged)
            assert same_bits(got, knn_scores(KnnConfig(k=k), merged, merged, True))
            assert same_bits(got, KnnClassifierMeasure(KnnConfig(k=k)).extend(merged))
            lo += size


def spy_on_kernel(monkeypatch):
    """The entries of every distance block the kernel computes from now on
    (every kNN plug-in calls it through ``ncm``); each bag side must keep
    its feature rows contiguous, as the kernel's per-feature passes read
    them (a strided row is several times slower)."""
    entries = []

    def spy(a, b_rows):
        assert b_rows.strides[1] == b_rows.itemsize
        entries.append(len(a) * b_rows.shape[1])
        return sq_dists_to(a, b_rows)

    sq_dists_to = ncm._sq_dists_to
    monkeypatch.setattr(ncm, "_sq_dists_to", spy)
    return entries


def spy_on_queries(monkeypatch):
    """(query rows, bag rows) of every k-nearest batch query
    (``ncm._Neighbours.smallest``) from now on; a kNN plug-in's fit from
    nothing makes one, of the bag against itself, and its steps make none."""
    calls = []

    def spy(self, X, k, index=False):
        calls.append((len(X), self.rows.shape[1]))
        return smallest(self, X, k, index)

    smallest = ncm._Neighbours.smallest
    monkeypatch.setattr(ncm._Neighbours, "smallest", spy)
    return calls


@pytest.mark.parametrize("block", [4096, ncm._BLOCK_ENTRIES])
@pytest.mark.parametrize("plug_in", ["measure", "taxonomy", "provider"])
def test_fit_from_nothing_makes_one_self_query(monkeypatch, block, plug_in):
    # a fit from nothing is one query of the bag against itself; a one-row
    # step then makes no query and passes one 1 x n block to the kernel
    monkeypatch.setattr(ncm, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(121)
    n = 300
    x = rng.standard_normal((n + 1, 4))
    if plug_in == "provider":
        bag, fit = Bag.regression(x, rng.standard_normal(n + 1)), KnnRegressionProvider(KnnConfig(k=2))
    else:
        bag = Bag.classification(x, [LABELS[i % 3] for i in range(n + 1)], LABELS)
        fit = KnnClassifierMeasure(KnnConfig(k=2)) if plug_in == "measure" else NearestNeighborTaxonomy()
    queries = spy_on_queries(monkeypatch)
    fit.extend(bag.subset(range(n)))
    assert queries == [(n, n)]
    queries.clear()
    entries = spy_on_kernel(monkeypatch)
    fit.extend(bag)
    assert entries == [n] and queries == []


@pytest.mark.parametrize("block", [4096, ncm._BLOCK_ENTRIES])
def test_provider_step_computes_the_new_row_once(monkeypatch, block):
    # a one-row step passes the new row's distances to the held rows, and no
    # more than one whole row for each of the c held examples whose k
    # nearest it enters (strictly closer than their k-th)
    monkeypatch.setattr(ncm, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(122)
    n, k = 300, 3
    bag = Bag.regression(rng.standard_normal((n + 1, 4)), rng.standard_normal(n + 1))
    provider = KnnRegressionProvider(KnnConfig(k=k))
    provider.extend(bag.subset(range(n)))
    entries = spy_on_kernel(monkeypatch)
    got = provider.extend(bag)
    sq = ((bag.x[:, None, :] - bag.x[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(sq, np.inf)
    c = int((sq[n, :n] < np.sort(sq[:n, :n], axis=1)[:, k - 1]).sum())
    assert c == 3
    assert sum(entries) <= n + c * (n + 1)
    assert all(same_bits(u, v) for u, v in zip(got, KnnRegressionProvider(KnnConfig(k=k)).extend(bag)))


def test_score_online_computes_one_row_per_step(monkeypatch):
    # a step's prediction computes the new row's distances to the held bag
    # and its absorption merges that row, so each step of each kNN plug-in
    # passes one 1 x n block to the kernel
    bag, rbag = grid_bag(30, 141), regression_grid(30, 143)
    stream, rstream = grid_stream(bag, 4, 142), regression_grid(4, 144)
    cp = ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=2)), CpConfig(EPSILONS, smoothed=True)).train(bag)
    venn = VennPredictor(NearestNeighborTaxonomy()).train(bag)
    rrcm = ConformalRegressor(KnnRegressionProvider(KnnConfig(k=2)), RrcmConfig(EPSILONS)).train(rbag)
    for run in (
        lambda: cp.score_online(stream, SeededRng(1)),
        lambda: venn.score_online(stream),
        lambda: rrcm.score_online(rstream),
    ):
        entries = spy_on_kernel(monkeypatch)
        run()
        assert entries == [30, 31, 32, 33]
        monkeypatch.undo()


class TestVenn:
    taxonomy = NearestNeighborTaxonomy

    def check(self, start, stream, queries):
        venn = VennPredictor(self.taxonomy()).train(start)
        merged = start
        for i in range(len(stream)):
            step = stream.subset([i])
            venn.train(step)
            merged = merged.append(step)
            ref = VennPredictor(self.taxonomy()).train(merged)
            assert venn._categories == ref._categories
            # extending by nothing keeps every category
            assert venn.taxonomy.extend(merged) == ref._categories
            rows = np.vstack([queries, merged.x])
            assert same_bits(venn._matrices(rows), ref._matrices(rows))
            assert venn.predict(rows) == ref.predict(rows)

    def test_duplicates_of_old_rows_under_another_label(self):
        bag = grid_bag(30, 51)
        x = np.vstack([bag.x[:4], bag.x[10:14], grid_bag(6, 52).x])
        y = [LABELS[(LABELS.index(lbl) + 1) % 3] for lbl in bag.y[:4] + bag.y[10:14]] + ["A"] * 6
        self.check(bag, Bag.classification(x, y, LABELS), grid_bag(5, 53).x)

    def test_starting_from_two_examples(self):
        start = Bag.classification([[0.0, 0.0], [0.0, 0.0]], ["A", "B"], LABELS)
        self.check(start, grid_stream(grid_bag(12, 54), 12, 55), grid_bag(5, 56).x)

    def test_starting_from_one_example(self):
        start = Bag.classification([[1.0, 0.0]], ["B"], LABELS)
        self.check(start, grid_stream(grid_bag(12, 63), 12, 64), grid_bag(5, 65).x)

    def test_multi_row_appends_and_new_labels(self):
        bag = grid_bag(20, 57, labels=("A", "B"))
        venn = VennPredictor(self.taxonomy()).train(bag)
        chunk = grid_bag(5, 58)  # brings label C into the label space
        venn.train(chunk)
        more = grid_stream(bag, 6, 59)
        venn.train(more)
        ref = VennPredictor(self.taxonomy()).train(bag.append(chunk).append(more))
        rows = np.vstack([grid_bag(6, 60).x, ref.bag.x])
        assert same_bits(venn._matrices(rows), ref._matrices(rows))

    def test_appends_merged_in_many_blocks(self, monkeypatch):
        # one new row per block: a held example can take several new nearest
        # indices in one append, and its count must move once
        monkeypatch.setattr(ncm, "_BLOCK_ENTRIES", 64)
        for seed in (14, 130):
            bag = grid_bag(40, seed)
            more = grid_stream(bag, 30, seed + 1000)
            venn = VennPredictor(self.taxonomy()).train(bag).train(more)
            ref = VennPredictor(self.taxonomy()).train(bag.append(more))
            rows = np.vstack([grid_bag(6, 9).x, ref.bag.x])
            assert same_bits(venn._matrices(rows), ref._matrices(rows))

    def test_score_online_equals_retraining_loop(self):
        bag = grid_bag(25, 61)
        stream = grid_stream(bag, 20, 62)
        online = VennPredictor(self.taxonomy()).train(bag).score_online(stream)
        ref = VennPredictor(self.taxonomy()).train(bag)
        predictions, intervals = [], []
        for i in range(len(stream)):
            pred, interval = ref.predict(stream.x[i: i + 1])
            predictions += pred
            intervals += interval
            ref = VennPredictor(self.taxonomy()).train(ref.bag.append(stream.subset([i])))
        assert online.accuracy == sum(p == t for p, t in zip(predictions, stream.y)) / len(stream)
        assert online.mean_interval_width == sum(i.width for i in intervals) / len(stream)


class RetrainingTaxonomy(NearestNeighborTaxonomy):
    """The nearest-neighbour taxonomy through the default ``extend``, which
    retrains and returns every category anew, so the Venn predictor finds
    the examples whose category changed by comparing the lists."""

    extend = VennTaxonomy.extend


class TestVennRetrainingTaxonomy(TestVenn):
    taxonomy = RetrainingTaxonomy


def regression_grid(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, size=(n, 1)).astype(float)
    x[n // 4: 2 * (n // 4)] = x[: n // 4]
    return Bag.regression(x, rng.integers(-4, 5, size=n).astype(float) / 2)


def line_bits(regressor):
    return regressor._lines.tobytes()


class TestRegression:
    @pytest.mark.parametrize("k", [1, 3])
    def test_steps_equal_retraining(self, k):
        config = RrcmConfig(EPSILONS, convex_hull=False)
        stream = regression_grid(16, 72)
        # 600 rows: the provider's first fit runs in several row chunks; the
        # empty first step compares that fit itself
        for bag in (regression_grid(20, 71), regression_grid(600, 75)):
            rrcm = ConformalRegressor(KnnRegressionProvider(KnnConfig(k=k)), config).train(bag)
            merged = bag
            for lo, hi in ((0, 0), (0, 1), (1, 2), (2, 5), (5, 6), (6, 16)):
                chunk = stream.subset(range(lo, hi))
                rrcm.train(chunk)
                merged = merged.append(chunk)
                ref = ConformalRegressor(KnnRegressionProvider(KnnConfig(k=k)), config).train(merged)
                assert line_bits(rrcm) == line_bits(ref)
                a, _ = knn_regression_coeffs(KnnConfig(k=k), merged, merged, True)
                assert same_bits(rrcm._lines[:, 0], a)
            queries = np.arange(-4.0, 5.0)[:, None]
            assert rrcm.predict(queries) == ref.predict(queries)

    def test_score_online_equals_retraining_loop(self):
        config = RrcmConfig(EPSILONS)
        bag = regression_grid(15, 73)
        stream = regression_grid(12, 74)
        online = ConformalRegressor(KnnRegressionProvider(KnnConfig(k=3)), config).train(bag)
        report = online.score_online(stream)
        ref = ConformalRegressor(KnnRegressionProvider(KnnConfig(k=3)), config).train(bag)
        predictions = []
        for i in range(len(stream)):
            predictions += ref.predict(stream.x[i: i + 1])
            ref = ConformalRegressor(KnnRegressionProvider(KnnConfig(k=3)), config).train(
                ref.bag.append(stream.subset([i])))
        assert line_bits(online) == line_bits(ref)
        for eps in EPSILONS:
            misses = sum(not p.contains(eps, y) for p, y in zip(predictions, stream.y))
            assert report.per_epsilon[eps].miss_rate == misses / len(stream)


def venn_counts(venn):
    """Venn's label counts by category, without the rows of categories that
    hold no example (an absorbed step may leave one at zero)."""
    return {cat: venn._label_counts[i].tobytes() for cat, i in venn._category_index.items()
            if venn._label_counts[i].any()}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    k=st.sampled_from([1, 3]),
    taxonomy=st.sampled_from([None, label_taxonomy]),
    n=st.integers(12, 30),
    m=st.integers(1, 12),
)
def test_property_score_online_equals_retraining(seed, k, taxonomy, n, m):
    # integer grids: ties at every k-th distance, and duplicate rows (a third
    # of the stream repeats bag rows, under other labels too), which send
    # Venn's own-row exclusion to its fallback; each step absorbs the row its
    # prediction computed
    bag = grid_bag(n, seed)
    stream = grid_stream(bag, m, seed + 1)
    merged = bag.append(stream)

    def fresh_cp(fit):  # a new measure fits from nothing
        config = CpConfig(EPSILONS, smoothed=True, taxonomy=taxonomy)
        return ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=k)), config).train(fit)

    cp = fresh_cp(bag)
    _, p = cp.score_online(stream, SeededRng(seed), return_p_values=True)
    rng, expected = SeededRng(seed), []
    for i in range(m):
        table = fresh_cp(bag.append(stream.subset(range(i)))).p_values(stream.x[i: i + 1], rng)
        expected.append(table.values[0, table.labels.index(stream.y[i])])
    assert same_bits(p, expected)
    assert_same_stores(cp, fresh_cp(merged))

    venn = VennPredictor(NearestNeighborTaxonomy()).train(bag)
    venn.score_online(stream)
    fresh = VennPredictor(NearestNeighborTaxonomy()).train(merged)
    assert venn._categories == fresh._categories
    assert venn_counts(venn) == venn_counts(fresh)

    rbag, rstream = regression_grid(n, seed), regression_grid(m, seed + 1)
    config = RrcmConfig(EPSILONS, convex_hull=False)
    rrcm = ConformalRegressor(KnnRegressionProvider(KnnConfig(k=k)), config).train(rbag)
    rrcm.score_online(rstream)
    fresh = ConformalRegressor(KnnRegressionProvider(KnnConfig(k=k)), config).train(rbag.append(rstream))
    assert line_bits(rrcm) == line_bits(fresh)


LINEAGE_PLUG_INS = {
    "measure": (lambda: KnnClassifierMeasure(KnnConfig(k=2)), grid_bag),
    "provider": (lambda: KnnRegressionProvider(KnnConfig(k=2)), regression_grid),
    "taxonomy": (NearestNeighborTaxonomy, grid_bag),
}


def same_fit(a, b):
    if isinstance(a, list):  # taxonomy categories
        return a == b
    if isinstance(a, tuple):  # provider coefficients
        return all(same_bits(u, v) for u, v in zip(a, b))
    return same_bits(a, b)


@pytest.mark.parametrize("continuation", ["branch", "unpickled", "by value", "held bag"])
@pytest.mark.parametrize("plug_in", LINEAGE_PLUG_INS)
def test_continuations_equal_fresh_fits(monkeypatch, plug_in, continuation):
    # extend resumes in O(1) on a bag appended to exactly the one it holds;
    # on any other bag it compares the examples, so a branch from a shared
    # prefix refits, and a copy that lost its lineage (unpickled, rebuilt
    # by value) still resumes
    make, data = LINEAGE_PLUG_INS[plug_in]
    held, more = data(40, 131), data(3, 132)
    fit = make()
    fit.extend(held)
    if continuation == "branch":
        fit.extend(held.append(more))
        bag = held.append(data(2, 133))
    elif continuation == "unpickled":
        bag = pickle.loads(pickle.dumps(held.append(more)))
        assert bag._prefix is None
    elif continuation == "by value":
        merged = held.append(more)
        bag = Bag(np.array(merged.x), merged.y, merged.label_space)
    else:
        bag = held
    queries = spy_on_queries(monkeypatch)
    got = fit.extend(bag)
    resumed = queries == []
    assert resumed == (continuation != "branch")
    assert same_fit(got, make().extend(bag))
    # and the next step on top of it still matches a fresh fit
    step = bag.append(data(1, 134))
    assert same_fit(fit.extend(step), make().extend(step))


def held_lists(fit):
    """What a kNN plug-in keeps between steps: the measure's sorted
    same-label and other-label lists, the provider's k nearest (distance,
    index), the taxonomy's nearest index and distance."""
    if isinstance(fit, KnnClassifierMeasure):
        return fit._fit[:1]
    return fit._fit[2:] if isinstance(fit, KnnRegressionProvider) else fit._fit


def same_arrays(a, b):
    return all(u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes() for u, v in zip(a, b))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 8),
    extra=st.integers(0, 12),
    chunks=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    two_stage=st.booleans(),
)
def test_property_fits_from_nothing_hold_what_steps_build(seed, k, extra, chunks, two_stage):
    # each kNN plug-in's fit from nothing (one query of the bag against
    # itself) holds, bit for bit, the lists that a chain of steps from a
    # small prefix builds, on either query path; the next step then equals a
    # fresh fit.  The prefix leaves every label k + 1 rows; a grid of 25
    # points makes duplicate rows and distance ties
    prefix = grid_bag(3 * (k + 1) + extra, seed)
    stream = grid_stream(grid_bag(60, seed), sum(chunks) + 3, seed + 1)
    y = np.random.default_rng(seed).integers(-4, 5, len(prefix) + len(stream)) / 2
    bags, lo = [prefix], 0
    for size in chunks:
        size = min(size, len(bags[-1]))  # a step adds no more rows than the bag holds
        bags.append(bags[-1].append(stream.subset(range(lo, lo + size))))
        lo += size
    bags.append(bags[-1].append(stream.subset(range(lo, lo + 3))))
    plug_ins = (
        (lambda: KnnClassifierMeasure(KnnConfig(k=k)), lambda b: b),
        (NearestNeighborTaxonomy, lambda b: b),
        (lambda: KnnRegressionProvider(KnnConfig(k=k)), lambda b: Bag.regression(b.x, y[: len(b)])),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncm, "_TWO_STAGE_ENTRIES", 0 if two_stage else 1 << 62)
        for make, data in plug_ins:
            chained = make()
            for bag in bags[:-1]:
                chained.extend(data(bag))
            fresh = make()
            fresh.extend(data(bags[-2]))
            assert same_arrays(held_lists(chained), held_lists(fresh))
            step, ref = data(bags[-1]), make()
            assert same_fit(chained.extend(step), ref.extend(step))
            assert same_fit(fresh.extend(step), ref.extend(step))
            assert same_arrays(held_lists(chained), held_lists(ref))


class TestOverrideOnContinuingBag:
    """``override=True`` on a bag that starts with the bag the plug-in holds
    lets the plug-in resume its fit; the result is a fresh predictor's."""

    def test_cp(self):
        bag = grid_bag(30, 101)
        more = bag.append(grid_stream(bag, 6, 102))
        cp, ref = cp_pair(lambda: KnnClassifierMeasure(KnnConfig(k=3)), taxonomy=label_taxonomy)
        cp.train(bag).train(more, override=True)
        assert_same_stores(cp, ref.train(more))
        queries = grid_bag(6, 103).x
        assert same_bits(cp.p_values(queries).values, ref.p_values(queries).values)

    def test_venn(self):
        bag = grid_bag(30, 104)
        more = bag.append(grid_stream(bag, 6, 105))
        venn = VennPredictor(NearestNeighborTaxonomy()).train(bag).train(more, override=True)
        ref = VennPredictor(NearestNeighborTaxonomy()).train(more)
        assert venn._categories == ref._categories
        rows = np.vstack([grid_bag(6, 106).x, more.x])
        assert same_bits(venn._matrices(rows), ref._matrices(rows))

    def test_rrcm(self):
        config = RrcmConfig(EPSILONS)
        bag = regression_grid(25, 107)
        more = bag.append(regression_grid(6, 108))
        rrcm = ConformalRegressor(KnnRegressionProvider(KnnConfig(k=3)), config).train(bag)
        rrcm.train(more, override=True)
        ref = ConformalRegressor(KnnRegressionProvider(KnnConfig(k=3)), config).train(more)
        assert line_bits(rrcm) == line_bits(ref)


@pytest.mark.parametrize("continues", [False, True])
def test_raising_extend_keeps_the_held_fit(continues):
    # a label with too few neighbours, in a bag that continues the held one or not
    bag = grid_bag(30, 111, labels=("A", "B"))
    measure = KnnClassifierMeasure(KnnConfig(k=2))
    measure.extend(bag)
    fit = measure._fit
    lone = Bag.classification(grid_bag(2, 113).x, ["C", "A"], LABELS)
    with pytest.raises(ValueError, match="label 'C': 0 same-label"):
        measure.extend(bag.append(lone) if continues else lone)
    assert measure._bag is bag and measure._fit is fit
    merged = bag.append(grid_bag(3, 115, labels=("A", "B")))
    assert same_bits(measure.extend(merged), knn_scores(KnnConfig(k=2), merged, merged, True))


def test_rejected_cp_step_resumes_from_the_kept_fit(monkeypatch):
    # the measure's extend raises on a label with too few neighbours; the
    # next step computes only the new example's distances, as without the
    # rejected step
    computed = []

    def spy(x, n_old, *args, **kwargs):
        for block in new_pairs(x, n_old, *args, **kwargs):
            computed.append(len(block[2]))
            yield block

    new_pairs = ncm._new_pairs
    monkeypatch.setattr(ncm, "_new_pairs", spy)
    bag = grid_bag(200, 116, labels=("A", "B"))
    step = grid_stream(bag, 1, 117)
    cp, ref = cp_pair(lambda: KnnClassifierMeasure(KnnConfig(k=3)))
    cp.train(bag)
    ref.train(bag)
    computed.clear()
    with pytest.raises(ValueError, match="label 'Z': 0 same-label"):
        cp.train(Bag.classification(grid_bag(1, 118).x, ["Z"], ("A", "B", "Z")))
    assert cp.bag is bag
    cp.train(step)
    after_reject = sum(computed)
    computed.clear()
    ref.train(step)
    assert after_reject == sum(computed) < len(bag)
    assert_same_stores(cp, ref)


def test_rejected_cp_step_of_a_default_extend_measure_only_retrains():
    # a measure without an extend override is trained on the kept bag after
    # a rejected step, not scored on it again; the next step is a fresh fit
    calls = []
    limit = [30]

    class Counting(DecisionTreeMeasure):
        def scores(self, bag, is_training_bag):
            calls.append(len(bag))
            out = super().scores(bag, is_training_bag)
            return np.full(len(bag), np.nan) if len(bag) > limit[0] else out

    bag = grid_bag(30, 119)
    step = grid_stream(bag, 1, 120)
    cp = ConformalClassifier(Counting(CartConfig(max_depth=3)), CpConfig(EPSILONS)).train(bag)
    calls.clear()
    with pytest.raises(ValueError, match="non-finite scores"):
        cp.train(step)
    assert calls == [31] and cp.bag is bag
    limit[0] = 31
    cp.train(step)
    ref = ConformalClassifier(DecisionTreeMeasure(CartConfig(max_depth=3)), CpConfig(EPSILONS))
    assert_same_stores(cp, ref.train(bag.append(step)))


def test_provider_rejects_a_small_bag_and_keeps_its_fit():
    provider = KnnRegressionProvider(KnnConfig(k=2))
    bag = regression_grid(30, 112)
    provider.extend(bag)
    fit = provider._fit
    with pytest.raises(ValueError, match="need k=2 neighbours, only 1 available"):
        provider.extend(regression_grid(2, 114))
    assert provider._bag is bag and provider._fit is fit


def k_smallest(sq, k):
    """Each row's neighbour sum over its k smallest entries, as
    :func:`_neighbour_sums` computes it once as the same-label group
    (numerator) and once as the other labels (denominator) of a bag with a
    second group of k ones, from the lists that ``_smallest`` takes from
    the whole block."""
    w = sq.shape[1]
    block = np.hstack([sq, np.ones((len(sq), k))])
    num, den = _neighbour_sums(k, _smallest(block, [0, w], k), [0, 1])
    assert same_bits(num[:, 0], den[:, 1])
    return num[:, 0]


class TestNeighbourSums:
    @pytest.mark.parametrize("k", [2, 4, 9, 16])
    def test_sum_depends_only_on_the_k_smallest_values(self, k):
        # a kept score is only valid if neither the order of a row's entries
        # nor an entry added at or above its k-th smallest changes the sum;
        # a row of exactly k entries included
        rng = np.random.default_rng(k)
        for width in (600, k):
            sq = np.vstack([rng.random((20, width)), rng.integers(0, 9, (20, width)).astype(float)])
            sums = k_smallest(sq, k)
            kth = np.sort(sq, axis=1)[:, k - 1]
            for trial in range(5):
                perm = rng.permutation(sq.shape[1])
                assert same_bits(k_smallest(sq[:, perm], k), sums)
                extra = kth[:, None] + rng.integers(0, 2, (len(sq), 50)) * rng.random((len(sq), 50))
                wider = np.hstack([sq, extra])[:, rng.permutation(width + 50)]
                assert same_bits(k_smallest(wider, k), sums)

    @pytest.mark.parametrize("k", [3, 4, 9, 16])
    def test_sum_ignores_the_order_numpy_selects_in(self, monkeypatch, k):
        # numpy promises only that the k smallest come first, in some order
        rng = np.random.default_rng(k)
        sq = rng.random((40, 300))
        sums = k_smallest(sq, k)
        partition = np.partition

        def reversed_selection(a, kth, axis=-1):
            out = partition(a, kth, axis=axis)
            out[:, :kth] = out[:, kth - 1::-1].copy()
            return out

        monkeypatch.setattr(np, "partition", reversed_selection)
        assert same_bits(k_smallest(sq, k), sums)


class TestQueryWidth:
    def test_knn_measure_rejects_other_widths(self):
        bag = grid_bag(12, 81, d=3)
        measure = KnnClassifierMeasure(KnnConfig(k=1))
        measure.train(bag)
        for width in (2, 4):
            with pytest.raises(ValueError, match="3 columns"):
                measure.score_matrix(np.zeros((2, width)), LABELS)
            with pytest.raises(ValueError, match="3 columns"):
                measure.score(np.zeros(width), LABELS)
            with pytest.raises(ValueError, match="3 columns"):
                knn_score_per_label(KnnConfig(k=1), bag, np.zeros(width), LABELS)


class TestBagAppend:
    def test_result_is_immutable_and_checks_the_appended_rows(self):
        a = grid_bag(6, 91)
        merged = a.append(grid_bag(3, 92))
        assert not merged.x.flags.writeable
        assert merged.y == a.y + grid_bag(3, 92).y
        with pytest.raises(ValueError, match="arity"):
            a.append(grid_bag(3, 93, d=3))
