"""Concurrent ``predict`` / ``p_values`` on one trained instance.

The CP, ICP, Venn and RRCM docstrings say a trained instance may serve
concurrent prediction calls (CP and ICP callers each bring their own
``SeededRng``).  Most query batches here are small enough for the distance
kernel's single-reduce path, which allocates its block per call; the
large-batch cases run its per-feature loop, which sets numpy's ufunc
buffer size for its own thread and restores it.  Four threads share one
instance here, with a short switch interval so that they interleave
inside the calls, and must give the serial results.

A one-row query also leaves its distance row on the kNN plug-in for the
next absorbed step to merge.  Whichever thread's row is left, absorbing
must give the bits of a twin that was never queried.  A large batch query
keeps the centred rows of the plug-in's bag; threads that query a fresh
plug-in at once may each compute them.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import conformal.ncm as ncm
from _support import gaussian_blobs, linear_regression_bag
from conformal import (
    ConformalClassifier,
    ConformalRegressor,
    CpConfig,
    IcpConfig,
    InductiveConformalClassifier,
    KnnClassifierMeasure,
    KnnConfig,
    KnnRegressionProvider,
    NearestNeighborTaxonomy,
    RrcmConfig,
    SeededRng,
    VennPredictor,
    label_taxonomy,
)
from conformal.cli import _KnnBase

THREADS = 4
ROUNDS = 3


def run_concurrently(task):
    """``task(i)`` on THREADS threads at once, ROUNDS times each; results by thread."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [[pool.submit(task, i) for i in range(THREADS)] for _ in range(ROUNDS)]
            return [[f.result(timeout=60) for f in row] for row in futures]
    finally:
        sys.setswitchinterval(interval)


def test_regressor_predict_concurrently():
    predictor = ConformalRegressor(
        KnnRegressionProvider(KnnConfig(k=3)), RrcmConfig((0.05, 0.2), convex_hull=False)
    ).train(linear_regression_bag(400, seed=30))
    queries = [linear_regression_bag(6, seed=31 + i).x for i in range(THREADS)]
    serial = [predictor.predict(q) for q in queries]
    for row in run_concurrently(lambda i: predictor.predict(queries[i])):
        assert row == serial


def test_classifier_p_values_concurrently():
    cp = ConformalClassifier(
        KnnClassifierMeasure(KnnConfig(k=3)), CpConfig(epsilons=(0.05, 0.2), smoothed=True)
    ).train(gaussian_blobs(300, seed=40))
    queries = [gaussian_blobs(20, seed=41 + i).x for i in range(THREADS)]
    serial = [cp.p_values(q, SeededRng(50 + i)).values for i, q in enumerate(queries)]
    for row in run_concurrently(lambda i: cp.p_values(queries[i], SeededRng(50 + i)).values):
        for got, want in zip(row, serial):
            assert np.array_equal(got, want)


def test_inductive_classifier_p_values_concurrently():
    bag = gaussian_blobs(300, seed=60)
    icp = InductiveConformalClassifier(
        KnnClassifierMeasure(KnnConfig(k=3)),
        IcpConfig(epsilons=(0.1,), smoothed=True, taxonomy=label_taxonomy),
    )
    icp.train(bag.subset(range(200))).calibrate(bag.subset(range(200, 300)))
    queries = [gaussian_blobs(8, seed=61 + i).x for i in range(THREADS)]
    serial = [icp.p_values(q, SeededRng(70 + i)).values for i, q in enumerate(queries)]
    for row in run_concurrently(lambda i: icp.p_values(queries[i], SeededRng(70 + i)).values):
        for got, want in zip(row, serial):
            assert np.array_equal(got, want)


def test_venn_predict_concurrently():
    venn = VennPredictor(NearestNeighborTaxonomy()).train(gaussian_blobs(300, seed=80))
    queries = [gaussian_blobs(20, seed=81 + i).x for i in range(THREADS)]
    serial = [venn.predict(q) for q in queries]
    for row in run_concurrently(lambda i: venn.predict(queries[i])):
        assert row == serial


def test_feature_rows_of_a_fresh_bag_concurrently():
    # a bag computes its feature rows on first use (afresh, or from the rows
    # the bag it was appended to gained after the append), so threads that
    # reach it at once may each compute them; every read gives the same rows
    base = gaussian_blobs(2000, seed=80)
    appended = base.append(gaussian_blobs(5, seed=82))
    base.feature_rows
    for bag in (gaussian_blobs(2000, seed=81), appended):
        want = np.ascontiguousarray(bag.x.T)
        for row in run_concurrently(lambda i: bag.feature_rows):
            assert all(np.array_equal(got, want) for got in row)


def test_large_batches_concurrently():
    # 40 rows x 2 features x 1000 bag rows is past the single-reduce bound
    bag = gaussian_blobs(1000, seed=90)
    cp = ConformalClassifier(
        KnnClassifierMeasure(KnnConfig(k=3)), CpConfig(epsilons=(0.1,), smoothed=True)
    ).train(bag)
    venn = VennPredictor(NearestNeighborTaxonomy()).train(bag)
    queries = [gaussian_blobs(40, seed=91 + i).x for i in range(THREADS)]
    caller = np.getbufsize()

    def task(i):
        before = np.getbufsize()
        values = cp.p_values(queries[i], SeededRng(100 + i)).values
        return values, venn.predict(queries[i]), (before, np.getbufsize())

    serial = [task(i) for i in range(THREADS)]
    assert np.getbufsize() == caller
    for row in run_concurrently(task):
        for (values, venn_out, (before, after)), (want_values, want_venn, _) in zip(row, serial):
            assert np.array_equal(values, want_values) and venn_out == want_venn
            assert after == before
    assert np.getbufsize() == caller


def test_queries_leave_absorbed_bits_unchanged():
    # threads query one row at a time.  First each ends with the stream's
    # first row, so one of them leaves that row for the step that absorbs it
    # without a prediction of its own; then each ends with another row, which
    # the step absorbing the second row must not take.  score_online then
    # predicts and absorbs the rest
    bag, rbag = gaussian_blobs(300, seed=110), linear_regression_bag(300, seed=111)
    stream, rstream = gaussian_blobs(10, seed=112), linear_regression_bag(10, seed=113)
    rows = np.vstack([gaussian_blobs(2 * THREADS, seed=114).x, stream.x])
    rrows = np.vstack([linear_regression_bag(2 * THREADS, seed=115).x, rstream.x])

    def build():
        return (
            ConformalClassifier(KnnClassifierMeasure(KnnConfig(k=3)),
                                CpConfig(epsilons=(0.05, 0.2), smoothed=True)).train(bag),
            VennPredictor(NearestNeighborTaxonomy()).train(bag),
            ConformalRegressor(KnnRegressionProvider(KnnConfig(k=3)), RrcmConfig((0.05, 0.2))).train(rbag),
        )

    def query(predictors, last):
        cp, venn, rrcm = predictors

        def task(i):
            for j in [*range(i, 2 * THREADS, THREADS), last]:
                cp.p_values(rows[j: j + 1], SeededRng(j))
                venn.predict(rows[j: j + 1])
                rrcm.provider.coeffs_n(rrows[j])

        run_concurrently(task)

    def absorb(predictors, step, before=None):
        if before:
            before()
        for predictor, data in zip(predictors, (stream, stream, rstream)):
            predictor.train(data.subset([step]))

    queried, twin = build(), build()
    for step, last in ((0, 2 * THREADS), (1, 0)):
        absorb(queried, step, lambda: query(queried, last))
        absorb(twin, step)
    rest = range(2, len(stream))
    got, want = [
        (cp.score_online(stream.subset(rest), SeededRng(120), return_p_values=True)[1].tobytes(),
         venn.score_online(stream.subset(rest)), rrcm.score_online(rstream.subset(rest)))
        for cp, venn, rrcm in (queried, twin)
    ]
    assert got == want
    cp, venn, rrcm = queried
    for cat, stored in twin[0]._store.items():
        assert cp._store[cat].tobytes() == stored.tobytes()
    assert venn._categories == twin[1]._categories
    assert venn._label_counts.tobytes() == twin[1]._label_counts.tobytes()
    assert rrcm._lines.tobytes() == twin[2]._lines.tobytes()


def test_two_stage_queries_race_on_the_kept_centred_rows():
    # a kNN plug-in computes the centred rows of its bag on its first
    # two-stage query; threads that query a fresh plug-in at once may each
    # compute them, and every result must be the bits of a serial twin
    centers = np.eye(16)[:3] * 2.0
    bag = gaussian_blobs(800, seed=130, centers=centers, labels=("A", "B", "C"))
    queries = [
        np.vstack([gaussian_blobs(16, seed=131 + i, centers=centers, labels=("A", "B", "C")).x, bag.x[i::200]])
        for i in range(THREADS)
    ]
    assert all(q.shape[0] * q.shape[1] * len(bag) >= ncm._TWO_STAGE_ENTRIES for q in queries)
    contains = [np.arange(len(q)) >= 16 for q in queries]
    hypotheses = [[("A", "B", "C")] * len(q) for q in queries]

    def build():
        measure, taxonomy = KnnClassifierMeasure(KnnConfig(k=3)), NearestNeighborTaxonomy()
        vote = _KnnBase(KnnConfig(k=3))
        measure.train(bag)
        taxonomy.train(bag)
        vote.fit(bag.x, bag.y)
        return measure, taxonomy, vote

    def task(plug_ins, i):
        measure, taxonomy, vote = plug_ins
        return (measure.score_matrix(queries[i], bag.label_space).tobytes(),
                taxonomy.categories(queries[i], hypotheses[i], contains[i]), vote.predict(queries[i]))

    twin = build()
    serial = [task(twin, i) for i in range(THREADS)]
    for _ in range(ROUNDS):
        fresh = build()
        for row in run_concurrently(lambda i: task(fresh, i)):
            assert row == serial
