import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from _support import gaussian_blobs
import conformal
from conformal import (
    ABSTAIN,
    Bag,
    ClassifierHooks,
    CombinedClassifier,
    KnnClassifierMeasure,
    KnnConfig,
    MetaExample,
    RocPoint,
    conformal_meta_hooks,
    iso_precision_threshold,
    kfold_meta_data,
    roc_points,
    rocch,
    score_ratios,
)

INF = math.inf


class PerfectBase:
    def __init__(self):
        self._y = {}

    def fit(self, x, y):
        self._y = {tuple(row): label for row, label in zip(np.asarray(x), y)}

    def predict(self, x):
        return [self._y.get(tuple(row), "?") for row in np.asarray(x)]


class ConstantBase:
    def __init__(self, label):
        self.label = label

    def fit(self, x, y):
        pass

    def predict(self, x):
        return [self.label] * len(x)


def hooks_for(base, m_train=None, m_predict=None):
    return ClassifierHooks(base.fit, base.predict, m_train, m_predict)


class TestKfoldMetaData:
    BAG = gaussian_blobs(10, seed=1)

    def test_perfect_base_gives_all_ones(self):
        base = PerfectBase()
        base.fit(self.BAG.x, self.BAG.y)  # memorize everything up front
        meta = kfold_meta_data(ClassifierHooks(lambda x, y: None, base.predict),
                               self.BAG, 3, seed=0)
        assert [m.meta_label for m in meta] == [1] * 10

    def test_constant_wrong_base_gives_all_zeros(self):
        meta = kfold_meta_data(hooks_for(ConstantBase("Z")), self.BAG, 3, seed=0)
        assert [m.meta_label for m in meta] == [0] * 10

    def test_fold_sizes_near_equal(self):
        from conformal.meta import _fold_indices

        sizes = sorted(len(f) for f in _fold_indices(10, 3, seed=4))
        assert sizes == [3, 3, 4]

    def test_every_example_appears_once_in_bag_order(self):
        meta = kfold_meta_data(hooks_for(ConstantBase("A")), self.BAG, 4, seed=2)
        assert len(meta) == len(self.BAG)
        for m, x in zip(meta, self.BAG.x):
            np.testing.assert_array_equal(m.x, x)

    def test_k_larger_than_bag_rejected(self):
        with pytest.raises(ValueError, match="folds"):
            kfold_meta_data(hooks_for(ConstantBase("A")), self.BAG, 11)

    def test_stratified_folds_balance_labels(self):
        from conformal.meta import _fold_indices

        labels = ["A"] * 8 + ["B"] * 4
        folds = _fold_indices(12, 4, seed=1, labels=labels)
        for fold in folds:
            counts = {lbl: sum(labels[i] == lbl for i in fold) for lbl in "AB"}
            assert counts["A"] == 2 and counts["B"] == 1

    def test_meta_example_label_validated(self):
        with pytest.raises(ValueError):
            MetaExample(np.zeros(2), 2)


class TestScoreRatios:
    def _meta(self, labels):
        rng = np.random.default_rng(3)
        return [MetaExample(rng.standard_normal(2), lbl) for lbl in labels]

    def test_ratio_arithmetic(self):
        collected = {}

        def m_train(x, y):
            pass

        def m_predict(x):
            return np.array([[0.2, 0.8]] * len(x))

        meta = self._meta([1, 0] * 5)
        ratios = score_ratios(ClassifierHooks(None, None, m_train, m_predict), meta, 2, seed=0)
        assert len(ratios) == 10
        assert all(r == pytest.approx(4.0) for r, _ in ratios)

    def test_zero_negative_p_value_gives_sentinel(self):
        def m_predict(x):
            return np.array([[0.0, 0.5]] * len(x))

        meta = self._meta([1, 0] * 4)
        ratios = score_ratios(ClassifierHooks(None, None, lambda x, y: None, m_predict),
                              meta, 2, seed=0)
        assert all(r == INF for r, _ in ratios)

    def test_single_class_fold_rejected(self):
        meta = self._meta([1] * 9 + [0])
        with pytest.raises(ValueError, match="single meta class"):
            score_ratios(ClassifierHooks(None, None, lambda x, y: None,
                                         lambda x: np.ones((len(x), 2))),
                         meta, 5, seed=0)

    def test_single_class_overall_rejected(self):
        meta = self._meta([1] * 10)
        with pytest.raises(ValueError, match="both meta classes"):
            score_ratios(ClassifierHooks(None, None, lambda x, y: None,
                                         lambda x: np.ones((len(x), 2))),
                         meta, 2, seed=0)


class TestRocPoints:
    def test_hand_swept_staircase(self):
        points = roc_points([(3.0, 1), (2.0, 1), (1.0, 0)])
        assert [(p.fpr, p.tpr) for p in points] == [(0, 0), (0, 0.5), (0, 1.0), (1.0, 1.0)]
        assert points[0].score_ratio == INF
        assert points[-1].score_ratio == 1.0

    def test_identical_ratios_collapse(self):
        points = roc_points([(2.0, 1), (2.0, 0), (2.0, 1)])
        assert [(p.fpr, p.tpr) for p in points] == [(0, 0), (1.0, 1.0)]

    def test_perfect_ranking_passes_corner(self):
        points = roc_points([(9.0, 1), (8.0, 1), (0.5, 0), (0.4, 0)])
        assert (0.0, 1.0) in [(p.fpr, p.tpr) for p in points]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both meta classes"):
            roc_points([(1.0, 1), (2.0, 1)])


def brute_force_upper_hull(points):
    """All-pairs oracle: a point survives when no other point or segment
    dominates it from above, and no collinear pair brackets it.  The hull
    endpoints (0,0) and (1,1) are always kept."""
    pts = sorted({(p.fpr, p.tpr) for p in points})
    keep = []
    for x, y in pts:
        if (x, y) in ((0.0, 0.0), (1.0, 1.0)):
            keep.append((x, y))
            continue
        dominated = any(qx == x and qy > y for qx, qy in pts)
        if not dominated:
            for (qx, qy) in pts:
                if dominated:
                    break
                for (rx, ry) in pts:
                    if qx < x < rx:
                        height = qy + (ry - qy) * (x - qx) / (rx - qx)
                        if height > y + 1e-12 or abs(height - y) <= 1e-12:
                            dominated = True
                            break
        if not dominated:
            keep.append((x, y))
    return keep


class TestRocch:
    def test_hand_example(self):
        points = [RocPoint(0, 0, INF), RocPoint(0.5, 0.5, 2.0),
                  RocPoint(0.2, 0.8, 3.0), RocPoint(1, 1, 1.0)]
        hull = rocch(points)
        assert [(p.fpr, p.tpr) for p in hull] == [(0, 0), (0.2, 0.8), (1, 1)]
        assert hull[1].score_ratio == 3.0

    def test_collinear_interior_dropped(self):
        points = [RocPoint(0, 0, INF), RocPoint(0.5, 0.5, 2.0), RocPoint(1, 1, 1.0)]
        hull = rocch(points)
        assert [(p.fpr, p.tpr) for p in hull] == [(0, 0), (1, 1)]

    def test_convex_staircase_kept(self):
        points = [RocPoint(0, 0, INF), RocPoint(0, 0.6, 5.0),
                  RocPoint(0.3, 0.9, 2.0), RocPoint(1, 1, 0.5)]
        hull = rocch(points)
        assert [(p.fpr, p.tpr) for p in hull] == [(0, 0), (0, 0.6), (0.3, 0.9), (1, 1)]

    def test_every_point_on_or_below_hull(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            raw = rng.integers(0, 9, size=(int(rng.integers(2, 30)), 2)) / 8.0
            points = [RocPoint(0, 0, INF)] + [
                RocPoint(x, y, 1.0) for x, y in raw
            ] + [RocPoint(1, 1, 0.1)]
            hull = rocch(points)
            xs = [p.fpr for p in hull]
            ys = [p.tpr for p in hull]
            for p in points:
                height = np.interp(p.fpr, xs, ys)
                assert p.tpr <= height + 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            raw = rng.integers(0, 9, size=(int(rng.integers(2, 40)), 2)) / 8.0
            points = [RocPoint(0, 0, INF)] + [
                RocPoint(x, y, 1.0) for x, y in raw
            ] + [RocPoint(1, 1, 0.1)]
            hull = [(p.fpr, p.tpr) for p in rocch(points)]
            assert hull == brute_force_upper_hull(points)

    def test_staircase_lies_under_its_hull(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            ratios = list(zip(rng.uniform(0, 5, size=n), rng.integers(0, 2, size=n)))
            if not 0 < sum(lbl for _, lbl in ratios) < n:
                continue
            staircase = roc_points(ratios)
            hull = rocch(staircase)
            xs = [p.fpr for p in hull]
            ys = [p.tpr for p in hull]
            for p in staircase:
                assert p.tpr <= np.interp(p.fpr, xs, ys) + 1e-12

    def test_endpoints_required(self):
        with pytest.raises(ValueError, match=r"\(0,0\) and \(1,1\)"):
            rocch([RocPoint(0.1, 0.1, 1.0), RocPoint(1, 1, 0.5)])


HULL = [RocPoint(0, 0, INF), RocPoint(0.2, 0.8, 2.5), RocPoint(1, 1, 0.3)]


class TestIsoPrecisionThreshold:
    def test_worked_example_selects_vertex_ratio(self):
        # slope 4 runs along the first segment; the top intersection is the vertex
        threshold = iso_precision_threshold(HULL, 0.8, n_neg=10, n_pos=10)
        assert threshold.t == 2.5
        assert not threshold.warning

    def test_accept_all_precision_gives_zero_threshold(self):
        # slope 1 meets the hull at (1, 1): no abstention needed
        threshold = iso_precision_threshold(HULL, 0.5, n_neg=10, n_pos=10)
        assert threshold.t == 0.0
        assert not threshold.warning

    def test_perfect_hull_vertex(self):
        hull = [RocPoint(0, 0, INF), RocPoint(0, 1, 4.0), RocPoint(1, 1, 0.5)]
        threshold = iso_precision_threshold(hull, 0.9, n_neg=5, n_pos=5)
        # mid-segment intersection on the top edge takes the larger endpoint ratio
        assert threshold.t == 4.0
        assert not threshold.warning

    def test_mid_segment_takes_larger_endpoint_ratio(self):
        threshold = iso_precision_threshold(HULL, 0.75, n_neg=10, n_pos=10)
        # slope 3 crosses the second segment strictly inside
        assert threshold.t == 2.5
        assert not threshold.warning

    def test_degenerate_hull_warns_with_zero(self):
        degenerate = [RocPoint(0, 0, INF), RocPoint(1, 1, 1.0)]
        threshold = iso_precision_threshold(degenerate, 0.4, n_neg=10, n_pos=10)
        assert threshold.t == 0.0
        assert threshold.warning

    def test_unreachable_target_warns(self):
        threshold = iso_precision_threshold(HULL, 0.9, n_neg=30, n_pos=10)
        # slope 27 exceeds the steepest hull slope
        assert threshold.t == 0.0
        assert threshold.warning

    def test_slope_formula(self):
        target, n_neg, n_pos = 0.8, 6, 2
        assert target / (1 - target) * (n_neg / n_pos) == pytest.approx(12.0)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            iso_precision_threshold(HULL, 1.0, 1, 1)


class FixedRatioMeta:
    """Meta classifier stub mapping stored x rows to preset ratios.

    p_neg is a power of two so dividing p_pos by it reconstructs the ratio
    exactly.
    """

    def __init__(self, ratio_fn):
        self.ratio_fn = ratio_fn

    def train(self, x, y):
        pass

    def predict_pvals(self, x):
        ratios = np.array([self.ratio_fn(row) for row in np.asarray(x)])
        p_neg = np.full(len(ratios), 0.25)
        return np.column_stack([p_neg, 0.25 * ratios])


class TestCombinedClassifier:
    def _combined(self, target=0.8, seed=0):
        blobs = gaussian_blobs(80, seed=21, centers=((0, 0), (1.4, 1.4)))
        base = _Nearest(blobs.label_space)
        hooks = conformal_meta_hooks(base.fit, base.predict, lambda: KnnClassifierMeasure(KnnConfig(k=3)))
        return CombinedClassifier(hooks, target, seed=seed), blobs

    def test_train_exposes_threshold_and_diagnostics(self):
        combined, bag = self._combined()
        combined.train(bag, 4)
        assert combined.threshold is not None
        diag = combined.diagnostics
        assert diag["k_folds"] == 4
        assert diag["n_pos"] + diag["n_neg"] == len(bag)
        assert sorted(diag["fold_sizes"]) == [20, 20, 20, 20]

    def test_deterministic_given_seed(self):
        a, bag = self._combined(seed=3)
        b, _ = self._combined(seed=3)
        a.train(bag, 4)
        b.train(bag, 4)
        assert a.threshold == b.threshold
        x = bag.x[:10]
        assert a.predict(x) == b.predict(x)

    def test_emit_roc_format(self, tmp_path):
        combined, bag = self._combined()
        path = tmp_path / "roc.tsv"
        combined.train(bag, 4, emit_roc=path)
        lines = path.read_text().strip().split("\n")
        kinds = {line.split("\t")[0] for line in lines}
        assert kinds == {"roc", "hull", "iso"}
        for line in lines:
            kind, fpr, tpr, ratio = line.split("\t")
            assert 0.0 <= float(fpr) <= 1.0
            assert 0.0 <= float(tpr) <= 1.0
            float(ratio)  # parses (may be inf)
        assert sum(1 for l in lines if l.startswith("iso\t")) == 2

    def test_predict_threshold_semantics(self):
        meta_stub = FixedRatioMeta(lambda row: float(row[0]))
        base = ConstantBase("A")
        hooks = ClassifierHooks(base.fit, base.predict, meta_stub.train, meta_stub.predict_pvals)
        combined = CombinedClassifier(hooks, 0.8)
        combined.threshold = __import__("conformal").Threshold(2.0)
        x = np.array([[1.0], [2.0], [3.0]])
        out = combined.predict(x)
        assert out[0] is ABSTAIN          # below threshold
        assert out[1] is ABSTAIN          # exactly at threshold: strict inequality
        assert out[2] == "A"

    def test_zero_threshold_never_abstains(self):
        meta_stub = FixedRatioMeta(lambda row: 0.5)
        base = ConstantBase("A")
        hooks = ClassifierHooks(base.fit, base.predict, meta_stub.train, meta_stub.predict_pvals)
        combined = CombinedClassifier(hooks, 0.8)
        combined.threshold = __import__("conformal").Threshold(0.0)
        assert ABSTAIN not in combined.predict(np.zeros((5, 1)))

    def test_infinite_threshold_always_abstains(self):
        meta_stub = FixedRatioMeta(lambda row: 100.0)
        base = ConstantBase("A")
        hooks = ClassifierHooks(base.fit, base.predict, meta_stub.train, meta_stub.predict_pvals)
        combined = CombinedClassifier(hooks, 0.8)
        combined.threshold = __import__("conformal").Threshold(INF)
        assert all(d is ABSTAIN for d in combined.predict(np.zeros((4, 1))))

    def test_score_all_correct_no_abstention(self):
        combined, bag = self._combined()
        base = PerfectBase()
        base.fit(bag.x, bag.y)
        meta_stub = FixedRatioMeta(lambda row: 10.0)
        hooks = ClassifierHooks(lambda x, y: None, base.predict,
                                meta_stub.train, meta_stub.predict_pvals)
        combined = CombinedClassifier(hooks, 0.8)
        combined.threshold = __import__("conformal").Threshold(1.0)
        cm, rates = combined.score(bag)
        assert rates["accuracy"] == 1.0
        assert rates["rejection"] == 0.0
        assert cm.fp == cm.rp == cm.rn == 0

    def test_score_all_abstained(self):
        combined, bag = self._combined()
        meta_stub = FixedRatioMeta(lambda row: 0.1)
        base = ConstantBase(bag.label_space[0])
        hooks = ClassifierHooks(base.fit, base.predict, meta_stub.train, meta_stub.predict_pvals)
        combined = CombinedClassifier(hooks, 0.8)
        combined.threshold = __import__("conformal").Threshold(1.0)
        cm, rates = combined.score(bag)
        assert rates["rejection"] == 1.0
        assert rates["accuracy"] is None

    def test_score_runs_each_classifier_once_per_row(self):
        meta_stub = FixedRatioMeta(lambda row: float(row[0]))
        base = ConstantBase("A")
        rows = {"base": 0, "meta": 0}

        def counted(name, fn):
            def call(x):
                rows[name] += len(x)
                return fn(x)
            return call

        hooks = ClassifierHooks(base.fit, counted("base", base.predict),
                                meta_stub.train, counted("meta", meta_stub.predict_pvals))
        combined = CombinedClassifier(hooks, 0.8)
        combined.threshold = __import__("conformal").Threshold(5.0)
        bag = Bag.classification([[float(i)] for i in range(10)],
                                 ["A" if i % 3 else "B" for i in range(10)])
        cm, _ = combined.score(bag)
        assert rows == {"base": 10, "meta": 10}
        assert cm.rp + cm.rn == sum(d is ABSTAIN for d in combined.predict(bag.x)) == 6

    def test_rows_of_another_width_rejected_before_any_hook(self):
        combined, bag = self._combined()
        combined.train(bag, 4)
        calls = []
        combined.hooks = ClassifierHooks(combined.hooks.b_train, lambda x: calls.append(x),
                                         combined.hooks.m_train, lambda x: calls.append(x))
        for width in (1, 3):
            with pytest.raises(ValueError, match="matrix with 2 columns"):
                combined.predict(np.zeros((4, width)))
            with pytest.raises(ValueError, match="matrix with 2 columns"):
                combined.score(Bag.classification(np.zeros((4, width)), ["A"] * 4, bag.label_space))
        assert calls == []

    def test_raising_threshold_monotone_in_tp_fp(self):
        meta_stub = FixedRatioMeta(lambda row: float(row[0]))
        bag = Bag.classification([[float(i)] for i in range(20)],
                                 ["A" if i % 2 else "B" for i in range(20)])
        base = ConstantBase("A")
        hooks = ClassifierHooks(base.fit, base.predict, meta_stub.train, meta_stub.predict_pvals)
        previous_tp, previous_fp = INF, INF
        for t in (0.0, 5.0, 10.0, 15.0, 25.0):
            combined = CombinedClassifier(hooks, 0.8)
            combined.threshold = __import__("conformal").Threshold(t)
            cm, _ = combined.score(bag)
            assert cm.tp <= previous_tp and cm.fp <= previous_fp
            previous_tp, previous_fp = cm.tp, cm.fp


class _Nearest:
    """1-nearest-neighbour base classifier used by combined-classifier tests."""

    def __init__(self, label_space):
        self.label_space = label_space
        self._x = None
        self._y = None

    def fit(self, x, y):
        self._x = np.asarray(x, dtype=float)
        self._y = list(y)

    def predict(self, x):
        from conformal.ncm import _pairwise_sq_dists

        d = _pairwise_sq_dists(np.asarray(x, dtype=float), self._x)
        return [self._y[j] for j in d.argmin(axis=1)]


def test_training_a_combined_classifier_does_not_import_numpy_ma():
    # numpy.ma adds about 2 MB to a process; the fold complements need no
    # set routine.  A fresh interpreter, since this one may import it anyway.
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from conformal import Bag, CombinedClassifier, KnnClassifierMeasure, KnnConfig
        from conformal import conformal_meta_hooks

        rng = np.random.default_rng(0)
        bag = Bag.classification(rng.standard_normal((40, 2)), ["A", "B"] * 20, ("A", "B"))
        hooks = conformal_meta_hooks(
            lambda x, y: None, lambda x: ["A"] * len(x), lambda: KnnClassifierMeasure(KnnConfig(k=1))
        )
        CombinedClassifier(hooks, 0.8).train(bag, 4)
        sys.exit("numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(conformal.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0
