"""Which library functions the traced run wraps, and under which span names.

Every name is wrapped where the library looks it up (the module global or
class attribute the caller reads at call time), so ``src/`` stays untouched.
A span is named ``<module>.<function>``; the module is the layer.  Besides
the functions the per-layer metrics name, every library entry point the
benchmark calls is wrapped, so that no library time counts as the
benchmark's own.
"""

from __future__ import annotations

import dataclasses

import conformal
from conformal import cli, cp, data, icp, meta, ncm, regression, venn


def _rows_of(position):
    return lambda args, kwargs: len(args[position])


def _append_rows(args, kwargs):
    return len(args[0]) + len(args[1])


# (span name, owners the name is looked up in, attribute, rows counter or None)
TIMED = [
    ("data.load_csv", (data, cli, conformal), "load_csv", None),
    ("data.split", (data, cli, conformal), "split", None),
    ("data.Bag.append", (data.Bag,), "append", _append_rows),
    ("data.Bag.subset", (data.Bag,), "subset", None),
    ("ncm.knn_score_per_label", (ncm,), "knn_score_per_label", None),
    ("ncm.knn_scores", (ncm,), "knn_scores", _rows_of(2)),
    ("ncm.knn_regression_coeffs", (ncm,), "knn_regression_coeffs", _rows_of(2)),
    ("ncm.knn_regression_coeffs_n", (ncm,), "knn_regression_coeffs_n", None),
    ("cp.train", (cp.ConformalClassifier,), "train", None),
    ("cp.p_values", (cp.ConformalClassifier,), "p_values", _rows_of(1)),
    ("cp.score_online", (cp.ConformalClassifier,), "score_online", None),
    ("cp.sets_from_p_values", (cp, icp), "sets_from_p_values", None),
    ("icp.train", (icp.InductiveConformalClassifier,), "train", None),
    ("icp.calibrate", (icp.InductiveConformalClassifier,), "calibrate", None),
    ("icp.p_values", (icp.InductiveConformalClassifier,), "p_values", _rows_of(1)),
    ("regression.train", (regression.ConformalRegressor,), "train", None),
    ("regression.predict", (regression.ConformalRegressor,), "predict", _rows_of(1)),
    ("regression.score_online", (regression.ConformalRegressor,), "score_online", None),
    ("regression.prediction_intervals", (regression,), "prediction_intervals", None),
    ("venn.train", (venn.VennPredictor,), "train", None),
    ("venn.predict", (venn.VennPredictor,), "predict", None),
    ("venn.matrix", (venn.VennPredictor,), "matrix", None),
    ("venn.score_online", (venn.VennPredictor,), "score_online", None),
    ("venn.category", (venn.NearestNeighborTaxonomy,), "category", None),
    ("meta.train", (meta.CombinedClassifier,), "train", None),
    ("meta.kfold_meta_data", (meta,), "kfold_meta_data", None),
    ("meta.score_ratios", (meta,), "score_ratios", None),
    ("meta.threshold", (meta,), "roc_points", None),
    ("meta.threshold", (meta,), "rocch", None),
    ("meta.threshold", (meta,), "iso_precision_threshold", None),
    ("meta.predict", (meta.CombinedClassifier,), "predict", None),
    ("metrics.validity_report", (cp, icp, conformal.metrics), "validity_report", None),
    ("cli.main", (cli,), "main", None),
]

_INHERITED = object()

# hot leaves: run once per stored example per predicted row, so only counted
COUNTED = [
    ("regression.score_region", (regression,), "score_region"),
]


def install(tracer):
    """Wrap every traced name; returns a callable that restores the originals."""
    saved = []

    def replace(owners, attr, make):
        # a name the library no longer has is skipped: its counts read 0
        owners = [owner for owner in owners if hasattr(owner, attr)]
        if not owners:
            return
        wrapped = make(getattr(owners[0], attr))
        for owner in owners:
            saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
            setattr(owner, attr, wrapped)

    for name, owners, attr, rows in TIMED:
        replace(owners, attr, lambda fn, name=name, rows=rows: tracer.timed(name, fn, rows))
    for name, owners, attr in COUNTED:
        replace(owners, attr, lambda fn, name=name: tracer.counted(name, fn))
    replace((meta, cli), "conformal_meta_hooks", lambda fn: _counting_hooks(tracer, fn))

    def restore():
        for owner, attr, original in reversed(saved):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore


def _counting_hooks(tracer, make_hooks):
    """Count the rows the CLI's combined classifier sends to the base
    classifier and to the meta p-values after training, to compare with the
    number of test rows."""

    def wrapper(b_train, b_predict, measure_factory):
        hooks = make_hooks(b_train, b_predict, measure_factory)

        def counting(name, fn):
            def call(x):
                if tracer.inside("cli.main") and not tracer.inside("meta.train"):
                    tracer.rows[name] += len(x)
                return fn(x)

            return call

        return dataclasses.replace(
            hooks,
            b_predict=counting("meta.base_predict", hooks.b_predict),
            m_predict_pvals=counting("meta.meta_pvalue", hooks.m_predict_pvals),
        )

    return wrapper
