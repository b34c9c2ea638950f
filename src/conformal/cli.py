"""Command-line front end: run any predictor on CSV data, emit a JSON report.

Reports are deterministic given the inputs, flags and seed, and echo the
resolved configuration, so an invocation can be reproduced from its output.
Exit codes: 0 success, 1 data or runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cp import ConformalClassifier, CpConfig, label_taxonomy
from .data import Bag, SeededRng, SplitSpec, load_csv, split
from .icp import IcpConfig, InductiveConformalClassifier
from .meta import CombinedClassifier, conformal_meta_hooks
from .metrics import IntervalReport, ValidityReport, check_epsilons
from .ncm import (
    CartConfig,
    DecisionTreeMeasure,
    KnnClassifierMeasure,
    KnnConfig,
    KnnRegressionProvider,
    _feature_rows,
    _Neighbours,
    cart_train,
)
from .regression import ConformalRegressor, RrcmConfig
from .venn import NearestNeighborTaxonomy, VennPredictor


class UsageError(Exception):
    """Bad flag value or spec string; maps to exit code 2."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conformal",
        description="Conformal prediction on CSV data with machine-readable reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, epsilons=True):
        p.add_argument("--train", required=True, help="training CSV")
        p.add_argument("--test", required=True, help="test CSV")
        p.add_argument("--label-column", default="label",
                       help="label column name, or zero-based index if all digits")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None, help="report file (default: stdout)")
        if epsilons:
            p.add_argument("--epsilons", default="0.05,0.1,0.2",
                           help="comma-separated significance levels")

    p_cp = sub.add_parser("cp", help="conformal classifier")
    common(p_cp)
    p_cp.add_argument("--ncm", default="knn:k=1", help="nonconformity measure spec")
    p_cp.add_argument("--taxonomy", default="none", choices=["none", "label"])
    p_cp.add_argument("--smoothed", action="store_true")
    p_cp.add_argument("--online", action="store_true", help="score the test file as a stream")

    p_icp = sub.add_parser("icp", help="inductive conformal classifier")
    common(p_icp)
    p_icp.add_argument("--ncm", default="knn:k=1", help="nonconformity measure spec")
    p_icp.add_argument("--taxonomy", default="none", choices=["none", "label"])
    p_icp.add_argument("--smoothed", action="store_true")
    source = p_icp.add_mutually_exclusive_group(required=True)
    source.add_argument("--calibration", default=None, help="calibration CSV")
    source.add_argument("--calibration-fraction", type=float, default=None,
                        help="split the training file instead: fraction kept for training")
    p_icp.add_argument("--include-test-in-count", action="store_true",
                       help="count the test example in the p-value numerator")

    p_rrcm = sub.add_parser("rrcm", help="regression conformal predictor")
    common(p_rrcm)
    p_rrcm.add_argument("--ncm", default="knn:k=1", help="coefficient provider spec")
    p_rrcm.add_argument("--convex-hull", action=argparse.BooleanOptionalAction, default=True)
    p_rrcm.add_argument("--online", action="store_true")

    p_venn = sub.add_parser("venn", help="Venn multi-probabilistic predictor")
    common(p_venn, epsilons=False)
    p_venn.add_argument("--taxonomy", default="knn1", choices=["knn1"])
    p_venn.add_argument("--online", action="store_true")

    p_meta = sub.add_parser("meta", help="combined abstaining classifier")
    common(p_meta, epsilons=False)
    p_meta.add_argument("--base", default="knn:k=3", help="base classifier spec")
    p_meta.add_argument("--ncm", default="knn:k=1", help="meta classifier measure spec")
    p_meta.add_argument("--k-folds", type=int, default=5)
    p_meta.add_argument("--target-precision", type=float, default=0.9)
    p_meta.add_argument("--emit-roc", default=None, help="write ROC/hull/isometric records here")
    p_meta.add_argument("--stratified", action="store_true")

    return parser


# ---------------------------------------------------------------------------
# spec strings
# ---------------------------------------------------------------------------


def _parse_spec(text: str) -> tuple[str, dict]:
    name, _, tail = text.partition(":")
    name = name.strip()
    if not name:
        raise UsageError(f"empty spec string {text!r}")
    params: dict = {}
    if tail:
        for item in tail.split(","):
            key, sep, raw = item.partition("=")
            if not sep or not key.strip():
                raise UsageError(f"malformed spec parameter {item!r} in {text!r}")
            value: object
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
            params[key.strip()] = value
    return name, params


def _classification_measure(spec: str):
    name, params = _parse_spec(spec)
    try:
        if name == "knn":
            return KnnClassifierMeasure(KnnConfig(**params))
        if name == "cart":
            return DecisionTreeMeasure(CartConfig(**params))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad parameters for {name!r}: {exc}") from None
    raise UsageError(f"unknown nonconformity measure {name!r} (try knn:k=1 or cart:max_depth=3)")


def _regression_provider(spec: str):
    name, params = _parse_spec(spec)
    if name != "knn":
        raise UsageError(f"unknown coefficient provider {name!r} (try knn:k=1)")
    try:
        return KnnRegressionProvider(KnnConfig(**params))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad parameters for 'knn': {exc}") from None


def _taxonomy(name: str):
    return None if name == "none" else label_taxonomy


def _epsilons(text: str) -> tuple[float, ...]:
    try:
        return check_epsilons(float(t) for t in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad epsilon list {text!r}: {exc}") from None


def _label_column(text: str):
    return int(text) if text.isdigit() else text


# ---------------------------------------------------------------------------
# tiny base classifiers for the meta command
# ---------------------------------------------------------------------------


class _KnnBase:
    """Majority vote of the k nearest training rows by (distance, index),
    vote ties to the smallest label."""

    def __init__(self, config: KnnConfig):
        self.k = config.k

    def fit(self, x, y):
        self._knn = _Neighbours(_feature_rows(x))
        self._labels = sorted(set(y))  # code order, so argmax breaks vote ties
        code_of = {lbl: c for c, lbl in enumerate(self._labels)}
        self._codes = np.array([code_of[lbl] for lbl in y], dtype=int)

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        _, idx, _ = self._knn.smallest(x, min(self.k, len(self._codes)), index=True)
        votes = self._codes[idx[:, 0], None] == np.arange(len(self._labels))
        return [self._labels[c] for c in votes.sum(axis=1).argmax(axis=1)]


class _CartBase:
    def __init__(self, config: CartConfig):
        self.config = config
        self._tree = None

    def fit(self, x, y):
        self._tree = cart_train(self.config, Bag.classification(x, y))

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        out = []
        for row in x:
            leaf = self._tree.leaf(row)
            out.append(self._tree.label_space[int(leaf.counts.argmax())])
        return out


def _base_classifier(spec: str):
    name, params = _parse_spec(spec)
    try:
        if name == "knn":
            return _KnnBase(KnnConfig(**params))
        if name == "cart":
            return _CartBase(CartConfig(**params))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad parameters for {name!r}: {exc}") from None
    raise UsageError(f"unknown base classifier {name!r} (try knn:k=3 or cart:max_depth=3)")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _validity_json(report: ValidityReport) -> dict:
    return {
        "trials": report.trials,
        "per_epsilon": [
            {
                "epsilon": eps,
                "err_rate": stats.err_rate,
                "n_criterion": stats.n_criterion,
                "singleton_rate": stats.singleton_rate,
                "empty_rate": stats.empty_rate,
            }
            for eps, stats in report.per_epsilon.items()
        ],
    }


def _interval_json(report: IntervalReport) -> dict:
    return {
        "trials": report.trials,
        "per_epsilon": [
            {"epsilon": eps, "miss_rate": stats.miss_rate, "mean_width": stats.mean_width}
            for eps, stats in report.per_epsilon.items()
        ],
    }


def _run_cp(args) -> dict:
    epsilons = _epsilons(args.epsilons)
    column = _label_column(args.label_column)
    train_bag = load_csv(args.train, column, "class")
    test_bag = load_csv(args.test, column, "class")
    config = CpConfig(epsilons=epsilons, smoothed=args.smoothed, taxonomy=_taxonomy(args.taxonomy))
    classifier = ConformalClassifier(_classification_measure(args.ncm), config)
    classifier.train(train_bag)
    rng = SeededRng(args.seed)
    report = classifier.score_online(test_bag, rng) if args.online else classifier.score(test_bag, rng)
    return {
        "command": "cp",
        "config": {
            "train": args.train,
            "test": args.test,
            "label_column": args.label_column,
            "ncm": args.ncm,
            "taxonomy": args.taxonomy,
            "epsilons": list(epsilons),
            "smoothed": args.smoothed,
            "online": args.online,
            "seed": args.seed,
        },
        "report": _validity_json(report),
    }


def _run_icp(args) -> dict:
    if args.calibration_fraction is not None and not 0.0 < args.calibration_fraction < 1.0:
        raise UsageError("--calibration-fraction must lie in (0, 1)")
    epsilons = _epsilons(args.epsilons)
    column = _label_column(args.label_column)
    train_bag = load_csv(args.train, column, "class")
    if args.calibration is not None:
        calibration_bag = load_csv(args.calibration, column, "class")
    else:
        train_bag, calibration_bag = split(
            train_bag, SplitSpec(args.calibration_fraction, args.seed)
        )
    test_bag = load_csv(args.test, column, "class")
    config = IcpConfig(
        epsilons=epsilons,
        smoothed=args.smoothed,
        taxonomy=_taxonomy(args.taxonomy),
        include_test_in_count=args.include_test_in_count,
    )
    classifier = InductiveConformalClassifier(_classification_measure(args.ncm), config)
    classifier.train(train_bag)
    classifier.calibrate(calibration_bag)
    report = classifier.score(test_bag, SeededRng(args.seed))
    return {
        "command": "icp",
        "config": {
            "train": args.train,
            "calibration": args.calibration,
            "calibration_fraction": args.calibration_fraction,
            "test": args.test,
            "label_column": args.label_column,
            "ncm": args.ncm,
            "taxonomy": args.taxonomy,
            "epsilons": list(epsilons),
            "smoothed": args.smoothed,
            "include_test_in_count": args.include_test_in_count,
            "calibration_scores": classifier.calibration_count,
            "seed": args.seed,
        },
        "report": _validity_json(report),
    }


def _run_rrcm(args) -> dict:
    epsilons = _epsilons(args.epsilons)
    column = _label_column(args.label_column)
    train_bag = load_csv(args.train, column, "real")
    test_bag = load_csv(args.test, column, "real")
    config = RrcmConfig(epsilons=epsilons, convex_hull=args.convex_hull)
    predictor = ConformalRegressor(_regression_provider(args.ncm), config)
    predictor.train(train_bag)
    report = predictor.score_online(test_bag) if args.online else predictor.score(test_bag)
    return {
        "command": "rrcm",
        "config": {
            "train": args.train,
            "test": args.test,
            "label_column": args.label_column,
            "ncm": args.ncm,
            "epsilons": list(epsilons),
            "convex_hull": args.convex_hull,
            "online": args.online,
            "seed": args.seed,
        },
        "report": _interval_json(report),
    }


def _run_venn(args) -> dict:
    column = _label_column(args.label_column)
    train_bag = load_csv(args.train, column, "class")
    test_bag = load_csv(args.test, column, "class")
    predictor = VennPredictor(NearestNeighborTaxonomy())
    predictor.train(train_bag)
    report = predictor.score_online(test_bag) if args.online else predictor.score(test_bag)
    return {
        "command": "venn",
        "config": {
            "train": args.train,
            "test": args.test,
            "label_column": args.label_column,
            "taxonomy": args.taxonomy,
            "online": args.online,
            "seed": args.seed,
        },
        "report": {
            "trials": report.trials,
            "accuracy": report.accuracy,
            "mean_error_interval": [report.mean_error_low, report.mean_error_high],
            "mean_interval_width": report.mean_interval_width,
        },
    }


def _run_meta(args) -> dict:
    column = _label_column(args.label_column)
    train_bag = load_csv(args.train, column, "class")
    test_bag = load_csv(args.test, column, "class")
    base = _base_classifier(args.base)
    _classification_measure(args.ncm)  # a bad --ncm is a usage error before any training
    hooks = conformal_meta_hooks(base.fit, base.predict, lambda: _classification_measure(args.ncm))
    if args.k_folds < 2 or args.k_folds > len(train_bag):
        raise UsageError(f"--k-folds must lie in [2, {len(train_bag)}]")
    if not 0.0 < args.target_precision < 1.0:
        raise UsageError("--target-precision must lie in (0, 1)")
    combined = CombinedClassifier(hooks, args.target_precision, seed=args.seed,
                                  stratified=args.stratified)
    combined.train(train_bag, args.k_folds, emit_roc=args.emit_roc)
    cm, rates = combined.score(test_bag)
    return {
        "command": "meta",
        "config": {
            "train": args.train,
            "test": args.test,
            "label_column": args.label_column,
            "base": args.base,
            "ncm": args.ncm,
            "k_folds": args.k_folds,
            "target_precision": args.target_precision,
            "stratified": args.stratified,
            "emit_roc": args.emit_roc,
            "seed": args.seed,
        },
        "report": {
            "threshold": combined.threshold.t,
            "threshold_warning": combined.threshold.warning,
            "diagnostics": combined.diagnostics,
            "confusion": {"tp": cm.tp, "tn": cm.tn, "fp": cm.fp,
                          "fn": cm.fn, "rp": cm.rp, "rn": cm.rn},
            "metrics": rates,
            "abstained": cm.rp + cm.rn,
            "trials": len(test_bag),
        },
    }


_COMMANDS = {
    "cp": _run_cp,
    "icp": _run_icp,
    "rrcm": _run_rrcm,
    "venn": _run_venn,
    "meta": _run_meta,
}


if __name__ == "__main__":
    sys.exit(main())
