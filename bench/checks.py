"""Output checks for every benchmark operation, and the output digest.

Each ``check_*`` appends a short description of every violated invariant to
``problems``; an operation with any problem counts as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np


def check_p_table(problems, tag, table, n, labels, zero_ok):
    """p-values lie in (0, 1], or [0, 1] for the literal inductive formula."""
    values = table.values
    if values.shape != (n, len(labels)) or tuple(table.labels) != tuple(labels):
        problems.append(f"{tag}: p-value table has the wrong shape or labels")
        return
    low_ok = values >= 0 if zero_ok else values > 0
    if not np.all(low_ok & (values <= 1)):
        problems.append(f"{tag}: p-values outside {'[0, 1]' if zero_ok else '(0, 1]'}")


def check_sets(problems, tag, table, sets, epsilons):
    """Sets hold exactly the labels with p > epsilon and shrink as epsilon grows."""
    if len(sets) != len(table.values):
        problems.append(f"{tag}: one prediction set per row expected")
        return
    for row, prediction in zip(table.values, sets):
        previous = None
        for eps in epsilons:
            labels = prediction.labels_at(eps)
            if labels != tuple(lbl for lbl, p in zip(table.labels, row) if p > eps):
                problems.append(f"{tag}: set at {eps} disagrees with the p-values")
            if previous is not None and not set(labels) <= set(previous):
                problems.append(f"{tag}: sets not nested across epsilon")
            previous = labels


def check_validity(problems, tag, report, n, epsilons):
    """``trials`` equals the rows sent and every rate lies in [0, 1]."""
    if report.trials != n or tuple(report.per_epsilon) != tuple(epsilons):
        problems.append(f"{tag}: report covers {report.trials} trials, {n} rows were sent")
    for stats in report.per_epsilon.values():
        rates = (stats.err_rate, stats.singleton_rate, stats.empty_rate)
        if not all(0.0 <= r <= 1.0 for r in rates) or stats.n_criterion < 0:
            problems.append(f"{tag}: report rates outside [0, 1]")


def check_venn(problems, predictions, intervals, matrix, n, labels):
    """Labels from the label space, error intervals in [0, 1], and for the
    batch's first row a matrix whose rows sum to 1 and that yields the
    returned prediction and interval."""
    if len(predictions) != n or len(intervals) != n:
        problems.append("venn: one prediction and interval per row expected")
        return
    if any(p not in labels for p in predictions):
        problems.append("venn: prediction outside the label space")
    if any(not 0.0 <= i.low <= i.high <= 1.0 for i in intervals):
        problems.append("venn: error interval outside [0, 1]")
    rows = matrix.rows
    if rows.shape != (len(labels), len(labels)) or np.any(np.abs(rows.sum(axis=1) - 1) > 1e-12):
        problems.append("venn: matrix rows do not sum to 1")
        return
    best = int(rows.min(axis=0).argmax())
    column = rows[:, best]
    if predictions[0] != labels[best] or (intervals[0].low, intervals[0].high) != (
        1.0 - float(column.max()), 1.0 - float(column.min())
    ):
        problems.append("venn: prediction disagrees with its matrix")


def check_unions(problems, prediction, epsilons, hull):
    """Sorted, disjoint closed pieces, nested across epsilon; one piece at most
    in convex-hull mode."""
    previous = None
    for eps in epsilons:
        pieces = prediction.intervals_at(eps)
        if any(lo > hi or math.isnan(lo) or math.isnan(hi) for lo, hi in pieces):
            problems.append(f"rrcm: malformed piece at {eps}")
        if any(a[1] >= b[0] for a, b in zip(pieces, pieces[1:])):
            problems.append(f"rrcm: pieces at {eps} not sorted and disjoint")
        if hull and len(pieces) > 1:
            problems.append(f"rrcm: convex-hull union at {eps} has {len(pieces)} pieces")
        if previous is not None and not all(
            any(plo <= lo and hi <= phi for plo, phi in previous) for lo, hi in pieces
        ):
            problems.append(f"rrcm: union at {eps} not inside the union at the previous level")
        previous = pieces


def check_interval_report(problems, tag, report, n, epsilons):
    """``trials`` equals the rows sent; miss rates in [0, 1] and, because the
    unions are nested, nondecreasing in epsilon."""
    misses = [report.per_epsilon[e].miss_rate for e in epsilons]
    if report.trials != n:
        problems.append(f"{tag}: report covers {report.trials} trials, {n} rows were sent")
    if any(not 0.0 <= m <= 1.0 for m in misses) or misses != sorted(misses):
        problems.append(f"{tag}: miss rates outside [0, 1] or not nested across epsilon")
    if any(report.per_epsilon[e].mean_width < 0 for e in epsilons):
        problems.append(f"{tag}: negative mean width")


def canonical(obj):
    """A JSON-ready form of an output in which every float keeps all its bits."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return canonical(dataclasses.asdict(obj))
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return [[canonical(k), canonical(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"no canonical form for {type(obj).__name__}")


class Digest:
    """SHA-256 over the canonical form of a fixed prefix of the outputs."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def feed(self, obj) -> None:
        self._hash.update(json.dumps(canonical(obj)).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
