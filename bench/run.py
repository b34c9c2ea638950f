#!/usr/bin/env python3
"""Benchmark of the conformal library and its CLI.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload classify --seed 1 --seconds 55 --trace 0

The run writes seeded CSVs into a temporary directory under ``bench/out``,
then, in rounds that together take about ``--seconds`` seconds, sets up the
workload's predictors from those files (``setup_s``), runs the workload's
CLI invocations in-process through ``conformal.cli.main`` and sends
fixed-size requests in a closed loop with one client; it checks every
output.  It prints a readable report and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also runs a
traced pass, which wraps the library's public functions where they are
looked up, and reports per-layer counts and self times instead; the spans
are written to ``bench/out``.  The exit code is 0 when every check passed,
1 when an output check failed, 2 when the library is missing, 3 when the
seed draws a degenerate data set, and 143 when the run is stopped by SIGTERM.
"""

from __future__ import annotations

import os

# pinned before numpy loads: the benchmark measures one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_REQUESTS = 100
# per round, short set-ups and CLI runs repeat until this much time is spent,
# so that their medians rest on several samples
MIN_SETUP_S = 0.5
MIN_CLI_S = 1.5
NO_WAIT = "none: one process, one thread, a closed loop with one client and no queues"


class Terminated(BaseException):
    """Raised on SIGTERM.  Not an ``Exception``, and not the ``SystemExit``
    that a CLI invocation is allowed to raise, so no handler of a failed
    operation swallows it and the run stops at once."""


def _terminate(signum, frame):
    raise Terminated(signum)


class Checker:
    """Counts operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def call(self, what, fn, *args):
        """Run one operation; an exception fails it. Returns (ok, result)."""
        try:
            return True, fn(*args)
        except Exception:  # any raise is a failed operation, reported with its traceback
            self.record([f"{what} raised:\n{traceback.format_exc()}"])
            return False, None

    def check(self, what, fn, *args):
        """Run a check that returns its problems, as one operation."""
        ok, problems = self.call(what, fn, *args)
        if ok:
            self.record(problems)


def _run_requests(wl, state, checker, digest, first, count=None, deadline=None, minimum=0,
                  tracer=None):
    """Closed loop: each request is sent when the previous one returned.

    Requests are numbered from ``first``.  Runs ``count`` requests, or,
    without a count, until the ``deadline`` (a ``perf_counter`` reading) has
    passed, at least ``minimum`` were sent and the workload is at a boundary.
    Returns the request latencies in seconds.
    """
    latencies = []
    # bounds a run if the library stalls
    wall_limit = (deadline if deadline is not None else perf_counter()) + 60
    i = first
    while True:
        sent = i - first
        if count is not None:
            if sent >= count:
                break
        elif sent >= minimum and perf_counter() >= deadline and wl.at_boundary(i) or (
                perf_counter() > wall_limit):
            break
        if tracer is not None:
            tracer.request = i
        ok, item = checker.call(f"request {i} preparation", wl.prepare, state, i)
        if not ok:
            break
        start = perf_counter()
        try:
            out = wl.request(state, item)
        except Exception:  # a raising request is a failed operation
            out = None
            error = traceback.format_exc()
        latencies.append(perf_counter() - start)
        if out is None:
            checker.record([f"request {i} raised:\n{error}"])
        else:
            checker.record(wl.check(state, item, out))
            if digest is not None and i < wl.digest_requests:
                digest.feed(wl.digest_items(out))
        i += 1
    return latencies


def _run_cli(wl, checker):
    """Run the workload's CLI invocations once; returns (wall time, reports),
    with ``None`` for the reports when an invocation failed."""
    import conformal.cli

    output = os.path.join(wl.dir, "report.json")
    elapsed = 0.0
    reports = []
    for argv in wl.cli_argv(output):
        start = perf_counter()
        try:
            code = conformal.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit
            code = exc.code
        elapsed += perf_counter() - start
        if code != 0:
            checker.record([f"cli {argv[0]} exited with {code}"])
            reports = None
            continue
        if reports is not None:
            with open(output, encoding="utf-8") as fh:
                reports.append(json.load(fh))
        checker.record([])
    if reports is not None:
        checker.check("cli check", wl.check_cli, reports)
    return elapsed, reports


def _setup(wl, checker):
    """Returns (set-up time, state), with ``None`` for a failed set-up."""
    start = perf_counter()
    ok, state = checker.call("setup", wl.setup)
    elapsed = perf_counter() - start
    if ok:
        checker.record([])
    return elapsed, state


def measure(wl, seconds, checker, digest):
    """The untraced run: end-to-end metrics.

    The run is ``wl.rounds`` rounds that together take about ``seconds`` of
    wall time.  Each round sets the workload up, runs the CLI invocations and
    then sends requests until its share of the time has passed, so that every
    metric samples the whole run.  ``setup_s`` and ``cli_s`` are medians over
    all repetitions; ``rows_per_s`` and the latency percentiles are over all
    requests.
    """
    setup_times, cli_times, latencies, round_rates = [], [], [], []
    first_reports = None
    start = perf_counter()
    for round_ in range(wl.rounds):
        state, spent = None, 0.0
        while state is None or spent < MIN_SETUP_S:
            state = None  # let the previous predictors go first
            elapsed, state = _setup(wl, checker)
            setup_times.append(elapsed)
            spent += elapsed
            if state is None:
                return None
        spent = 0.0
        while spent < MIN_CLI_S:
            elapsed, reports = _run_cli(wl, checker)
            cli_times.append(elapsed)
            spent += elapsed
            if reports is None:
                break
            if first_reports is None:
                first_reports = reports
            elif reports != first_reports:
                checker.record(["cli reports differ between identical invocations"])
        lat = _run_requests(wl, state, checker, digest if round_ == 0 else None,
                            first=len(latencies),
                            deadline=start + seconds * (round_ + 1) / wl.rounds,
                            minimum=-(-MIN_REQUESTS // wl.rounds))
        if round_ == 0:
            checker.check("one-off checks", wl.extra_checks, state)
            if first_reports is not None:
                digest.feed([r["report"] for r in first_reports])
        latencies += lat
        if lat:
            round_rates.append(wl.rows_per_request * len(lat) / sum(lat))
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup_times),
        "rows_per_s": wl.rows_per_request * len(latencies) / sum(latencies),
        "request_ms_p50": 1000 * deciles[4],
        "request_ms_p90": 1000 * deciles[8],
        "cli_s": statistics.median(cli_times),
        "requests": len(latencies),
        "request_s_total": sum(latencies),
        "wall_s": perf_counter() - start,
        "setup_s_all": setup_times,
        "cli_s_all": cli_times,
        "rows_per_s_by_round": round_rates,
    }


def measure_traced(wl, checker, untraced):
    """The traced run: one set-up, a fixed number of requests and one CLI
    repetition, so that every count repeats exactly for a seed."""
    import layers
    from spans import Tracer, self_times, top_level_time

    count = MIN_REQUESTS
    while not wl.at_boundary(count):
        count += 1
    tracer = Tracer()
    restore = layers.install(tracer)
    start = perf_counter()
    try:
        tracer.request = "setup"
        _, state = _setup(wl, checker)
        latencies = []
        if state is not None:
            latencies = _run_requests(wl, state, checker, None, first=0, count=count, tracer=tracer)
        tracer.request = "cli"
        _run_cli(wl, checker)
    finally:
        wall = perf_counter() - start
        restore()
    own = self_times(tracer.spans)
    bench_s = wall - top_level_time(tracer.spans)
    accounted = sum(own.values()) + bench_s
    checker.record(
        [] if abs(accounted - wall) <= 1e-9 * max(1, len(tracer.spans))
        else [f"trace: self times plus benchmark time {accounted} != traced wall {wall}"]
    )
    traced_per_row = sum(latencies) / (wl.rows_per_request * len(latencies)) if latencies else 0.0
    untraced_per_row = untraced["request_s_total"] / (wl.rows_per_request * untraced["requests"])
    return tracer, own, bench_s, wall, count, traced_per_row / untraced_per_row - 1


def per_layer_metrics(wl, tracer, own, bench_s, overhead):
    def module_self(module):
        return sum(s for name, s in own.items() if name.split(".")[0] == module)

    def per_test_row(name):
        return tracer.rows[name] / wl.cli_meta_rows if wl.cli_meta_rows else 0.0

    calls, rows = tracer.calls, tracer.rows
    return {
        "data.load_csv.s": (own.get("data.load_csv", 0.0), "s"),
        "data.Bag.append.calls": (calls["data.Bag.append"], "count"),
        "data.Bag.append.rows": (rows["data.Bag.append"], "count"),
        "ncm.s": (module_self("ncm"), "s"),
        "ncm.knn_score_per_label.calls": (calls["ncm.knn_score_per_label"], "count"),
        "ncm.knn_scores.calls": (calls["ncm.knn_scores"], "count"),
        "ncm.knn_scores.rows": (rows["ncm.knn_scores"], "count"),
        "ncm.knn_regression_coeffs.calls": (calls["ncm.knn_regression_coeffs"], "count"),
        "ncm.knn_regression_coeffs.rows": (rows["ncm.knn_regression_coeffs"], "count"),
        "ncm.knn_regression_coeffs_n.calls": (calls["ncm.knn_regression_coeffs_n"], "count"),
        "cp.train.calls": (calls["cp.train"], "count"),
        "cp.p_values.calls": (calls["cp.p_values"], "count"),
        "cp.p_values.rows": (rows["cp.p_values"], "count"),
        "icp.p_values.calls": (calls["icp.p_values"], "count"),
        "icp.p_values.rows": (rows["icp.p_values"], "count"),
        "regression.prediction_intervals.calls": (calls["regression.prediction_intervals"], "count"),
        "regression.score_region.calls": (calls["regression.score_region"], "count"),
        "venn.train.calls": (calls["venn.train"], "count"),
        "venn.category.calls": (calls["venn.category"], "count"),
        "venn.matrix.calls": (calls["venn.matrix"], "count"),
        "meta.base_predict_rows_per_test_row": (per_test_row("meta.base_predict"), "ratio"),
        "meta.meta_pvalue_rows_per_test_row": (per_test_row("meta.meta_pvalue"), "ratio"),
        "cli.main.s": (own.get("cli.main", 0.0), "s"),
        "bench.s": (bench_s, "s"),
        "trace.overhead_pct": (100 * overhead, "%"),
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}


def _git_sha():
    # read .git directly: the benchmark may run from a plain checkout
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(wl, args):
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": wl.sizes,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["classify", "regress", "online"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "conformal" / "__init__.py").is_file():
        print(f"error: the conformal package is not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import Digest
    from workloads import WORKLOADS, SeedRejected

    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, _terminate)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        try:
            wl = WORKLOADS[args.workload](args.seed, scratch)
        except SeedRejected as exc:
            print(f"error: seed {args.seed} rejected, the drawn data set is degenerate: {exc}",
                  file=sys.stderr)
            return 3
        return _report(wl, args, Digest())
    except Terminated as exc:
        print("error: terminated", file=sys.stderr)
        return 128 + exc.args[0]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _report(wl, args, digest) -> int:
    checker = Checker()
    environment = _environment(wl, args)
    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    e2e = measure(wl, args.seconds, checker, digest)
    if e2e is None:
        return _finish(args, checker, {}, environment, {})
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {"environment": environment, "end_to_end": e2e, "digest": digest.hexdigest()}

    recorded = json.loads((BENCH_DIR / "digests.json").read_text()).get(wl.name)
    if recorded and recorded["seed"] == args.seed:
        checker.record(
            [] if recorded["sha256"] == record["digest"]
            else [f"digest {record['digest']} differs from the one recorded for seed {args.seed}"]
        )
    print(f"output digest {record['digest']}")
    print(f"{e2e['requests']} requests of {wl.rows_per_request} rows, closed loop, one client")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<16} {e2e[name]:>14.6g} {unit}")
    failed_frac = checker.failed / checker.attempted
    print(f"  {'failed_frac':<16} {failed_frac:>14.6g} ratio ({checker.failed}/{checker.attempted})")
    print(f"wait time per layer: {NO_WAIT}")
    metrics = {name: (e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}

    if args.trace:
        tracer, own, bench_s, wall, count, overhead = measure_traced(wl, checker, e2e)
        metrics = per_layer_metrics(wl, tracer, own, bench_s, overhead)
        spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        table = {
            name: {"calls": tracer.calls[name], "self_s": own.get(name), "rows": tracer.rows.get(name)}
            for name in sorted(set(tracer.calls) | set(tracer.rows))
        }
        record["trace"] = {"requests": count, "wall_s": wall, "bench_s": bench_s,
                           "spans": str(spans_path.relative_to(ROOT)), "per_name": table}
        print(f"traced pass: set-up, {count} requests, one CLI repetition, {wall:.3f} s wall")
        print(f"  {'span':<34} {'calls':>9} {'self s':>10} {'share':>7}")
        for name, row in sorted(table.items(), key=lambda kv: -(kv[1]["self_s"] or 0)):
            self_s = row["self_s"]
            shown = f"{self_s:>10.4f} {100 * self_s / wall:>6.1f}%" if self_s is not None else (
                f"{'count':>10} {'':>7}")
            print(f"  {name:<34} {row['calls']:>9} {shown}")
        print(f"  {'bench (own code)':<34} {'':>9} {bench_s:>10.4f} {100 * bench_s / wall:>6.1f}%")
        print(f"tracing overhead on request time per row: {100 * overhead:+.1f}%")
    return _finish(args, checker, metrics, environment, record)


def _finish(args, checker, metrics, environment, record) -> int:
    for problem in checker.problems[:20]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    record = dict(record, environment=environment, problems=checker.problems,
                  attempted=checker.attempted, failed=checker.failed)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    correct = checker.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
