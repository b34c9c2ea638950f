"""In-memory span tracer and self-time arithmetic for the benchmark.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index of
the enclosing span in the tracer's list (-1 at top level) and ``request`` the
identifier of the benchmark request that caused it.  Spans are only kept in
memory while the workload runs and are written out when it ends.  Hot leaf
functions are counted, not timed, because a span costs more than they do.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Collects spans, call counts and row counts for wrapped functions."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.rows: Counter = Counter()
        self.request = None
        self._stack: list[tuple[int, str]] = []

    def timed(self, name: str, fn, rows=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``rows(args, kwargs)``, when given, adds the call's row count to
        ``self.rows[name]``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append((index, name))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.request)
                self.calls[name] += 1
                if rows is not None:
                    self.rows[name] += rows(args, kwargs)

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so calls are counted but not timed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def inside(self, name: str) -> bool:
        """Whether a span named ``name`` is open on the current call stack."""
        return any(open_name == name for _, open_name in self._stack)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of it
    that its child spans cover (children clipped to the parent's interval)."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end)) for s, e in children.get(index, ()) if e > start and s < end
        ]
        out[name] += (end - start) - _covered(clipped)
    return dict(out)


def top_level_time(spans) -> float:
    """Wall time covered by top-level spans."""
    return _covered([(start, end) for _, start, end, parent, _ in spans if parent < 0])
