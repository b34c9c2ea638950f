"""Self-time arithmetic of the benchmark's span tracer."""

import pytest

from spans import Tracer, self_times, top_level_time


def span(name, start, end, parent):
    return (name, start, end, parent, None)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),
        span("c", 5.0, 9.0, 0),
        span("d", 6.0, 7.0, 2),
        span("e", 12.0, 13.0, -1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0, "e": 1.0})
    assert top_level_time(spans) == pytest.approx(11.0)
    assert sum(own.values()) == pytest.approx(top_level_time(spans))


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("p", 0.0, 10.0, -1),
        span("x", 1.0, 4.0, 0),
        span("x", 3.0, 5.0, 0),
        span("y", 9.0, 12.0, 0),
    ]
    # children cover [1, 5] and, clipped to the parent, [9, 10]
    assert self_times(spans)["p"] == pytest.approx(5.0)
    assert self_times(spans)["x"] == pytest.approx(5.0)


def test_same_name_spans_add_up():
    spans = [span("f", 0.0, 1.0, -1), span("f", 2.0, 4.0, -1), span("g", 2.5, 3.0, 1)]
    assert self_times(spans) == pytest.approx({"f": 2.5, "g": 0.5})
    assert top_level_time(spans) == pytest.approx(3.0)


def test_tracer_records_nesting_counts_and_rows():
    tracer = Tracer()
    leaf = tracer.counted("leaf", lambda: None)
    seen = []

    def inner(rows):
        leaf()
        seen.append(tracer.inside("outer"))
        return rows

    inner = tracer.timed("inner", inner, rows=lambda args, kwargs: args[0])
    outer = tracer.timed("outer", lambda: [inner(3), inner(4)])
    tracer.request = 7
    outer()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [-1, 0, 0]
    assert all(s[4] == 7 for s in tracer.spans)
    assert seen == [True, True] and not tracer.inside("outer")
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 2}
    assert tracer.rows == {"inner": 7}
    own = self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(top_level_time(tracer.spans))


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.timed("fail", fail)()
    assert tracer.spans[0][0] == "fail" and tracer.spans[0][2] >= tracer.spans[0][1]
    assert not tracer.inside("fail")
