"""Self time, wrapping and patching of the span tracer."""

import types
from collections import Counter

import pytest
from spans import Span, Tracer, self_times, summarize


def test_self_time_subtracts_children_once_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, -1, ""),
        Span("a", 1.0, 4.0, 0, ""),
        Span("b", 3.0, 6.0, 0, ""),  # overlaps a: covered 1..6 counts 5, not 6
        Span("c", 9.0, 12.0, 0, ""),  # sticks out of root: only 9..10 counts
        Span("a.1", 1.5, 2.0, 1, ""),
        Span("leaf", 20.0, 20.25, -1, ""),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 0.5, 3, 3, 0.5, 0.25])


def test_summarize_sums_self_time_and_takes_median_duration_per_name():
    spans = [
        Span("f", 0.0, 4.0, -1, ""),
        Span("g", 1.0, 2.0, 0, ""),
        Span("g", 2.0, 5.0, 0, ""),
        Span("g", 5.0, 5.5, -1, ""),
    ]
    out = summarize(spans, Counter({"f": 1, "g": 3, "h": 7}))
    assert out["f"] == {"calls": 1, "self_s": pytest.approx(1.0), "us_per_call": pytest.approx(4e6)}
    assert out["g"]["self_s"] == pytest.approx(1.0 + 3.0 + 0.5)
    assert out["g"]["us_per_call"] == pytest.approx(1e6)
    assert out["h"] == {"calls": 7, "self_s": 0, "us_per_call": None}


def fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_wrapped_calls_nest_and_inherit_their_unit():
    tracer = Tracer(clock=fake_clock())
    inner = tracer.wrap("inner", lambda x: x + 1)
    counted = tracer.wrap("counted", lambda: None, count_only=True)

    def outer_body(unit, x):
        counted()
        return inner(x) * 2

    outer = tracer.wrap("outer", outer_body, unit_of=lambda args: args[0])
    assert outer("arm/0", 1) == 4
    assert inner(5) == 6
    spans = tracer.finished_spans()
    assert [(s.name, s.parent, s.unit) for s in spans] == [
        ("outer", -1, "arm/0"),
        ("inner", 0, "arm/0"),
        ("inner", -1, ""),
    ]
    assert tracer.calls == {"outer": 1, "inner": 2, "counted": 1}
    assert self_times(spans) == [2.0, 1.0, 1.0]


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer(clock=fake_clock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert [s.name for s in tracer.finished_spans()] == ["boom"]


def test_patch_replaces_every_site_and_unpatch_restores():
    def f():
        return 1

    mod_a = types.ModuleType("perfbench_fake_a")
    mod_b = types.ModuleType("perfbench_fake_b")
    mod_a.f = mod_b.f = f
    mod_a.Holder = type("Holder", (), {"method": lambda self: 2})
    import sys

    sys.modules.update(perfbench_fake_a=mod_a, perfbench_fake_b=mod_b)
    try:
        tracer = Tracer()
        tracer.patch("f", ["perfbench_fake_a:f", "perfbench_fake_b:f"])
        tracer.patch("method", ["perfbench_fake_a:Holder.method"])
        assert mod_a.f() + mod_b.f() + mod_a.Holder().method() == 4
        assert tracer.calls == {"f": 2, "method": 1}
        tracer.unpatch()
        assert mod_a.f is f and mod_b.f is f

        with pytest.raises(LookupError, match="does not exist"):
            tracer.patch("f", ["perfbench_fake_a:f", "perfbench_fake_b:missing"])
        mod_b.f = lambda: 1
        with pytest.raises(LookupError, match="not the same function"):
            tracer.patch("f", ["perfbench_fake_a:f", "perfbench_fake_b:f"])
    finally:
        del sys.modules["perfbench_fake_a"], sys.modules["perfbench_fake_b"]
