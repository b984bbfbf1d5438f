"""Span tracer: nesting, per-CPU stacks, ring bound, exporters."""

import json

import pytest

from repro.clock import EventCounters, SimClock, SimContext, make_context
from repro.obs.export import (chrome_trace, chrome_trace_events,
                              span_jsonl_lines)
from repro.obs.trace import NULL_TRACER, Tracer


def _ctx(tracer, num_cpus=2, cpu=0):
    return SimContext(clock=SimClock(num_cpus), cpu=cpu, trace=tracer)


class TestNullTracer:
    def test_disabled_and_noop(self):
        assert NULL_TRACER.enabled is False
        ctx = make_context(1)
        with NULL_TRACER.span(ctx, "anything", k=1):
            pass
        NULL_TRACER.record("r", 0, 0.0, 1.0)
        assert NULL_TRACER.spans() == []

    def test_span_handle_is_shared(self):
        ctx = make_context(1)
        a = NULL_TRACER.span(ctx, "a")
        b = NULL_TRACER.span(ctx, "b")
        assert a is b

    def test_default_context_carries_null_tracer(self):
        assert make_context(1).trace is NULL_TRACER


class TestNesting:
    def test_parent_child_timestamps(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        with tracer.span(ctx, "outer", fs="WineFS"):
            ctx.charge(10.0)
            with tracer.span(ctx, "inner"):
                ctx.charge(5.0)
            ctx.charge(1.0)
        spans = {s.name: s for s in tracer.spans()}
        outer, inner = spans["outer"], spans["inner"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.depth == 1 and outer.depth == 0
        # simulated timestamps: inner nests inside outer on the timeline
        assert outer.start_ns == 0.0 and outer.end_ns == 16.0
        assert inner.start_ns == 10.0 and inner.end_ns == 15.0
        assert outer.attrs == {"fs": "WineFS"}

    def test_children_complete_before_parents(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        with tracer.span(ctx, "a"):
            with tracer.span(ctx, "b"):
                pass
        names = [s.name for s in tracer.spans()]
        assert names == ["b", "a"]

    def test_per_cpu_stacks_are_independent(self):
        tracer = Tracer()
        ctx0 = _ctx(tracer, cpu=0)
        ctx1 = ctx0.on_cpu(1)
        ctx1.charge(100.0)            # cpu1's clock is ahead
        with tracer.span(ctx0, "on0"):
            with tracer.span(ctx1, "on1"):   # different CPU: not a child
                ctx1.charge(7.0)
            ctx0.charge(3.0)
        spans = {s.name: s for s in tracer.spans()}
        assert spans["on1"].parent_id is None
        assert spans["on1"].cpu == 1
        assert spans["on1"].start_ns == 100.0
        assert spans["on0"].cpu == 0
        assert spans["on0"].end_ns == 3.0

    def test_record_attaches_to_open_span(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        with tracer.span(ctx, "op"):
            tracer.record("lock.wait", ctx.cpu, 1.0, 4.0, lock="L")
        spans = {s.name: s for s in tracer.spans()}
        assert spans["lock.wait"].parent_id == spans["op"].span_id
        assert spans["lock.wait"].duration_ns == 3.0
        assert spans["lock.wait"].attrs == {"lock": "L"}

    def test_mismatched_exit_tolerated(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        outer = tracer.span(ctx, "outer")
        inner = tracer.span(ctx, "inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)     # out of order: dropped
        inner.__exit__(None, None, None)
        assert [s.name for s in tracer.spans()] == ["inner"]
        assert not tracer._stacks.get(ctx.cpu)


class TestRingBuffer:
    def test_bounded_with_drop_count(self):
        tracer = Tracer(capacity=4)
        ctx = _ctx(tracer)
        for i in range(10):
            with tracer.span(ctx, f"s{i}"):
                ctx.charge(1.0)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [s.name for s in tracer.spans()] == ["s6", "s7", "s8", "s9"]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        with tracer.span(ctx, "s"):
            pass
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0


class TestTracingNeverChargesTime:
    def test_span_entry_exit_is_free(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        with tracer.span(ctx, "expensive-looking", size=1 << 20):
            pass
        assert ctx.now == 0.0
        assert sum(ctx.clock.snapshot()) == 0.0


class TestChromeExport:
    def _traced(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        with tracer.span(ctx, "outer", fs="WineFS"):
            ctx.charge(2000.0)
            with tracer.span(ctx, "inner"):
                ctx.charge(500.0)
        return tracer

    def test_schema(self):
        tracer = self._traced()
        doc = chrome_trace(tracer)
        # must round-trip through JSON (what Perfetto actually parses)
        doc = json.loads(json.dumps(doc))
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ns"
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert set(ev) >= {"name", "cat", "ph", "ts", "dur", "pid",
                               "tid", "args"}
            assert isinstance(ev["ts"], (int, float))
            assert ev["dur"] >= 0

    def test_timestamps_are_simulated_us_with_exact_ns_in_args(self):
        events = chrome_trace_events(self._traced().spans())
        outer = next(e for e in events if e["name"] == "outer")
        assert outer["ts"] == 0.0
        assert outer["dur"] == 2.5          # 2500ns -> 2.5us
        assert outer["args"]["start_ns"] == 0.0
        assert outer["args"]["end_ns"] == 2500.0
        assert outer["args"]["fs"] == "WineFS"

    def test_events_sorted_by_start(self):
        events = chrome_trace_events(self._traced().spans())
        starts = [e["ts"] for e in events]
        assert starts == sorted(starts)

    def test_tid_is_cpu(self):
        tracer = Tracer()
        ctx = _ctx(tracer, num_cpus=4, cpu=3)
        with tracer.span(ctx, "s"):
            pass
        (ev,) = chrome_trace_events(tracer.spans())
        assert ev["tid"] == 3 and ev["pid"] == 0

    def test_metrics_embedded(self):
        tracer = self._traced()
        counters = EventCounters(syscalls=3)
        doc = chrome_trace(tracer, counters)
        assert doc["otherData"]["metrics"] == counters.as_dict()


class TestJsonl:
    def test_one_valid_object_per_line(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        with tracer.span(ctx, "a"):
            with tracer.span(ctx, "b", k="v"):
                ctx.charge(1.0)
        lines = span_jsonl_lines(tracer.spans())
        assert len(lines) == 2
        objs = [json.loads(line) for line in lines]
        assert objs[0]["name"] == "b" and objs[0]["attrs"] == {"k": "v"}
        assert objs[1]["name"] == "a"
        assert objs[0]["parent_id"] == objs[1]["span_id"]
