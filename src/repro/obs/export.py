"""Trace exporters: JSONL and Chrome ``trace_event`` (Perfetto).

Chrome's trace format wants microsecond ``ts``/``dur`` values; spans carry
simulated nanoseconds, so the exporter divides by 1000 and keeps the exact
ns values in ``args`` (``start_ns``/``end_ns``).  Each virtual CPU becomes
one ``tid`` so Perfetto renders the per-CPU timelines as separate tracks.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from .trace import NullTracer, SpanRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..clock import EventCounters


def chrome_trace_events(spans: Iterable[SpanRecord]) -> List[Dict]:
    """Complete ("X") events, one per span, sorted by start time."""
    events: List[Dict] = []
    for s in sorted(spans, key=lambda s: (s.start_ns, s.span_id)):
        args: Dict[str, object] = dict(s.attrs)
        args["start_ns"] = s.start_ns
        args["end_ns"] = s.end_ns
        events.append({
            "name": s.name,
            "cat": "sim",
            "ph": "X",
            "ts": s.start_ns / 1000.0,
            "dur": s.duration_ns / 1000.0,
            "pid": 0,
            "tid": s.cpu,
            "args": args,
        })
    return events


def chrome_trace(tracer: NullTracer,
                 counters: Optional["EventCounters"] = None) -> Dict:
    """The full JSON-object form Perfetto/chrome://tracing accepts;
    *counters*, when given, ride along as ``otherData.metrics``."""
    out: Dict[str, object] = {
        "traceEvents": chrome_trace_events(tracer.spans()),
        "displayTimeUnit": "ns",
        "otherData": {"clock": "simulated", "source": "repro"},
    }
    if counters is not None:
        out["otherData"]["metrics"] = counters.as_dict()  # type: ignore[index]
    return out


def span_jsonl_lines(spans: Iterable[SpanRecord]) -> List[str]:
    """One JSON object per span, in ring-buffer (completion) order."""
    lines = []
    for s in spans:
        lines.append(json.dumps({
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "name": s.name,
            "cpu": s.cpu,
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
            "depth": s.depth,
            "attrs": s.attrs,
        }, sort_keys=True))
    return lines


def write_chrome_trace(path: str, tracer: NullTracer,
                       counters: Optional["EventCounters"] = None) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(tracer, counters), f)


def write_span_jsonl(path: str, tracer: NullTracer) -> None:
    with open(path, "w") as f:
        for line in span_jsonl_lines(tracer.spans()):
            f.write(line + "\n")


def write_metrics_json(path: str, counters: "EventCounters") -> None:
    """Dump the event counters as JSON; ``-`` writes to stdout."""
    payload = json.dumps(counters.as_dict(), indent=2, sort_keys=True)
    if path == "-":
        print(payload)
    else:
        with open(path, "w") as f:
            f.write(payload + "\n")
