"""Trace exporters: JSONL, Chrome ``trace_event`` (Perfetto), OpenMetrics.

Chrome's trace format wants microsecond ``ts``/``dur`` values; spans carry
simulated nanoseconds, so the exporter divides by 1000 and keeps the exact
ns values in ``args`` (``start_ns``/``end_ns``).  Each virtual CPU becomes
one ``tid`` so Perfetto renders the per-CPU timelines as separate tracks.

The OpenMetrics-style exposition (:func:`openmetrics_lines`) renders an
SLO telemetry frame as text families — latency sketches become cumulative
``_bucket``/``_count``/``_sum`` histogram series, the error ledger and
degraded timeline become counters and gauges.  Series are emitted in
sorted label order and values formatted by ``repr``, so the exposition is
byte-stable for a given frame: the CI ``slo-smoke`` step diffs the
``--jobs 1`` and ``--jobs 2`` artifacts byte for byte.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .metrics import MetricsRegistry
from .trace import NullTracer, SpanRecord


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
                 registry: Optional[MetricsRegistry] = None) -> Dict:
    """The full JSON-object form Perfetto/chrome://tracing accepts."""
    out: Dict[str, object] = {
        "traceEvents": chrome_trace_events(tracer.spans()),
        "displayTimeUnit": "ns",
        "otherData": {"clock": "simulated", "source": "repro"},
    }
    if registry is not None:
        out["otherData"]["metrics"] = registry.as_dict()  # type: ignore[index]
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
                       registry: Optional[MetricsRegistry] = None) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(tracer, registry), f)


def write_span_jsonl(path: str, tracer: NullTracer) -> None:
    with open(path, "w") as f:
        for line in span_jsonl_lines(tracer.spans()):
            f.write(line + "\n")


def write_metrics_json(path: str, registry: MetricsRegistry) -> None:
    """Dump a registry snapshot; ``-`` writes to stdout."""
    payload = json.dumps(registry.as_dict(), indent=2, sort_keys=True)
    if path == "-":
        print(payload)
    else:
        with open(path, "w") as f:
            f.write(payload + "\n")


# -- OpenMetrics-style exposition of SLO telemetry frames --------------------

def _om_value(value: object) -> str:
    """Byte-stable sample value: ints plain, floats via ``repr``."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _om_labels(labels: Sequence[Tuple[str, object]]) -> str:
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{{{inner}}}" if inner else ""


def openmetrics_lines(frame: Mapping[str, object]) -> List[str]:
    """Render one telemetry frame as OpenMetrics-style text lines.

    *frame* is a (possibly merged) payload from
    :mod:`repro.obs.telemetry`.  Families, in order: the per-(fs, op)
    latency histograms, operation/error counters, fault outcomes, any
    absorbed registry counters (cache health), the per-(fs, SLO-class)
    evaluation gauges, and the degraded-mode aggregates.  Ends with
    ``# EOF`` per the OpenMetrics framing.
    """
    from .slo import DEFAULT_SLOS
    from .telemetry import evaluate_frame, frame_of

    sketches, ledger, timeline = frame_of(frame)
    lines: List[str] = []

    lines.append("# TYPE vfs_op_latency_ns histogram")
    lines.append("# HELP vfs_op_latency_ns per-operation VFS latency "
                 "in simulated nanoseconds")
    for (fs, op), sketch in sketches.items():
        base = (("fs", fs), ("op", op))
        for bound, cum in sketch.cumulative_buckets():
            lines.append(
                f"vfs_op_latency_ns_bucket"
                f"{_om_labels(base + (('le', _om_value(bound)),))} {cum}")
        lines.append(
            f"vfs_op_latency_ns_bucket"
            f"{_om_labels(base + (('le', '+Inf'),))} {sketch.count}")
        lines.append(f"vfs_op_latency_ns_count{_om_labels(base)} "
                     f"{sketch.count}")
        lines.append(f"vfs_op_latency_ns_sum{_om_labels(base)} "
                     f"{_om_value(sketch.sum)}")

    lines.append("# TYPE slo_ops_total counter")
    for fs in ledger.fs_names():
        for op in ledger.op_names(fs):
            lines.append(f"slo_ops_total{_om_labels((('fs', fs), ('op', op)))}"
                         f" {ledger.ops(fs, op)}")

    lines.append("# TYPE slo_errors_total counter")
    errors = ledger.to_payload()["surfaced"]
    for key in sorted(errors):  # type: ignore[arg-type]
        fs, _, op = key.partition("\x1f")
        for errno_name, n in sorted(errors[key].items()):  # type: ignore[index]
            lines.append(
                f"slo_errors_total"
                f"{_om_labels((('errno', errno_name), ('fs', fs), ('op', op)))}"
                f" {n}")

    lines.append("# TYPE slo_fault_outcomes_total counter")
    faults = ledger.to_payload()["faults"]
    for fs in sorted(faults):  # type: ignore[arg-type]
        for kind in sorted(faults[fs]):  # type: ignore[index]
            for outcome, n in sorted(faults[fs][kind].items()):
                lines.append(
                    f"slo_fault_outcomes_total"
                    f"{_om_labels((('fs', fs), ('kind', kind), ('outcome', outcome)))}"
                    f" {n}")

    for name, by_labels in ledger.counters().items():
        lines.append(f"# TYPE {name} counter")
        for labels, n in by_labels.items():
            lines.append(f"{name}{labels} {n}")

    results = evaluate_frame(frame, slos=DEFAULT_SLOS)
    lines.append("# TYPE slo_latency_ns gauge")
    for r in results:
        base = (("fs", r.fs), ("slo", r.spec.name))
        for quantile, value in (("p50", r.p50_ns), ("p99", r.p99_ns),
                                ("p999", r.p999_ns)):
            lines.append(
                f"slo_latency_ns"
                f"{_om_labels(base + (('quantile', quantile),))} "
                f"{_om_value(value)}")
    lines.append("# TYPE slo_error_budget_burn gauge")
    for r in results:
        lines.append(f"slo_error_budget_burn"
                     f"{_om_labels((('fs', r.fs), ('slo', r.spec.name)))} "
                     f"{_om_value(r.budget_burn)}")
    lines.append("# TYPE slo_objective_ok gauge")
    for r in results:
        lines.append(f"slo_objective_ok"
                     f"{_om_labels((('fs', r.fs), ('slo', r.spec.name)))} "
                     f"{int(r.ok)}")

    lines.append("# TYPE slo_degraded_seconds gauge")
    lines.append("# HELP slo_degraded_seconds simulated seconds spent "
                 "degraded (read-only)")
    for fs in timeline.fs_names():
        lines.append(f"slo_degraded_seconds{_om_labels((('fs', fs),))} "
                     f"{_om_value(timeline.degraded_ns(fs) / 1e9)}")
    lines.append("# TYPE slo_degradations_total counter")
    for fs in timeline.fs_names():
        lines.append(f"slo_degradations_total{_om_labels((('fs', fs),))} "
                     f"{timeline.degradations(fs)}")
    lines.append("# TYPE slo_mttr_seconds gauge")
    for fs in timeline.fs_names():
        mttr = timeline.mttr_ns(fs)
        if mttr is not None:
            lines.append(f"slo_mttr_seconds{_om_labels((('fs', fs),))} "
                         f"{_om_value(mttr / 1e9)}")

    lines.append("# EOF")
    return lines


def openmetrics_exposition(frame: Mapping[str, object]) -> str:
    return "\n".join(openmetrics_lines(frame)) + "\n"


def write_openmetrics(path: str, frame: Mapping[str, object]) -> None:
    """Write a frame's OpenMetrics text; ``-`` writes to stdout."""
    text = openmetrics_exposition(frame)
    if path == "-":
        print(text, end="")
    else:
        with open(path, "w") as f:
            f.write(text)
