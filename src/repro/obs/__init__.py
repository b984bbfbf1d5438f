"""Observability for the simulated WineFS stack.

Three pieces, all keyed to **simulated** nanoseconds (never wall time):

* :mod:`repro.obs.metrics` — a labelled metrics registry (Counter, Gauge)
  that :class:`~repro.clock.EventCounters` sits on top of;
* :mod:`repro.obs.trace` — nested per-operation spans with a bounded ring
  buffer; default-off via the shared :data:`NULL_TRACER` handle carried by
  every :class:`~repro.clock.SimContext`;
* :mod:`repro.obs.export` — JSONL and Chrome ``trace_event`` exporters so
  runs open in Perfetto, plus the OpenMetrics SLO exposition;
* :mod:`repro.obs.sketch` / :mod:`repro.obs.slo` /
  :mod:`repro.obs.timeline` / :mod:`repro.obs.telemetry` — the SLO
  telemetry pipeline: mergeable per-(fs, op) latency sketches, error
  budgets over a surfaced/masked ledger, and degraded-mode timelines,
  attached per file system via ``FileSystem.attach_telemetry``.

Invariant: observability never charges the :class:`~repro.clock.SimClock`;
all benchmark numbers are bit-identical with tracing or telemetry on or
off.
"""

from .metrics import Counter, Gauge, Metric, MetricsRegistry, format_series
from .trace import NULL_TRACER, NullTracer, SpanRecord, Tracer
from .export import (chrome_trace, chrome_trace_events,
                     openmetrics_exposition, openmetrics_lines,
                     span_jsonl_lines, write_chrome_trace,
                     write_metrics_json, write_openmetrics,
                     write_span_jsonl)
from .faults import fault_report
from .sketch import LatencySketch, SketchBank
from .slo import DEFAULT_SLOS, ErrorLedger, SLOResult, SLOSpec
from .telemetry import (Telemetry, evaluate_frame, frame_of, merge_frames)
from .timeline import DegradedTimeline

__all__ = [
    "Counter", "Gauge", "Metric", "MetricsRegistry",
    "format_series",
    "NULL_TRACER", "NullTracer", "SpanRecord", "Tracer",
    "chrome_trace", "chrome_trace_events", "span_jsonl_lines",
    "write_chrome_trace", "write_metrics_json", "write_span_jsonl",
    "openmetrics_exposition", "openmetrics_lines", "write_openmetrics",
    "fault_report",
    "LatencySketch", "SketchBank",
    "DEFAULT_SLOS", "ErrorLedger", "SLOResult", "SLOSpec",
    "Telemetry", "evaluate_frame", "frame_of", "merge_frames",
    "DegradedTimeline",
]
