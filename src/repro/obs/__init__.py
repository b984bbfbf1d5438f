"""Observability for the simulated WineFS stack.

Three pieces, all keyed to **simulated** nanoseconds (never wall time):

* :mod:`repro.obs.metrics` — a labelled metrics registry (Counter, Gauge)
  that :class:`~repro.clock.EventCounters` sits on top of;
* :mod:`repro.obs.trace` — nested per-operation spans with a bounded ring
  buffer; default-off via the shared :data:`NULL_TRACER` handle carried by
  every :class:`~repro.clock.SimContext`;
* :mod:`repro.obs.export` — JSONL and Chrome ``trace_event`` exporters so
  runs open in Perfetto;
* :mod:`repro.obs.slo` — SLO telemetry: exact per-(fs, op) latency
  samples, error budgets over a surfaced/masked ledger, and degraded
  intervals (MTTR), attached per file system via
  ``FileSystem.attach_telemetry`` and graded by one report function.

Invariant: observability never charges the :class:`~repro.clock.SimClock`;
all benchmark numbers are bit-identical with tracing or telemetry on or
off.
"""

from .metrics import Counter, Gauge, Metric, MetricsRegistry, format_series
from .trace import NULL_TRACER, NullTracer, SpanRecord, Tracer
from .export import (chrome_trace, chrome_trace_events, span_jsonl_lines,
                     write_chrome_trace, write_metrics_json,
                     write_span_jsonl)
from .faults import fault_report
from .slo import DEFAULT_SLOS, SLOSpec, Telemetry, slo_report

__all__ = [
    "Counter", "Gauge", "Metric", "MetricsRegistry",
    "format_series",
    "NULL_TRACER", "NullTracer", "SpanRecord", "Tracer",
    "chrome_trace", "chrome_trace_events", "span_jsonl_lines",
    "write_chrome_trace", "write_metrics_json", "write_span_jsonl",
    "fault_report",
    "DEFAULT_SLOS", "SLOSpec", "Telemetry", "slo_report",
]
