"""Observability for the simulated WineFS stack.

All keyed to **simulated** nanoseconds (never wall time).  The event
counts themselves are the plain :class:`~repro.clock.EventCounters`
record every :class:`~repro.clock.SimContext` carries; this package
holds what reads and records around them:

* :mod:`repro.obs.trace` — nested per-operation spans with a bounded ring
  buffer; default-off via the shared :data:`NULL_TRACER` handle carried by
  every :class:`~repro.clock.SimContext`;
* :mod:`repro.obs.export` — JSONL and Chrome ``trace_event`` exporters so
  runs open in Perfetto, and the counters' JSON dump;
* :mod:`repro.obs.slo` — SLO telemetry: exact per-(fs, op) latency
  samples, error budgets over a surfaced/masked ledger, and degraded
  intervals (MTTR), attached per file system via
  ``FileSystem.attach_telemetry`` and graded by one report function.

Invariant: observability never charges the :class:`~repro.clock.SimClock`;
all benchmark numbers are bit-identical with tracing or telemetry on or
off.
"""

from .trace import NULL_TRACER, NullTracer, SpanRecord, Tracer
from .export import (chrome_trace, chrome_trace_events, span_jsonl_lines,
                     write_chrome_trace, write_metrics_json,
                     write_span_jsonl)
from .slo import DEFAULT_SLOS, SLOSpec, Telemetry, slo_report

__all__ = [
    "NULL_TRACER", "NullTracer", "SpanRecord", "Tracer",
    "chrome_trace", "chrome_trace_events", "span_jsonl_lines",
    "write_chrome_trace", "write_metrics_json", "write_span_jsonl",
    "DEFAULT_SLOS", "SLOSpec", "Telemetry", "slo_report",
]
