"""The metric and span name registry.

One authoritative list of every counter/gauge/histogram name and every
span/record name used anywhere in ``src/repro``.  The ``metric-names``
lint rule (:mod:`repro.analysis.rules.metric_names`) resolves each call
site's name literal against this module, so a typo'd label fails CI
instead of silently splitting a series into two.

To regenerate after adding instrumentation, run::

    python -m repro lint --emit-registry

which prints every name referenced in the tree; add the new ones here
(a name used at a call site but absent below is a lint finding, and an
entry below that no call site uses anymore is harmless but should be
pruned when noticed).
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = ["METRIC_NAMES", "SPAN_NAMES", "SPAN_PREFIXES", "all_names"]

#: every registered counter/gauge/histogram name
METRIC_NAMES: FrozenSet[str] = frozenset({
    # EventCounters facade series (clock._COUNTER_LAYOUT)
    "page_faults",
    "tlb_lookups",
    "llc_lookups",
    "pm_bytes",
    "phase_ns",
    "syscalls",
    # device / MMU pull gauges
    "pm_device_bytes",
    "pm_materialized_bytes",
    "pt_mapped_pages",
    "pt_installed_total",
    # fault injection
    "fault_events",
    "fs_degraded",
    # service layer (repro.serve)
    "serve_requests_total",
    "serve_rejected_total",
    "serve_queue_depth",
    "serve_index_hits_total",
    "serve_index_walks_total",
    "serve_index_invalidations_total",
    "serve_shard_events_total",
    # snapshot cache health (repro.harness.setup)
    "snapshot_load_failures",
    # snapshot archive / corpus builder (repro.harness.fleet)
    "snapshot_archive_objects",
    "snapshot_archive_bytes",
})

#: every span / zero-width record name
SPAN_NAMES: FrozenSet[str] = frozenset({
    "vfs.create",
    "vfs.open",
    "vfs.unlink",
    "vfs.mkdir",
    "vfs.rmdir",
    "vfs.rename",
    "vfs.read",
    "vfs.write",
    "vfs.truncate",
    "vfs.fallocate",
    "vfs.fsync",
    "vfs.mmap",
    "alloc",
    "journal.begin",
    "journal.commit",
    "winefs.recover",
    "winefs.data_journal",
    "winefs.cow",
    "fault.alloc",
    "lock.wait",
    "mmu.fault",
    "fs.degraded",
})

#: allowed literal prefixes for dynamically-built span names
#: (e.g. ``f"fault.{kind}"`` in repro.faults.plan)
SPAN_PREFIXES: FrozenSet[str] = frozenset({
    "fault.",
})


def all_names() -> FrozenSet[str]:
    """Union of metric and span names (for exposition tooling)."""
    return METRIC_NAMES | SPAN_NAMES
