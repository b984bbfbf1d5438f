"""The span name registry.

One authoritative list of every span/record name used anywhere in
``src/repro``.  The ``metric-names`` lint rule
(:mod:`repro.analysis.rules.metric_names`) resolves each call site's
name literal against this module, so a typo'd name fails CI instead of
silently splitting a span family into two.

To regenerate after adding instrumentation, run::

    python -m repro lint --emit-registry

which prints every name referenced in the tree; add the new ones here
(a name used at a call site but absent below is a lint finding, and an
entry below that no call site uses anymore is harmless but should be
pruned when noticed).
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = ["SPAN_NAMES", "SPAN_PREFIXES"]

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

