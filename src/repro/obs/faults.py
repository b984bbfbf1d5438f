"""Observability helpers for fault injection.

The :class:`~repro.faults.FaultPlan` ledger counts events by
``(kind, outcome)`` and, with tracing on, emits zero-width
``fault.<kind>`` records.  This module renders that ledger as a
plain-text report for the CLI.

The report is read-only over the plan: printing it never perturbs clocks
or counters.
"""

from __future__ import annotations

from typing import List, Optional

#: column layout shared by the CLI and tests
_REPORT_HEADER = ("kind", "injected", "masked", "surfaced")


def fault_report(plan, title: Optional[str] = None) -> str:
    """Render the plan's ledger as an aligned text table."""
    rows = plan.report_rows()
    lines: List[str] = []
    if title:
        lines.append(title)
    widths = [max(len(_REPORT_HEADER[0]),
                  *(len(r[0]) for r in rows)) if rows
              else len(_REPORT_HEADER[0]),
              8, 8, 8]
    header = "  ".join(h.ljust(w) if i == 0 else h.rjust(w)
                       for i, (h, w) in enumerate(zip(_REPORT_HEADER,
                                                      widths)))
    lines.append(header)
    lines.append("-" * len(header))
    if not rows:
        lines.append("(no fault events)")
    for kind, injected, masked, surfaced in rows:
        lines.append("  ".join([kind.ljust(widths[0]),
                                str(injected).rjust(widths[1]),
                                str(masked).rjust(widths[2]),
                                str(surfaced).rjust(widths[3])]))
    return "\n".join(lines)
