"""Text rendering for experiment results: tables, series, and CDFs.

Every bench prints the rows/series of its figure or table through these
helpers so EXPERIMENTS.md and the bench output stay directly comparable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


class Table:
    """Fixed-width text table with a title (one per paper table/figure)."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got "
                             f"{len(values)}")
        self.rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        # cells may span multiple lines (e.g. SLO objective lists): the
        # column width is the widest *line*, not the raw cell length,
        # and a row renders as many text lines as its tallest cell
        grid = [[cell.splitlines() or [""] for cell in row]
                for row in self.rows]
        widths = [len(c) for c in self.columns]
        for row in grid:
            for i, cell_lines in enumerate(row):
                for line in cell_lines:
                    widths[i] = max(widths[i], len(line))
        lines = [self.title]
        header = "  ".join(c.ljust(widths[i])
                           for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in grid:
            height = max(len(cell_lines) for cell_lines in row)
            for k in range(height):
                lines.append("  ".join(
                    (cell_lines[k] if k < len(cell_lines) else "")
                    .ljust(widths[i])
                    for i, cell_lines in enumerate(row)))
        # no line ends in padding; the rule keeps the header's full width
        return "\n".join(line.rstrip() for line in lines)

    def __str__(self) -> str:
        return self.render()


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_series(title: str, series: Dict[str, List[Tuple[float, float]]],
                  x_label: str = "x", y_label: str = "y") -> str:
    """One line per (x, y) point per named series (a figure's line plot)."""
    lines = [title, f"{'series':16s} {x_label:>10s} {y_label:>14s}"]
    for name, points in series.items():
        for x, y in points:
            lines.append(f"{name:16s} {_fmt(x):>10s} {_fmt(y):>14s}")
    return "\n".join(lines)


def format_cdf(title: str, cdfs: Dict[str, List[Tuple[float, float]]],
               percentiles: Iterable[float] = (50, 90, 99)) -> str:
    """Summarize named CDFs at the percentiles the paper annotates."""
    lines = [title,
             f"{'series':16s} " + " ".join(f"p{int(p):>2d}(ns)".rjust(12)
                                           for p in percentiles)]
    for name, cdf in cdfs.items():
        cells = []
        for p in percentiles:
            target = p / 100.0
            value = cdf[-1][0]
            for lat, frac in cdf:
                if frac >= target:
                    value = lat
                    break
            cells.append(f"{value:12.0f}")
        lines.append(f"{name:16s} " + " ".join(cells))
    return "\n".join(lines)


def slo_table(rows: Sequence[Dict], title: str = "SLO report") -> Table:
    """Per-(fs, SLO class) table from a campaign report's ``results``
    rows (``repro.harness.fleet.CAMPAIGNS["slo"].run``).

    The objectives column is multi-line — one "bound: OK|VIOLATED" line
    per set objective — which is exactly what :meth:`Table.render`'s
    multi-line cell support exists for.
    """
    table = Table(title, ["fs", "slo", "ops", "errors", "p50(ns)",
                          "p99(ns)", "p999(ns)", "burn", "objectives",
                          "status"])
    for row in rows:
        table.add_row(row["fs"], row["slo"], row["ops"], row["surfaced"],
                      row["p50_ns"], row["p99_ns"], row["p999_ns"],
                      row["budget_burn"],
                      "\n".join(row["objectives"]) or "-",
                      "OK" if row["ok"] else "VIOLATED")
    return table


def availability_table(availability: Dict[str, Dict],
                       title: str = "Degraded-mode availability"
                       ) -> Table:
    """Per-FS degraded-time summary from a campaign report's
    ``availability`` map (simulated milliseconds; MTTR is ``-`` when no
    degraded mount recovered)."""
    table = Table(title, ["fs", "degradations", "degraded(ms)",
                          "mttr(ms)"])
    for fs in sorted(availability):
        entry = availability[fs]
        mttr = entry.get("mttr_ns")
        table.add_row(fs, entry["degradations"],
                      entry["degraded_ns"] / 1e6,
                      "-" if mttr is None else _fmt(mttr / 1e6))
    return table


def fault_table(plan, title: str = "Fault report") -> Table:
    """A :class:`~repro.faults.FaultPlan`'s ledger: one row per fault
    kind seen, with its injected / masked / surfaced counts."""
    table = Table(title, ["kind", "injected", "masked", "surfaced"])
    for row in plan.report_rows():
        table.add_row(*row)
    return table


#: phase label -> display column, in paper-breakdown order (Figs 1/2/6)
PHASES = (("fault", "fault_ns"), ("copy", "copy_ns"),
          ("journal", "journal_ns"), ("lock_wait", "lock_wait_ns"))


def phase_breakdown_table(per_fs, title: str = "Per-phase time breakdown"
                          ) -> Table:
    """Where did the simulated time go, per file system?

    *per_fs* maps FS name -> an :class:`~repro.clock.EventCounters`;
    the phase columns come from its ``*_ns`` fields, plus a total and
    the fraction of that total each phase accounts for.
    """
    table = Table(title, ["fs"] + [f"{label}_ns" for label, _ in PHASES]
                  + ["total_ns", "breakdown"])
    for fs_name, counters in per_fs.items():
        values = [getattr(counters, attr) for _, attr in PHASES]
        total = sum(values)
        shares = " ".join(
            f"{label}={v / total * 100.0:.0f}%" for (label, _), v
            in zip(PHASES, values)) if total else "-"
        table.add_row(fs_name, *values, total, shares)
    return table
