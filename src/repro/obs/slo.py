"""SLO specs, the per-run telemetry recorder, and the one SLO report.

An :class:`SLOSpec` states what "good" means for one class of
operations: bounds on the p99/p999 latency in simulated ns, and an error
budget — the fraction of operations allowed to surface an error to the
caller.  Faults that the stack *masks* (a torn journal record caught by
its checksum, a failing block relocated on retry) never burn budget;
that distinction is exactly what the :class:`~repro.faults.FaultPlan`
ledger records, and :meth:`Telemetry.absorb_fault_plan` keeps it per FS.

One :class:`Telemetry` is attached to one or more simulated file systems
(``FileSystem.attach_telemetry``): the VFS entry-point wrappers feed it
latencies and surfaced errors, ``remount_read_only`` / ``clear_degraded``
open and close degraded intervals.  It only *reads* clocks, so every
simulated result is identical with telemetry on or off.

Campaign cells return :meth:`Telemetry.as_dict` (plain nested dicts);
:func:`slo_report` folds them in cell order and takes the quantiles from
the merged exact samples, so a report is byte-identical for any
``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import ObservabilityError
from ..structures.stats import Summary

__all__ = ["SLOSpec", "DEFAULT_SLOS", "Telemetry", "slo_report"]


@dataclass(frozen=True)
class SLOSpec:
    """One operation class's objectives.

    ``ops`` names the entry points the spec covers; quantile bounds are
    inclusive (``p99 <= p99_ns`` passes).  ``error_budget`` is the
    allowed surfaced-error fraction of operations in the class (0.001 =
    "three nines" on errors).
    """

    name: str
    ops: Tuple[str, ...]
    p99_ns: float
    p999_ns: float
    error_budget: float = 0.001


#: default objectives per VFS operation class.  Thresholds are generous
#: multiples of fresh-filesystem latencies (the point is catching
#: degraded-mode regressions and fault-campaign tail blowups, not
#: grading healthy runs).
DEFAULT_SLOS: Tuple[SLOSpec, ...] = (
    SLOSpec("data", ("read", "write", "write_zeros"),
            p99_ns=2e5, p999_ns=2e6, error_budget=0.001),
    SLOSpec("sync", ("fsync",),
            p99_ns=1e6, p999_ns=5e6, error_budget=0.001),
    SLOSpec("namespace", ("create", "open", "unlink", "mkdir", "rmdir",
                          "rename", "readdir"),
            p99_ns=1e6, p999_ns=5e6, error_budget=0.005),
    SLOSpec("space", ("truncate", "fallocate", "mmap"),
            p99_ns=5e6, p999_ns=2e7, error_budget=0.005),
    # service-level objectives for repro.serve: the object verbs recorded
    # under the "serve" label.  The names never collide with VFS entry
    # points.  Thresholds cover a whole object op (several VFS calls,
    # payloads up to 256 KiB) on an aged image.
    SLOSpec("service", ("put", "get", "exists", "delete", "list"),
            p99_ns=5e7, p999_ns=2e8, error_budget=0.001),
)


def _bump(counts: Dict[str, int], key: str, n: int = 1) -> None:
    counts[key] = counts.get(key, 0) + n


class Telemetry:
    """Mutable per-run record; harvest with :meth:`as_dict`."""

    def __init__(self) -> None:
        #: fs -> op -> latency (simulated ns) of every call that returned
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        #: fs -> op -> calls, failed ones included
        self.ops: Dict[str, Dict[str, int]] = {}
        #: fs -> op -> errno name -> calls that surfaced it
        self.surfaced: Dict[str, Dict[str, Dict[str, int]]] = {}
        #: fs -> fault kind -> outcome -> count (the FaultPlan ledger)
        self.faults: Dict[str, Dict[str, Dict[str, int]]] = {}
        #: counter family -> rendered labels -> value (serve index health)
        self.counters: Dict[str, Dict[str, int]] = {}
        #: degraded intervals in event order: ``fs``, ``reason``,
        #: ``start``, ``end`` (None while open) and ``recovered`` (closed
        #: by a repair rather than by :meth:`finalize`)
        self.intervals: List[Dict[str, Any]] = []

    # -- recording ------------------------------------------------------------

    def record_op(self, fs: str, op: str, latency_ns: float) -> None:
        self.samples.setdefault(fs, {}).setdefault(op, []).append(latency_ns)
        _bump(self.ops.setdefault(fs, {}), op)

    def record_error(self, fs: str, op: str, errno_name: str) -> None:
        """A call that surfaced an FSError.  It counts toward ``ops`` (it
        consumed a request) but adds no latency sample — an EROFS
        rejection is fast, and letting it pull p99 down would reward
        degradation."""
        _bump(self.ops.setdefault(fs, {}), op)
        _bump(self.surfaced.setdefault(fs, {}).setdefault(op, {}),
              errno_name)

    def absorb_fault_plan(self, fs: str, plan) -> None:
        """Fold *plan*'s ``(kind, outcome)`` counts into *fs*'s record."""
        by_kind = self.faults.setdefault(fs, {})
        for (kind, outcome), n in sorted(plan.counts.items()):
            _bump(by_kind.setdefault(kind, {}), outcome, int(n))

    def absorb_counters(self, counts: Mapping[str, Mapping[str, int]]
                        ) -> None:
        """Fold ``{name: {labels: n}}`` counts (e.g. a serve backend's
        ``index_counters()``) in under their exposition labels."""
        for name, series in counts.items():
            family = self.counters.setdefault(name, {})
            for labels, n in series.items():
                _bump(family, labels, int(n))

    def _open_interval(self, fs: str) -> Optional[Dict[str, Any]]:
        for interval in reversed(self.intervals):
            if interval["fs"] == fs and interval["end"] is None:
                return interval
        return None

    def mark_degraded(self, fs: str, reason: str, now_ns: float) -> None:
        """Open a degraded interval for *fs*; while one is open a second
        reason is dropped (the first detection wins, as in
        ``FileSystem.remount_read_only``)."""
        if self._open_interval(fs) is None:
            self.intervals.append({"fs": fs, "reason": reason,
                                   "start": now_ns, "end": None,
                                   "recovered": False})

    def mark_recovered(self, fs: str, now_ns: float) -> None:
        """Close *fs*'s open interval: a repair turns it into an MTTR
        sample."""
        interval = self._open_interval(fs)
        if interval is None:
            return
        if now_ns < interval["start"]:
            raise ObservabilityError("recovery precedes degradation")
        interval["end"] = now_ns
        interval["recovered"] = True

    def finalize(self, end_ns: float) -> None:
        """Close every still-open interval at the end of observation."""
        for interval in self.intervals:
            if interval["end"] is None:
                interval["end"] = end_ns

    def as_dict(self) -> Dict[str, Any]:
        """The parts above as plain dicts and lists: what a campaign
        cell returns and :func:`slo_report` folds."""
        return dict(vars(self))


def _fold(into: Dict[str, Any], part: Mapping[str, Any]) -> None:
    """Add *part* into *into*: dicts recurse, lists extend, counts add."""
    for key, value in part.items():
        if isinstance(value, Mapping):
            _fold(into.setdefault(key, {}), value)
        elif isinstance(value, list):
            into.setdefault(key, []).extend(value)
        else:
            into[key] = into.get(key, 0) + value


def _availability(intervals: List[Dict[str, Any]]
                  ) -> Dict[str, Dict[str, Any]]:
    """Per degraded FS: interval count, degraded time over the closed
    intervals, and mean time-to-recover over the *recovered* ones only
    (``None`` when none recovered: a mount degraded to the end of
    observation has no repair time)."""
    availability: Dict[str, Dict[str, Any]] = {}
    for fs in sorted({str(i["fs"]) for i in intervals}):
        mine = [i for i in intervals if i["fs"] == fs]
        closed = [i["end"] - i["start"] for i in mine
                  if i["end"] is not None]
        repairs = [i["end"] - i["start"] for i in mine if i["recovered"]]
        availability[fs] = {
            "degradations": len(mine),
            "degraded_ns": sum(closed, 0.0),
            "mttr_ns": sum(repairs) / len(repairs) if repairs else None}
    return availability


def slo_report(parts: Iterable[Mapping[str, Any]],
               slos: Tuple[SLOSpec, ...] = DEFAULT_SLOS) -> Dict[str, Any]:
    """Fold :meth:`Telemetry.as_dict` parts in the given (cell) order and
    grade every (fs, spec) pair that saw at least one operation.

    A row's p50/p99/p999 are :meth:`Summary.from_samples` over the merged
    samples of the spec's ops (0.0 when every call failed); its
    ``budget_burn`` is the surfaced-error fraction over the budget
    (> 1.0 = budget blown).  The other keys carry the merged surfaced
    errors, fault outcomes, absorbed counters and per-FS availability.
    """
    merged = Telemetry().as_dict()
    for part in parts:
        _fold(merged, part)
    samples, ops, surfaced = (merged["samples"], merged["ops"],
                              merged["surfaced"])
    rows: List[Dict[str, Any]] = []
    for fs in sorted(ops):
        for spec in slos:
            calls = sum(ops[fs].get(op, 0) for op in spec.ops)
            if not calls:
                continue
            errors = sum(n for op in spec.ops
                         for n in surfaced.get(fs, {}).get(op, {}).values())
            latencies = [ns for op in spec.ops
                         for ns in samples.get(fs, {}).get(op, ())]
            tail = Summary.from_samples(latencies) if latencies else None
            p50, p99, p999 = ((tail.median, tail.p99, tail.p999) if tail
                              else (0.0, 0.0, 0.0))
            burn = errors / calls / spec.error_budget
            checks = ((f"p99<={spec.p99_ns:.0f}ns", p99 <= spec.p99_ns),
                      (f"p999<={spec.p999_ns:.0f}ns", p999 <= spec.p999_ns),
                      (f"errors<={spec.error_budget:g}", burn <= 1.0))
            rows.append({
                "fs": fs, "slo": spec.name, "ops": calls,
                "surfaced": errors, "p50_ns": p50, "p99_ns": p99,
                "p999_ns": p999, "budget_burn": burn,
                "objectives": [f"{label}: {'OK' if ok else 'VIOLATED'}"
                               for label, ok in checks],
                "ok": all(ok for _label, ok in checks)})
    return {"results": rows, "surfaced": surfaced,
            "faults": merged["faults"], "counters": merged["counters"],
            "availability": _availability(merged["intervals"])}
