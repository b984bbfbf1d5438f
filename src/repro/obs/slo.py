"""SLO specs, the surfaced/masked error ledger, and SLO evaluation.

An :class:`SLOSpec` states what "good" means for one class of VFS
operations: latency objectives on the sketch quantiles (p50/p99/p999 in
simulated ns) and an error budget — the fraction of operations allowed to
surface an error to the caller.  Faults that the stack *masks* (a torn
journal record caught by its checksum, a failing block relocated on
retry) never burn budget; that distinction is exactly what the
:class:`~repro.faults.FaultPlan` ledger records, and
:meth:`ErrorLedger.absorb_fault_counts` folds it in per FS.

Evaluation (:func:`evaluate`) is pure arithmetic over a telemetry frame:
same frame, same report, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .metrics import Counter, format_series
from .sketch import SketchBank
from .timeline import DegradedTimeline

__all__ = ["SLOSpec", "DEFAULT_SLOS", "ErrorLedger", "SLOResult",
           "evaluate"]


@dataclass(frozen=True)
class SLOSpec:
    """One operation class's objectives.

    ``ops`` names the VFS entry points the spec covers; quantile bounds
    are inclusive (``p99 <= p99_ns`` passes).  ``error_budget`` is the
    allowed surfaced-error fraction of operations in the class (0.001 =
    "three nines" on errors).  A bound of ``None`` means "no objective".
    """

    name: str
    ops: Tuple[str, ...]
    p50_ns: Optional[float] = None
    p99_ns: Optional[float] = None
    p999_ns: Optional[float] = None
    error_budget: float = 0.001

    def covers(self, op: str) -> bool:
        return op in self.ops


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
    # points, so frames without a service layer evaluate exactly as
    # before.  Thresholds cover a whole object op (several VFS calls,
    # payloads up to 256 KiB) on an aged image.
    SLOSpec("service", ("put", "get", "exists", "delete", "list"),
            p99_ns=5e7, p999_ns=2e8, error_budget=0.001),
)


class ErrorLedger:
    """Per-(fs, op) operation/error counts plus per-fs fault outcomes.

    ``ops`` counts every instrumented VFS call (successes and failures);
    ``surfaced`` counts the calls that raised an
    :class:`~repro.errors.FSError` to the caller, keyed further by errno
    name.  Fault-plan outcomes (injected/masked/surfaced per kind) are
    absorbed per FS so reports can show what the stack swallowed, and
    registry counters absorbed at harvest (cache health) ride along as
    ``name -> rendered labels -> count``.
    """

    def __init__(self) -> None:
        self._ops: Dict[Tuple[str, str], int] = {}
        self._surfaced: Dict[Tuple[str, str], Dict[str, int]] = {}
        self._faults: Dict[str, Dict[str, Dict[str, int]]] = {}
        self._counters: Dict[str, Dict[str, int]] = {}

    # -- recording ----------------------------------------------------------

    def note_op(self, fs: str, op: str) -> None:
        key = (fs, op)
        self._ops[key] = self._ops.get(key, 0) + 1

    def note_surfaced(self, fs: str, op: str, errno_name: str) -> None:
        key = (fs, op)
        by_errno = self._surfaced.setdefault(key, {})
        by_errno[errno_name] = by_errno.get(errno_name, 0) + 1

    def absorb_fault_counts(self, fs: str,
                            counts: Mapping[Tuple[str, str], int]) -> None:
        """Fold a :class:`~repro.faults.FaultPlan`'s ``counts`` ledger
        (keyed ``(kind, outcome)``) into this FS's fault record."""
        store = self._faults.setdefault(fs, {})
        for (kind, outcome), n in sorted(counts.items()):
            by_outcome = store.setdefault(kind, {})
            by_outcome[outcome] = by_outcome.get(outcome, 0) + int(n)

    def absorb_counters(self, series: Iterable[Counter]) -> None:
        """Fold registry counter handles (e.g. a serve backend's
        ``index_counters()``) in under their exposition labels."""
        for counter in series:
            self._count(counter.name, format_series("", counter.labels),
                        int(counter.value))

    def _count(self, name: str, labels: str, n: int) -> None:
        by_labels = self._counters.setdefault(name, {})
        by_labels[labels] = by_labels.get(labels, 0) + n

    # -- queries ------------------------------------------------------------

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Absorbed counters, families and label sets sorted."""
        return {name: dict(sorted(by.items()))
                for name, by in sorted(self._counters.items())}

    def ops(self, fs: str, op: Optional[str] = None) -> int:
        if op is not None:
            return self._ops.get((fs, op), 0)
        return sum(n for (f, _o), n in self._ops.items() if f == fs)

    def surfaced(self, fs: str, op: Optional[str] = None) -> int:
        total = 0
        for (f, o), by_errno in self._surfaced.items():
            if f == fs and (op is None or o == op):
                total += sum(by_errno.values())
        return total

    def fault_total(self, fs: str, outcome: str) -> int:
        return sum(by_outcome.get(outcome, 0)
                   for by_outcome in self._faults.get(fs, {}).values())

    def fs_names(self) -> List[str]:
        return sorted({f for (f, _o) in self._ops}
                      | {f for (f, _o) in self._surfaced}
                      | set(self._faults))

    def op_names(self, fs: str) -> List[str]:
        return sorted({o for (f, o) in self._ops if f == fs}
                      | {o for (f, o) in self._surfaced if f == fs})

    # -- merge / serialization ----------------------------------------------

    def merge(self, other: "ErrorLedger") -> "ErrorLedger":
        for key in sorted(other._ops):
            self._ops[key] = self._ops.get(key, 0) + other._ops[key]
        for key in sorted(other._surfaced):
            mine = self._surfaced.setdefault(key, {})
            for errno_name in sorted(other._surfaced[key]):
                mine[errno_name] = mine.get(errno_name, 0) \
                    + other._surfaced[key][errno_name]
        for fs in sorted(other._faults):
            store = self._faults.setdefault(fs, {})
            for kind in sorted(other._faults[fs]):
                by_outcome = store.setdefault(kind, {})
                for outcome in sorted(other._faults[fs][kind]):
                    by_outcome[outcome] = by_outcome.get(outcome, 0) \
                        + other._faults[fs][kind][outcome]
        for name, by_labels in other.counters().items():
            for labels, n in by_labels.items():
                self._count(name, labels, n)
        return self

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "ops": {f"{f}\x1f{o}": n
                    for (f, o), n in sorted(self._ops.items())},
            "surfaced": {f"{f}\x1f{o}": dict(sorted(by.items()))
                         for (f, o), by in sorted(self._surfaced.items())},
            "faults": {fs: {kind: dict(sorted(by.items()))
                            for kind, by in sorted(kinds.items())}
                       for fs, kinds in sorted(self._faults.items())},
        }
        # absent rather than empty, so frames without absorbed counters
        # (``repro slo``) keep their bytes
        if self._counters:
            payload["counters"] = self.counters()
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ErrorLedger":
        ledger = cls()
        for key, n in dict(payload.get("ops", {})).items():
            fs, _, op = key.partition("\x1f")
            ledger._ops[(fs, op)] = int(n)
        for key, by in dict(payload.get("surfaced", {})).items():
            fs, _, op = key.partition("\x1f")
            ledger._surfaced[(fs, op)] = {k: int(v)
                                          for k, v in dict(by).items()}
        for fs, kinds in dict(payload.get("faults", {})).items():
            ledger._faults[fs] = {kind: {o: int(v)
                                         for o, v in dict(by).items()}
                                  for kind, by in dict(kinds).items()}
        for name, by in dict(payload.get("counters", {})).items():
            for labels, n in dict(by).items():
                ledger._count(name, labels, int(n))
        return ledger


@dataclass
class SLOResult:
    """One (fs, spec) evaluation row."""

    fs: str
    spec: SLOSpec
    ops: int
    surfaced: int
    p50_ns: float
    p99_ns: float
    p999_ns: float
    #: surfaced-error fraction divided by the budget; > 1.0 = budget blown
    budget_burn: float
    #: "objective<=bound: OK|VIOLATED" lines, one per set objective
    objective_lines: Tuple[str, ...]
    ok: bool


def _check(label: str, value: float, bound: Optional[float],
           lines: List[str]) -> bool:
    if bound is None:
        return True
    ok = value <= bound
    lines.append(f"{label}<={bound:.0f}ns: {'OK' if ok else 'VIOLATED'}")
    return ok


def evaluate(sketches: SketchBank, ledger: ErrorLedger,
             timeline: Optional[DegradedTimeline] = None,
             slos: Tuple[SLOSpec, ...] = DEFAULT_SLOS) -> List[SLOResult]:
    """Evaluate every (fs, spec) pair that saw at least one operation.

    Quantiles come from the merged per-op sketches of the spec's op
    class (an exact merge — the class sketch is what a per-class sketch
    would have recorded); errors from the ledger.  Rows are ordered
    (fs, spec) — deterministic for a deterministic frame.
    """
    fs_names = sorted(set(ledger.fs_names())
                      | {fs for (fs, _op) in sketches.keys()})
    results: List[SLOResult] = []
    for fs in fs_names:
        for spec in slos:
            class_sketch = None
            ops = 0
            surfaced = 0
            for op in spec.ops:
                sketch = sketches.get(fs, op)
                if sketch is not None:
                    if class_sketch is None:
                        from .sketch import LatencySketch
                        class_sketch = LatencySketch()
                    class_sketch.merge(sketch)
                ops += ledger.ops(fs, op)
                surfaced += ledger.surfaced(fs, op)
            if ops == 0 and class_sketch is None:
                continue
            p50 = class_sketch.p50 if class_sketch else 0.0
            p99 = class_sketch.p99 if class_sketch else 0.0
            p999 = class_sketch.p999 if class_sketch else 0.0
            error_fraction = surfaced / ops if ops else 0.0
            burn = (error_fraction / spec.error_budget
                    if spec.error_budget > 0 else 0.0)
            lines: List[str] = []
            ok = True
            ok &= _check("p50", p50, spec.p50_ns, lines)
            ok &= _check("p99", p99, spec.p99_ns, lines)
            ok &= _check("p999", p999, spec.p999_ns, lines)
            if spec.error_budget > 0:
                budget_ok = burn <= 1.0
                lines.append(f"errors<={spec.error_budget:g}: "
                             f"{'OK' if budget_ok else 'VIOLATED'}")
                ok &= budget_ok
            results.append(SLOResult(
                fs=fs, spec=spec, ops=ops, surfaced=surfaced,
                p50_ns=p50, p99_ns=p99, p999_ns=p999, budget_burn=burn,
                objective_lines=tuple(lines), ok=bool(ok)))
    return results
