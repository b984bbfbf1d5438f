"""Simulated time.

All performance results in this reproduction come from *simulated*
nanoseconds, never the wall clock.  Each logical CPU owns a monotonically
increasing virtual clock; file-system and MMU code charge costs to the CPU
they run on through a :class:`SimContext`.

Concurrency model
-----------------
We do not use OS threads (the GIL would make timing meaningless).  Instead a
workload assigns operations to virtual CPUs; a :class:`LockManager` serializes
critical sections in simulated time, which is exactly what determines the
scalability results in the paper (Fig 10): file systems whose fsync path grabs
a global lock serialize, per-CPU designs do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import SimulationError
from .obs.trace import NULL_TRACER, NullTracer


class SimClock:
    """A set of per-CPU virtual clocks, in nanoseconds."""

    def __init__(self, num_cpus: int) -> None:
        if num_cpus < 1:
            raise SimulationError("SimClock needs at least one CPU")
        self.num_cpus = num_cpus
        # one flat slot vector, indexed by CPU id; every charge path
        # (including the fused kernels that write _cpu_ns[cpu] directly)
        # shares this single store.  A list beats array('d') here: the
        # hot += would pay an unbox/rebox per touch on a typed array
        self._cpu_ns = [0.0] * num_cpus
        #: one TLB per CPU, shared by every mapping touched on it; built on
        #: the CPU's first mapping access (MappedRegion._new_tlb)
        self.tlbs: list = [None] * num_cpus

    def charge(self, cpu: int, ns: float) -> None:
        """Advance *cpu*'s clock by *ns* nanoseconds."""
        if ns < 0:
            raise SimulationError(f"cannot charge negative time: {ns}")
        self._cpu_ns[cpu] += ns

    def charge_repeat(self, cpu: int, ns: float, count: int) -> None:
        """Advance *cpu*'s clock by *ns*, *count* times.

        Bit-identical to ``count`` sequential :meth:`charge` calls: float
        addition is not associative, so the adds are performed one at a
        time (on a local) rather than grouped into one ``count * ns`` add.
        """
        if ns < 0:
            raise SimulationError(f"cannot charge negative time: {ns}")
        if count <= 0:
            return
        v = self._cpu_ns[cpu]
        for _ in range(count):
            v += ns
        self._cpu_ns[cpu] = v

    def now(self, cpu: int) -> float:
        return self._cpu_ns[cpu]

    def advance_to(self, cpu: int, ns: float) -> None:
        """Move *cpu* forward to absolute time *ns* (no-op if already past)."""
        if ns > self._cpu_ns[cpu]:
            self._cpu_ns[cpu] = ns

    @property
    def elapsed(self) -> float:
        """Makespan: the max across CPU clocks (parallel completion time)."""
        return max(self._cpu_ns)

    def reset(self) -> None:
        self._cpu_ns = [0.0] * self.num_cpus

    def snapshot(self) -> List[float]:
        return list(self._cpu_ns)


class LockManager:
    """Simulated-time mutual exclusion.

    ``acquire(name, cpu)`` advances *cpu* to the lock's free time (modeling
    the wait) and returns; ``release`` records when the holder let go.  This
    deterministic model charges real contention: if CPU 1 holds lock L for
    [t0, t1] and CPU 2 arrives at t < t1, CPU 2's clock jumps to t1.

    Lock names are namespaced: the text before the first ``:`` names the
    lock family (DESIGN.md lists them), the rest the instance.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self._clock = clock
        self._free_at: Dict[str, float] = {}
        self._holder: Dict[str, int] = {}
        self._atomic_next: Dict[str, float] = {}
        self.contended_waits = 0
        #: observability hooks, attached by SimContext.__post_init__
        self.counters: Optional["EventCounters"] = None
        self.trace: NullTracer = NULL_TRACER

    def bind(self, clock: SimClock) -> "LockManager":
        """Attach the clock (idempotent; first binding wins).

        Allows ``LockManager`` to be a plain dataclass default factory for
        :class:`SimContext`, which owns the clock.
        """
        if self._clock is None:
            self._clock = clock
        return self

    def _require_clock(self) -> SimClock:
        if self._clock is None:
            raise SimulationError("LockManager is not bound to a SimClock")
        return self._clock

    def reset_timeline(self) -> None:
        """Forget lock history so a clock reset starts a clean timeline.

        Must accompany ``SimClock.reset()``: lock free times are absolute
        simulated timestamps, so leaving them behind after zeroing the clock
        makes the next acquisition of any previously-held lock pay the whole
        prior makespan as a spurious wait.
        """
        self._free_at.clear()
        self._holder.clear()
        self._atomic_next.clear()
        self.contended_waits = 0

    def _charge_wait(self, name: str, cpu: int, now: float,
                     until: float) -> None:
        wait = until - now
        self.contended_waits += 1
        if self.counters is not None:
            self.counters.lock_wait_ns += wait
        if self.trace.enabled:
            self.trace.record("lock.wait", cpu, now, until, lock=name)

    def acquire(self, name: str, cpu: int) -> None:
        clock = self._clock
        if clock is None:
            clock = self._require_clock()
        free_at = self._free_at.get(name, 0.0)
        now = clock._cpu_ns[cpu]
        if free_at > now:
            self._charge_wait(name, cpu, now, free_at)
            clock.advance_to(cpu, free_at)
        self._holder[name] = cpu

    def release(self, name: str, cpu: int) -> None:
        # _holder keeps only locks that are held
        holder = self._holder
        if name in holder:
            del holder[name]
        # the lock becomes free at the releasing CPU's current time
        clock = self._clock
        if clock is None:
            clock = self._require_clock()
        self._free_at[name] = clock._cpu_ns[cpu]

    def forget(self, name: str) -> None:
        """Drop the free time of a lock no one will take again.

        File systems call this when they free an inode: inode lock names
        carry the inode's generation, which is never reused, so the entry
        could only ever answer "free since t" to nobody.  Forgetting it
        keeps the table as large as the live inodes, not as every inode
        ever locked, and moves no simulated wait.
        """
        free_at = self._free_at
        if name in free_at:
            del free_at[name]

    def atomic(self, name: str, cpu: int, hold_ns: float) -> None:
        """A brief serializing operation (atomic instruction, short
        critical section) on a shared resource.

        Unlike acquire/release — whose release time carries the holder's
        *entire* preceding timeline and therefore convoys everything that
        follows — an atomic only consumes ``hold_ns`` of the resource's
        serial capacity per use: the resource saturates at 1/hold_ns uses
        per nanosecond, which is the correct scaling behaviour for
        fetch-add journal reservations and similar.
        """
        if hold_ns < 0:
            raise SimulationError("negative hold time")
        clock = self._require_clock()
        now = clock.now(cpu)
        busy = self._atomic_next.get(name, 0.0)
        # fluid model: the resource's busy horizon only ever accumulates
        # hold_ns per use — callers never drag it to their own (late)
        # clocks.  When aggregate demand exceeds 1/hold_ns the horizon
        # outruns the CPU clocks and waits appear (saturation at exactly
        # the resource's serial capacity); under light load it lags and
        # no one waits.  This keeps op-granular round-robin execution
        # from serializing work that would overlap in real time.
        if busy > now:
            self._charge_wait(name, cpu, now, busy)
            clock.advance_to(cpu, busy)
        clock.charge(cpu, hold_ns)
        self._atomic_next[name] = busy + hold_ns


#: the EventCounters fields, in ``as_dict`` order
_COUNTER_FIELDS = (
    "page_faults_4k", "page_faults_2m",
    "tlb_misses", "tlb_hits",
    "llc_misses", "llc_hits",
    "pm_bytes_read", "pm_bytes_written",
    "fault_ns", "copy_ns", "journal_ns", "lock_wait_ns",
    "syscalls",
)


class EventCounters:
    """Hardware-ish event counters the evaluation reports.

    These feed Table 2 (page faults), Fig 4/8 (TLB and LLC misses), and the
    fault-time breakdowns of Figs 1, 2 and 6.  A plain record: every
    write is ``ctx.counters.x += n``, and a misspelled field raises
    ``AttributeError`` instead of growing a new one.
    """

    __slots__ = _COUNTER_FIELDS
    _fields = _COUNTER_FIELDS

    def __init__(self, **values: float) -> None:
        self.reset()
        for key, value in values.items():
            if key not in _COUNTER_FIELDS:
                raise TypeError(f"unknown counter field {key!r}")
            setattr(self, key, value)

    def reset(self) -> None:
        """Zero every count (an int 0, as a fresh record has)."""
        for f in _COUNTER_FIELDS:
            setattr(self, f, 0)

    @property
    def page_faults(self) -> int:
        return self.page_faults_4k + self.page_faults_2m

    def add_repeat(self, attr: str, value: float, count: int) -> None:
        """``attr += value``, *count* times, in one call.

        Bit-identical to *count* sequential ``+=`` statements: the adds
        run one at a time on a local, never grouped into ``count * value``.
        """
        if count <= 0:
            return
        v = getattr(self, attr)
        for _ in range(count):
            v += value
        setattr(self, attr, v)

    def merged_with(self, other: "EventCounters") -> "EventCounters":
        out = EventCounters()
        for f in _COUNTER_FIELDS:
            setattr(out, f, getattr(self, f) + getattr(other, f))
        return out

    def as_dict(self) -> Dict[str, float]:
        return {f: getattr(self, f) for f in _COUNTER_FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventCounters):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        nonzero = ", ".join(f"{k}={v}" for k, v in self.as_dict().items()
                            if v)
        return f"EventCounters({nonzero})"


@dataclass
class SimContext:
    """Everything an operation needs to account for its costs.

    Passed down from workloads through the VFS into file systems and the
    MMU.  ``cpu`` is the virtual CPU the operation runs on.  ``trace`` is
    the observability handle: the shared no-op :data:`NULL_TRACER` by
    default, so tracing is off unless a real
    :class:`~repro.obs.trace.Tracer` is passed in — and recording spans
    never charges the clock either way.
    """

    clock: SimClock
    cpu: int = 0
    counters: EventCounters = field(default_factory=EventCounters)
    locks: LockManager = field(default_factory=LockManager)
    trace: NullTracer = NULL_TRACER

    def __post_init__(self) -> None:
        self.locks.bind(self.clock)
        if self.locks.counters is None:
            self.locks.counters = self.counters
        if self.trace.enabled and not self.locks.trace.enabled:
            self.locks.trace = self.trace
        if not 0 <= self.cpu < self.clock.num_cpus:
            raise SimulationError(f"cpu {self.cpu} out of range")

    def charge(self, ns: float) -> None:
        self.clock.charge(self.cpu, ns)

    def charge_repeat(self, ns: float, count: int) -> None:
        """*count* sequential :meth:`charge` calls, bit-identical."""
        self.clock.charge_repeat(self.cpu, ns, count)

    @property
    def now(self) -> float:
        return self.clock.now(self.cpu)

    def on_cpu(self, cpu: int) -> "SimContext":
        """A view of this context running on a different CPU.

        Shares the clock, counters, lock manager and trace handle.
        """
        return SimContext(clock=self.clock, cpu=cpu, counters=self.counters,
                          locks=self.locks, trace=self.trace)


def make_context(num_cpus: int = 4, cpu: int = 0,
                 trace: Optional[NullTracer] = None) -> SimContext:
    """Convenience constructor used throughout tests and examples."""
    return SimContext(clock=SimClock(num_cpus), cpu=cpu,
                      trace=trace if trace is not None else NULL_TRACER)
