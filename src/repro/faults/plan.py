"""The fault-plan engine: specs, deterministic scheduling, accounting.

See the package docstring for the fault model and DESIGN.md ("Fault
model") for the plan format and degradation ladder.  Determinism contract:
the same ``(seed, specs)`` against the same workload fires the same faults
at the same operations — all randomness flows through one
seeded RNG (``repro.rng.make_rng``) owned by the plan.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import InvalidArgumentError, MediaError
from ..params import CACHELINE
from ..rng import make_rng

FAULT_KINDS = ("poison", "torn_store", "latency", "enospc", "write_error")

#: bounded retry budget for failed block writes (relocations per write op)
MAX_WRITE_RETRIES = 3


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Fields are interpreted per *kind*:

    * ``poison``: lines covering ``[addr, addr+length)`` are poisoned when
      the plan attaches to a device (a discovered bad range).
    * ``torn_store``: the ``at_op``-th device store (0-based, counted only
      while the plan is active) keeps only a seeded 8-byte-granular prefix.
    * ``latency``: device loads/stores in ops ``[at_op, at_op+count)``
      charge ``latency_mult`` times their normal cost.
    * ``enospc``: allocator calls ``[at_op, at_op+count)`` raise ENOSPC.
    * ``write_error``: writes touching any block in ``blocks`` fail (empty
      tuple = every block fails); fires at most ``count`` times (0 =
      unlimited).
    """

    kind: str
    addr: int = -1
    length: int = CACHELINE
    at_op: int = 0
    count: int = 1
    latency_mult: float = 8.0
    blocks: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # specs arrive from plan files (``repro faults --plan``): every
        # field is type-checked here so a bad one is an EINVAL, never a
        # TypeError deep inside a device hook
        if self.kind not in FAULT_KINDS:
            raise InvalidArgumentError(f"unknown fault kind {self.kind!r}")
        for name in ("addr", "length", "at_op", "count"):
            if not _is_int(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be an integer")
        if self.kind == "poison" and (self.addr < 0 or self.length <= 0):
            raise InvalidArgumentError("poison needs addr >= 0, length > 0")
        if self.at_op < 0 or self.count < 0:
            raise InvalidArgumentError("at_op/count must be non-negative")
        mult = self.latency_mult
        if not isinstance(mult, (int, float)) or isinstance(mult, bool) \
                or not 1.0 <= mult <= sys.float_info.max:
            raise InvalidArgumentError(
                "latency_mult must be a finite number >= 1.0")
        if not isinstance(self.blocks, (list, tuple)) \
                or not all(_is_int(b) for b in self.blocks):
            raise InvalidArgumentError("blocks must be a list of integers")
        object.__setattr__(self, "blocks", tuple(self.blocks))


class FaultPlan:
    """A deterministic schedule of faults plus the fault ledger.

    The plan is attached to a :class:`~repro.pm.device.PMDevice` (which
    calls the ``on_load`` / ``on_store`` hooks) and handed by WineFS to
    its allocator (``take_enospc`` / ``failing_block``).  Every event is
    recorded in :attr:`counts` keyed ``(kind, outcome)``; when a context
    with tracing on is available, it is also emitted as a zero-width
    trace record.
    """

    def __init__(self, seed: int = 0,
                 specs: Sequence[FaultSpec] = ()) -> None:
        self.seed = seed
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.rng = make_rng(seed)
        self.counts: Dict[Tuple[str, str], int] = {}
        # op counters (advance only while the plan is active)
        self.device_ops = 0
        self.alloc_ops = 0
        self._device = None
        # -- compiled schedule -------------------------------------------
        self._poisoned: Set[int] = set()
        self._pmin = 0
        self._pmax = -1
        self._torn_at: Dict[int, FaultSpec] = {}
        self._latency: List[FaultSpec] = []
        self._enospc: List[FaultSpec] = []
        self._write_errors: List[FaultSpec] = []
        self._we_fired: List[int] = []
        for spec in self.specs:
            if spec.kind == "torn_store":
                self._torn_at[spec.at_op] = spec
            elif spec.kind == "latency":
                self._latency.append(spec)
            elif spec.kind == "enospc":
                self._enospc.append(spec)
            elif spec.kind == "write_error":
                self._write_errors.append(spec)
                self._we_fired.append(0)

    # -- activity -------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        """Plans without specs behave exactly like no plan at all."""
        return bool(self.specs)

    def attach(self, device) -> None:
        """Bind to *device* (gives the hooks the machine cost model) and
        poison the planned lines.

        Poison ranges expand to per-line entries here, on the first
        attach, and must lie inside the device: what a range costs is
        bounded by the device, not by the number written in a plan file.
        """
        if self._device is None:
            poison = [s for s in self.specs if s.kind == "poison"]
            for spec in poison:
                if spec.addr + spec.length > device.size:
                    raise InvalidArgumentError(
                        f"poison range [{spec.addr:#x}, +{spec.length}) "
                        f"outside device of size {device.size:#x}")
            for spec in poison:
                first = spec.addr // CACHELINE
                last = (spec.addr + spec.length - 1) // CACHELINE
                self._poisoned.update(range(first, last + 1))
            if self._poisoned:
                self._pmin = min(self._poisoned)
                self._pmax = max(self._poisoned)
                self.counts[("poison", "injected")] = len(self._poisoned)
        self._device = device

    @property
    def wants_write_checks(self) -> bool:
        """Does the FS write path need to consult :meth:`failing_block`?"""
        return bool(self._write_errors)

    # -- ledger ---------------------------------------------------------------

    def note(self, kind: str, outcome: str, ctx=None, **attrs) -> None:
        """Record one fault event (and trace it when tracing is on)."""
        key = (kind, outcome)
        self.counts[key] = self.counts.get(key, 0) + 1
        if ctx is not None and ctx.trace.enabled:
            now = ctx.now
            ctx.trace.record(f"fault.{kind}", ctx.cpu, now, now,
                             outcome=outcome, **attrs)

    def count(self, kind: str, outcome: str) -> int:
        return self.counts.get((kind, outcome), 0)

    # -- device hooks ----------------------------------------------------------

    def on_load(self, addr: int, length: int, ctx) -> None:
        """Device load hook: poison check + latency spikes.

        Raises :class:`~repro.errors.MediaError` when the read intersects
        a poisoned line; otherwise may charge extra latency to *ctx*.
        """
        op = self.device_ops
        self.device_ops = op + 1
        if length <= 0:
            return
        if self._poisoned:
            first = addr // CACHELINE
            last = (addr + length - 1) // CACHELINE
            if first <= self._pmax and last >= self._pmin:
                for line in range(first, last + 1):
                    if line in self._poisoned:
                        self.note("poison", "surfaced", ctx,
                                  addr=addr, line=line)
                        raise MediaError(
                            f"uncorrectable media error: load [{addr:#x}, "
                            f"+{length}) hits poisoned line {line}")
        if self._latency and ctx is not None:
            mult = self._latency_mult_at(op)
            if mult > 1.0:
                machine = self._device.machine
                base = machine.pm_load_ns + machine.pm_read_ns(length)
                ctx.charge((mult - 1.0) * base)
                self.note("latency", "injected", ctx, op=op, load=length)

    def on_store(self, addr: int, data, ctx):
        """Device store hook: torn stores, latency, poison healing.

        Returns the bytes that actually land (a prefix when torn).
        """
        op = self.device_ops
        self.device_ops = op + 1
        length = len(data)
        if length == 0:
            return data
        spec = self._torn_at.get(op)
        if spec is not None and length >= 8:
            # keep a seeded 8-byte-granular prefix strictly shorter than
            # the store (x86 guarantees aligned 8-byte atomicity, §5.2)
            keep = 8 * self.rng.randrange(0, length // 8)
            self.note("torn_store", "injected", ctx, addr=addr,
                      kept=keep, dropped=length - keep)
            data = data[:keep]
            length = keep
        if self._latency and ctx is not None and length:
            mult = self._latency_mult_at(op)
            if mult > 1.0:
                ctx.charge((mult - 1.0)
                           * self._device.machine.pm_write_ns(length))
                self.note("latency", "injected", ctx, op=op, store=length)
        if self._poisoned and length:
            # an overwrite that fully covers a poisoned line heals it
            first_full = (addr + CACHELINE - 1) // CACHELINE
            last_full = (addr + length) // CACHELINE - 1
            if first_full <= last_full and first_full <= self._pmax \
                    and last_full >= self._pmin:
                for line in range(first_full, last_full + 1):
                    if line in self._poisoned:
                        self._poisoned.discard(line)
                        self.note("poison", "masked", ctx, line=line)
                if self._poisoned:
                    self._pmin = min(self._poisoned)
                    self._pmax = max(self._poisoned)
        return data

    def _latency_mult_at(self, op: int) -> float:
        mult = 1.0
        for spec in self._latency:
            if spec.at_op <= op < spec.at_op + spec.count:
                mult = max(mult, spec.latency_mult)
        return mult

    # -- allocator hooks -------------------------------------------------------

    def take_enospc(self, ctx=None) -> bool:
        """Should this allocator call fail with ENOSPC?"""
        op = self.alloc_ops
        self.alloc_ops = op + 1
        for spec in self._enospc:
            if spec.at_op <= op < spec.at_op + spec.count:
                self.note("enospc", "injected", ctx, op=op)
                self.note("enospc", "surfaced", ctx, op=op)
                return True
        return False

    def failing_block(self, blocks: Iterable[int],
                      ctx=None) -> Optional[int]:
        """First physical block in *blocks* whose write would fail.

        Counts one injection per firing; an exhausted spec (``count``
        firings spent) stops failing.
        """
        if not self._write_errors:
            return None
        armed = [i for i, spec in enumerate(self._write_errors)
                 if spec.count == 0 or self._we_fired[i] < spec.count]
        if not armed:
            return None
        for block in blocks:
            for i in armed:
                spec = self._write_errors[i]
                if not spec.blocks or block in spec.blocks:
                    self._we_fired[i] += 1
                    self.note("write_error", "injected", ctx, block=block)
                    return block
        return None

    # -- (de)serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "specs": [asdict(spec) for spec in self.specs],
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text) -> "FaultPlan":
        """Parse a plan document (``str`` or UTF-8 ``bytes``).

        Outside input: anything but ``{"seed": int, "specs": [{field:
        value}]}`` raises :class:`InvalidArgumentError`, nothing else.
        """
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InvalidArgumentError(f"fault plan is not JSON: {exc}")
        if not isinstance(raw, dict):
            raise InvalidArgumentError("fault plan must be a JSON object")
        seed = raw.get("seed", 0)
        entries = raw.get("specs", [])
        if not _is_int(seed):
            raise InvalidArgumentError("seed must be an integer")
        if not isinstance(entries, list):
            raise InvalidArgumentError("specs must be a list")
        known = {f.name for f in fields(FaultSpec)}
        specs = []
        for entry in entries:
            if not isinstance(entry, dict) or "kind" not in entry \
                    or not known.issuperset(entry):
                raise InvalidArgumentError(
                    f"a spec must be an object with 'kind' and fields "
                    f"from {sorted(known)}, got {entry!r:.80}")
            specs.append(FaultSpec(**entry))
        return cls(seed=seed, specs=specs)

    def report_rows(self) -> List[Tuple[str, int, int, int]]:
        """(kind, injected, masked, surfaced) rows for every kind seen."""
        kinds = sorted({k for (k, _o) in self.counts})
        return [(k,
                 self.count(k, "injected"),
                 self.count(k, "masked"),
                 self.count(k, "surfaced")) for k in kinds]

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, specs={len(self.specs)}, "
                f"events={sum(self.counts.values())})")
