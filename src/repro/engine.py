"""State-engine selection.

The simulator keeps its hottest state — free-space run indexes, page
tables, store logs, per-CPU clocks — in structure-of-arrays kernels
(flat parallel columns of ints/doubles).  The original per-object
implementations are retained as *reference* engines: same public API,
same simulated decisions, same bit-identical ``sim_ns``, different
in-memory representation.

Two toggles select an engine:

* :attr:`~repro.mmu.mmap_region.MappedRegion.batch` — the existing walk
  toggle — switches between the batched charge kernels and the
  per-event reference *walk*;
* this module's flag switches between the array-backed and the
  per-object reference *state* structures.

The flag starts ``False`` and nothing outside the tests sets it: the
equivalence and property-differential suites flip both toggles (this one
through :func:`reference_state_scope`) and compare clocks, counters, and
statfs byte-for-byte; that comparison is the safety argument for every
structure swap.  Production code never reads this flag on a hot path:
it is consulted once per structure *construction* (``FreePool(...)``,
``PageTable(...)`` dispatch in ``__new__``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: True -> new FreePool/PageTable instances use the per-object reference
#: implementations.  Only tests set it, through :func:`reference_state_scope`.
_reference_state = False


def reference_state() -> bool:
    """Are new structures built on the per-object reference engine?"""
    return _reference_state


def use_reference_state(flag: bool) -> None:
    """Select the state engine for structures built from now on.

    Existing instances keep the engine they were built with; flipping
    mid-run affects only later constructions (tests build the whole
    scenario under one setting).
    """
    global _reference_state
    _reference_state = bool(flag)


@contextmanager
def reference_state_scope(flag: bool = True) -> Iterator[None]:
    """Run a block under the given state engine, then restore."""
    prev = _reference_state
    use_reference_state(flag)
    try:
        yield
    finally:
        use_reference_state(prev)
