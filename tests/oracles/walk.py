"""The per-event MMU walk: the oracle the batched walk is held to.

:class:`~repro.mmu.mmap_region.MappedRegion` charges TLB events per
mapping *run* and resolves mapped pages by probing the raw page-table
dicts.  The walk it replaced lives here, verbatim, as the reference the
equivalence suites compare it with: one :func:`_touch_translation` per
touched 4 KiB page, each resolving a boxed
:class:`~tests.oracles.page_table.Mapping` through ``lookup``; a
``prefault`` that faults one page at a time; a ``read`` without the
small-read fast path.  Both walks must produce bit-identical simulated
time, counters and data.

:func:`reference_walk` patches these functions onto ``MappedRegion`` for
the duration of a block (``_FSMappedRegion`` inherits them) and ``lookup``
onto the flat :class:`~repro.mmu.page_table.PageTable` (the
:class:`~tests.oracles.page_table.ReferencePageTable` has its own).  It
yields a tally of the calls each patched name took, and
:func:`assert_reference_walk` checks that every walk entry point ran
per-event, so a patch set that misses one fails instead of comparing the
batched walk with itself.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack, contextmanager
from functools import wraps
from typing import Callable, Iterator, Optional
from unittest import mock

from repro.clock import SimContext
from repro.mmu.mmap_region import _PAGES_PER_HUGE, MappedRegion
from repro.mmu.page_table import PageTable
from repro.params import BASE_PAGE
from repro.pm.zeros import zero_bytes

from .page_table import Mapping

__all__ = ["assert_reference_walk", "reference_walk"]


def lookup(self: PageTable, virt_page: int) -> Optional[Mapping]:
    """The translation covering *virt_page* in a flat table, boxed."""
    idx = virt_page // _PAGES_PER_HUGE
    phys = self._huge.get(idx)
    if phys is not None:
        return Mapping(idx * _PAGES_PER_HUGE, phys, huge=True)
    phys = self._base.get(virt_page)
    if phys is None:
        return None
    return Mapping(virt_page, phys, huge=False)


def _resolve_page(self: MappedRegion, virt_page: int,
                  ctx: SimContext) -> Mapping:
    """Mapping covering *virt_page*, faulting it in if absent."""
    m = self.page_table.lookup(virt_page)
    if m is None:
        self.fault(virt_page, ctx)
        m = self.page_table.lookup(virt_page)
        assert m is not None
    return m


def _touch_translation(self: MappedRegion, virt_page: int,
                       ctx: SimContext) -> Mapping:
    """One per-event page touch: fault if needed + one TLB access.

    Returns the mapping so callers never look the page up again.
    """
    m = self._resolve_page(virt_page, ctx)
    key_page = m.virt_page if m.huge else virt_page
    tlb = ctx.clock.tlbs[ctx.cpu] or self._new_tlb(ctx)
    if tlb.access(self.region_id, key_page, m.huge):
        # a hit costs nothing here: it is folded into load latency
        ctx.counters.tlb_hits += 1
    else:
        ctx.counters.tlb_misses += 1
        ctx.charge(self.machine.page_walk_ns)
        if self.cache is not None and not m.huge:
            # a 4-level walk caches PTE lines, evicting hot data (Fig 4)
            self.cache.pollute()
    return m


def _walk_pages(self: MappedRegion, offset: int, size: int,
                ctx: SimContext) -> None:
    """One :func:`_touch_translation` per touched page (one per touched
    2 MiB mapping)."""
    first = offset // BASE_PAGE
    last = (offset + size - 1) // BASE_PAGE
    page = first
    while page <= last:
        m = self._touch_translation(page, ctx)
        if m.huge:
            page = m.virt_page + _PAGES_PER_HUGE
        else:
            page += 1


def read(self: MappedRegion, offset: int, size: int,
         ctx: SimContext) -> bytes:
    """memcpy out of the mapping: the walk, then the copy charge."""
    self._check_range(offset, size)
    if size == 0:
        return b""
    self._walk_pages(offset, size, ctx)
    ns = self.machine.pm_read_ns(size)
    ctx.clock._cpu_ns[ctx.cpu] += ns
    counters = ctx.counters
    counters.copy_ns += ns
    counters.pm_bytes_read += size
    if not self.track_data:
        return zero_bytes(size)
    return self._copy_out(offset, size, ctx)


def _read_element_ref(self: MappedRegion, offset: int,
                      ctx: SimContext) -> float:
    """Per-event reference for :meth:`MappedRegion.read_element`."""
    self._check_range(offset, 1)
    before = ctx.now
    self._touch_translation(offset // BASE_PAGE, ctx)
    if self.cache is not None:
        hit = self.cache.access_hot_line()
        lat = self.cache.access_latency_ns(hit)
        if hit:
            ctx.counters.llc_hits += 1
        else:
            ctx.counters.llc_misses += 1
    else:
        lat = self.machine.pm_load_ns
        ctx.counters.llc_misses += 1
    ctx.charge(lat)
    return ctx.now - before


def prefault(self: MappedRegion, ctx: SimContext) -> None:
    """Touch every page once, one :meth:`fault` per unmapped page."""
    page = 0
    total_pages = (self.length + BASE_PAGE - 1) // BASE_PAGE
    lookup = self.page_table.lookup
    while page < total_pages:
        m = lookup(page)
        if m is not None:
            page += m.span_pages
            continue
        if self.fault(page, ctx):
            page += _PAGES_PER_HUGE
        else:
            page += 1


#: the per-event walk: (class, attribute it replaces or adds, function)
_PATCHES = (
    (PageTable, "lookup", lookup),
    (MappedRegion, "_resolve_page", _resolve_page),
    (MappedRegion, "_touch_translation", _touch_translation),
    (MappedRegion, "_walk_pages", _walk_pages),
    (MappedRegion, "read", read),
    (MappedRegion, "read_element", _read_element_ref),
    (MappedRegion, "prefault", prefault),
)

#: the region methods every access starts from (``write`` and
#: ``write_zeros`` reach the walk through ``_walk_pages``)
_ENTRY_POINTS = ("_walk_pages", "read", "read_element", "prefault")


def _tallied(calls: Counter, name: str, fn: Callable) -> Callable:
    @wraps(fn)
    def tallied(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return tallied


@contextmanager
def reference_walk() -> Iterator[Counter]:
    """Run every region access inside the block on the per-event walk.

    Yields the number of calls each patched name took, for
    :func:`assert_reference_walk`.
    """
    calls: Counter = Counter()
    with ExitStack() as stack:
        for owner, name, fn in _PATCHES:
            stack.enter_context(mock.patch.object(
                owner, name, _tallied(calls, name, fn), create=True))
        yield calls


def assert_reference_walk(calls: Counter) -> None:
    """Every walk entry point ran per-event inside the block (the
    scenario did not silently run on the batched walk)."""
    missing = [name for name in _ENTRY_POINTS if not calls[name]]
    assert not missing, f"batched walk ran for {missing}"
