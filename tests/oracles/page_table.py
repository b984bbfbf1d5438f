"""The per-object page table: the oracle the flat-int table is held to.

:class:`ReferencePageTable` stores one boxed
:class:`~repro.mmu.page_table.Mapping` per installed entry — the layout
the flat ``int -> int`` :class:`~repro.mmu.page_table.PageTable`
replaced.  Both expose identical facts (huge?, physical address,
coverage), so every simulated cost derived from them is bit-identical;
:func:`tests.oracles.reference_structures` builds every region's table
from this class to prove it.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.mmu.page_table import _PAGES_PER_HUGE, Mapping, PageTable
from repro.params import BASE_PAGE


class ReferencePageTable(PageTable):
    """Per-object engine: one boxed :class:`Mapping` per installed entry.

    The membership helpers (``covered``, run probes, counts) are inherited
    — they only test key presence, which both layouts share.  Fast paths
    that probe the raw tables must treat values as opaque (None-check
    only); :class:`~repro.mmu.mmap_region.MappedRegion` does.
    """

    __slots__ = ()

    def lookup(self, virt_page: int) -> Optional[Mapping]:
        m = self._huge.get(virt_page // _PAGES_PER_HUGE)
        if m is not None:
            return m
        return self._base.get(virt_page)

    def install_base(self, virt_page: int, phys_addr: int) -> Mapping:
        self._check_base(virt_page, phys_addr)
        m = Mapping(virt_page, phys_addr, huge=False)
        self._base[virt_page] = m
        idx = virt_page // _PAGES_PER_HUGE
        self._base_in_huge[idx] = self._base_in_huge.get(idx, 0) + 1
        self.installed_4k += 1
        return m

    def install_base_fast(self, virt_page: int, phys_addr: int) -> None:
        # the reference layout stores the Mapping either way
        self.install_base(virt_page, phys_addr)

    def install_huge(self, virt_page: int, phys_addr: int) -> Mapping:
        idx = self._check_huge(virt_page, phys_addr)
        m = Mapping(virt_page, phys_addr, huge=True)
        self._huge[idx] = m
        self.installed_2m += 1
        return m

    def install_base_run(self, first: int, count: int,
                         phys0: int) -> Mapping:
        if phys0 % BASE_PAGE:
            raise SimulationError("physical address not page-aligned")
        base = self._base
        m = None
        phys = phys0
        for vp in range(first, first + count):
            base[vp] = m = Mapping(vp, phys, huge=False)
            phys += BASE_PAGE
        idx = first // _PAGES_PER_HUGE
        self._base_in_huge[idx] = self._base_in_huge.get(idx, 0) + count
        self.installed_4k += count
        assert m is not None
        return m

    def translate(self, virt_addr: int) -> int:
        virt_page = virt_addr // BASE_PAGE
        m = self.lookup(virt_page)
        if m is None:
            raise SimulationError(f"address {virt_addr:#x} not mapped")
        if m.huge:
            base_virt = m.virt_page * BASE_PAGE
            return m.phys_addr + (virt_addr - base_virt)
        return m.phys_addr + (virt_addr % BASE_PAGE)
