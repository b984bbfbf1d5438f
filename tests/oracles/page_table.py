"""The per-object page table: the oracle the flat-int table is held to.

:class:`ReferencePageTable` stores one boxed :class:`Mapping` per
installed entry — the layout the flat ``int -> int``
:class:`~repro.mmu.page_table.PageTable` replaced.  Both expose identical
facts (huge?, physical address, coverage), so every simulated cost
derived from them is bit-identical;
:func:`tests.oracles.reference_structures` builds every region's table
from this class to prove it.  :class:`Mapping` is also the record the
per-event walk of :mod:`tests.oracles.walk` resolves pages to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.mmu.page_table import _PAGES_PER_HUGE, PageTable
from repro.params import BASE_PAGE


@dataclass(frozen=True)
class Mapping:
    """One installed translation."""

    virt_page: int        # virtual page number in units of BASE_PAGE
    phys_addr: int        # physical PM byte address of the mapping start
    huge: bool            # True for a 2MB mapping

    @property
    def span_pages(self) -> int:
        return _PAGES_PER_HUGE if self.huge else 1


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

    def install_base(self, virt_page: int, phys_addr: int) -> None:
        self._check_base(virt_page, phys_addr)
        self._base[virt_page] = Mapping(virt_page, phys_addr, huge=False)
        idx = virt_page // _PAGES_PER_HUGE
        self._base_in_huge[idx] = self._base_in_huge.get(idx, 0) + 1
        self.installed_4k += 1

    def install_huge(self, virt_page: int, phys_addr: int) -> None:
        idx = self._check_huge(virt_page, phys_addr)
        self._huge[idx] = Mapping(virt_page, phys_addr, huge=True)
        self.installed_2m += 1

    def install_base_run(self, first: int, count: int, phys0: int) -> None:
        if phys0 % BASE_PAGE:
            raise SimulationError("physical address not page-aligned")
        base = self._base
        phys = phys0
        for vp in range(first, first + count):
            base[vp] = Mapping(vp, phys, huge=False)
            phys += BASE_PAGE
        idx = first // _PAGES_PER_HUGE
        self._base_in_huge[idx] = self._base_in_huge.get(idx, 0) + count
        self.installed_4k += count
