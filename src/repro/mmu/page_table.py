"""Page tables with mixed 4KB and 2MB mappings.

A :class:`PageTable` maps virtual page numbers of one mmap region to
physical PM addresses.  Mappings are installed by page faults (see
:class:`~repro.mmu.mmap_region.MappedRegion`); a 2MB mapping is installed
only when the backing extent is physically hugepage-aligned and contiguous,
per paper §2.2 ("Even a single byte offset from alignment forces the
operating system to fall back to base pages").

:class:`PageTable` keeps flat ``int -> int`` tables — virtual page number
to physical byte address — and never boxes a translation: the installs
return nothing and the mmap walk probes the raw tables directly.  The
one-``Mapping``-per-entry table it replaced, and the ``lookup`` that
materializes a ``Mapping``, live on in ``tests/oracles/`` as the oracles
the equivalence suites hold it to.
"""

from __future__ import annotations

from typing import Dict

from ..errors import SimulationError
from ..params import BASE_PAGE, HUGE_PAGE

_PAGES_PER_HUGE = HUGE_PAGE // BASE_PAGE


class PageTable:
    """Per-region page table (flat int tables).

    Keyed by 4KB virtual page number.  A huge mapping occupies a single PMD
    entry; we index it by its 2MB-range index and keep a secondary count map
    so any of its 512 covered pages resolves to it.
    """

    __slots__ = ("_base", "_huge", "_base_in_huge",
                 "installed_4k", "installed_2m", "generation")

    def __init__(self) -> None:
        #: virt page number -> physical byte address
        self._base: Dict[int, int] = {}
        #: huge-page index -> physical byte address
        self._huge: Dict[int, int] = {}
        self._base_in_huge: Dict[int, int] = {}  # base pages per huge index
        self.installed_4k = 0
        self.installed_2m = 0
        #: bumped whenever mappings are torn down; callers holding memoized
        #: facts about this table (e.g. the region's last-run memo) compare
        #: generations instead of revalidating against the dicts
        self.generation = 0

    def _check_base(self, virt_page: int, phys_addr: int) -> None:
        if virt_page // _PAGES_PER_HUGE in self._huge:
            raise SimulationError(f"page {virt_page} already covered by a "
                                  "huge mapping")
        if virt_page in self._base:
            raise SimulationError(f"page {virt_page} already mapped")
        if phys_addr % BASE_PAGE:
            raise SimulationError("physical address not page-aligned")

    def install_base(self, virt_page: int, phys_addr: int) -> None:
        self._check_base(virt_page, phys_addr)
        self._base[virt_page] = phys_addr
        idx = virt_page // _PAGES_PER_HUGE
        self._base_in_huge[idx] = self._base_in_huge.get(idx, 0) + 1
        self.installed_4k += 1

    def _check_huge(self, virt_page: int, phys_addr: int) -> int:
        if virt_page % _PAGES_PER_HUGE:
            raise SimulationError("huge mapping must start on a 2MB virtual "
                                  "boundary")
        if phys_addr % HUGE_PAGE:
            raise SimulationError("huge mapping needs a 2MB-aligned physical "
                                  "address")
        idx = virt_page // _PAGES_PER_HUGE
        if idx in self._huge:
            raise SimulationError(f"huge page {idx} already mapped")
        if self._base_in_huge.get(idx):
            for vp in range(virt_page, virt_page + _PAGES_PER_HUGE):
                if vp in self._base:
                    raise SimulationError(f"base page {vp} already mapped "
                                          "inside prospective huge range")
        return idx

    def install_huge(self, virt_page: int, phys_addr: int) -> None:
        idx = self._check_huge(virt_page, phys_addr)
        self._huge[idx] = phys_addr
        self.installed_2m += 1

    def base_unmapped_run(self, virt_page: int, max_pages: int) -> int:
        """Consecutive pages from *virt_page* with no base mapping.

        Caller guarantees no huge mapping covers the probed range.
        """
        base = self._base
        n = 0
        while n < max_pages and (virt_page + n) not in base:
            n += 1
        return n

    def install_base_run(self, first: int, count: int, phys0: int) -> None:
        """install_base for *count* consecutive pages inside ONE 2MB range,
        physically contiguous from *phys0*.  The caller guarantees the
        pages are unmapped and the range holds no huge mapping; alignment
        is still checked.
        """
        if phys0 % BASE_PAGE:
            raise SimulationError("physical address not page-aligned")
        base = self._base
        phys = phys0
        for vp in range(first, first + count):
            base[vp] = phys
            phys += BASE_PAGE
        idx = first // _PAGES_PER_HUGE
        self._base_in_huge[idx] = self._base_in_huge.get(idx, 0) + count
        self.installed_4k += count

    def unmap_all(self) -> None:
        self._base.clear()
        self._huge.clear()
        self._base_in_huge.clear()
        self.generation += 1

    def covered(self, huge_base_page: int) -> bool:
        """Any mapping inside the huge-page range starting at
        *huge_base_page* (equivalent to probing all 512 pages)."""
        idx = huge_base_page // _PAGES_PER_HUGE
        return idx in self._huge or bool(self._base_in_huge.get(idx))

    def base_run_length(self, virt_page: int, max_pages: int) -> int:
        """Length of the consecutive base-mapped run at *virt_page*,
        capped at *max_pages*."""
        base = self._base
        n = 0
        while n < max_pages and (virt_page + n) in base:
            n += 1
        return n

    @property
    def mapped_pages_4k(self) -> int:
        return len(self._base)

    @property
    def mapped_pages_2m(self) -> int:
        return len(self._huge)

    def hugepage_fraction(self, total_pages: int) -> float:
        """Fraction of mapped 4KB-page-equivalents covered by hugepages."""
        if total_pages <= 0:
            raise SimulationError("total_pages must be positive")
        covered = len(self._huge) * (HUGE_PAGE // BASE_PAGE)
        return covered / total_pages
