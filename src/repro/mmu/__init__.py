"""Simulated MMU: page tables, TLB, LLC pollution, and mmap regions.

This package implements the hardware behaviour the WineFS paper's results
hinge on:

* a page fault costs 1-2us and 4KB mappings need 512x more of them than 2MB
  mappings (§1);
* a 2MB mapping is only possible when the backing file extent is physically
  2MB-aligned and contiguous (§2.2);
* even fully pre-faulted, 4KB mappings suffer TLB misses whose page-table
  walks evict application data from the processor caches, raising median
  access latency ~10x (§2.4, Fig 4).
"""

from .page_table import PageTable
from .tlb import TLB
from .cache import CacheModel
from .mmap_region import MappedRegion

__all__ = ["PageTable", "TLB", "CacheModel", "MappedRegion"]
