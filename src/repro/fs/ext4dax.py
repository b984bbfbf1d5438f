"""ext4-DAX baseline.

Reproduces the two design properties the paper attributes to ext4-DAX:

* **mballoc-style allocator** that optimizes for contiguity with the file's
  last extent (goal allocation), not hugepage alignment (§2.6).  On a clean
  file system large allocations happen to start aligned (the data area
  begins at an aligned boundary and first-fit walks forward), which is why
  ext4-DAX performs well un-aged (Fig 1a); churn misaligns the holes and
  the alignment is lost (Fig 3).
* **JBD2 journal**: metadata updates join a running in-DRAM transaction;
  ``fsync`` forces a stop-the-world commit under a global lock, the
  scalability bottleneck of Fig 10 and the costly-append effect of Fig 6.

ext4-DAX zeroes freshly allocated pages inside the page-fault handler
(``fault_zero_fill``), which the paper measures via PmemKV (§5.4).
"""

from __future__ import annotations

from typing import List, Optional

from ..params import BLOCKS_PER_HUGEPAGE
from ..structures.extents import Extent, align_up
from .common.base import RunningLogFS
from .common.freespace import FreePool


class Ext4DAX(RunningLogFS):
    name = "ext4-DAX"
    data_consistent = False
    fault_zero_fill = True
    alloc_ns = 80.0   # mballoc search
    # JBD2: adding a handle to the running transaction costs 180 ns of
    # DRAM work; a commit journals 256 B per handle
    join_lock, join_ns = "jbd2-handle", 180.0
    force_lock, entry_bytes = "jbd2-commit", 256

    def _metadata_blocks(self) -> int:
        # superblock, group descriptors, bitmaps, inode tables, JBD2 area;
        # rounded so the data area starts hugepage-aligned (as mkfs.ext4
        # does with flex_bg on a 2MB-aligned partition)
        return align_up(4096)

    # contiguity-first goal allocation
    def _pick(self, pools: List[FreePool], remaining: int,
              goal: Optional[int], nblocks: int,
              want_aligned: bool) -> Optional[Extent]:
        if remaining >= BLOCKS_PER_HUGEPAGE:
            # mballoc normalizes large requests and aligns them to
            # their size boundary when the chosen run allows
            return pools[0].alloc_first_fit_aligned_pref(remaining, goal=goal)
        return pools[0].alloc_first_fit(remaining, goal=goal)
