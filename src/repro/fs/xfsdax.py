"""xfs-DAX baseline.

Per the paper's footnote 1, xfs-DAX "cannot get hugepages even when clean"
because its allocator "completely disregards alignment even for large
extents".  We model an allocation-group design whose data area begins just
past unaligned AG headers and whose by-size/by-start B+tree allocator
optimizes purely for contiguity — so even a fresh large file starts at an
unaligned block.

Like ext4, xfs batches metadata into an in-core log that ``fsync`` forces
out under a global lock (Fig 10: "ext4-DAX and xfs-DAX have low
scalability as they use a stop-the-world approach on fsync()").
"""

from __future__ import annotations

from typing import List, Optional

from ..clock import SimContext
from ..structures.extents import Extent
from .common.base import RunningLogFS
from .common.freespace import FreePool


class XfsDAX(RunningLogFS):
    name = "xfs-DAX"
    data_consistent = False
    fault_zero_fill = True
    alloc_ns = 90.0   # btree lookups in the by-size tree
    join_lock, join_ns = "xfs-log-item", 160.0
    force_lock, entry_bytes = "xfs-log", 256

    def _metadata_blocks(self) -> int:
        # AG headers land at an odd offset: the data area starts unaligned,
        # and since the allocator never corrects for alignment, no extent
        # it hands out is ever hugepage-mappable (footnote 1)
        return 4097

    def _num_pools(self) -> int:
        return 4   # allocation groups

    def _pool_order(self, ctx: SimContext,
                    goal: Optional[int]) -> List[FreePool]:
        # the AG holding the goal first, the others in AG order
        if goal is not None:
            for i, pool in enumerate(self._pools):
                if pool.range_start <= goal < pool.range_end:
                    return [pool] + self._pools[:i] + self._pools[i + 1:]
        return self._pools

    def _pick(self, pools: List[FreePool], remaining: int,
              goal: Optional[int], nblocks: int,
              want_aligned: bool) -> Optional[Extent]:
        for pool in pools:
            ext = pool.alloc_first_fit(remaining, goal=goal)
            if ext is not None:
                return ext
        return None

    def _take_largest_run(self, pools: List[FreePool],
                          remaining: int) -> Optional[Extent]:
        # the by-size tree has no notion of a goal: AG order breaks ties
        return super()._take_largest_run(self._pools, remaining)
