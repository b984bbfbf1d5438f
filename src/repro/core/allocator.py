"""The alignment-aware allocator (paper §3.4, §3.6).

The partition's data area is split per logical CPU.  Each CPU owns a pool
tracking free aligned 2MB extents and free unaligned "holes".  Incoming
requests are broken into chunks of at most one hugepage:

* hugepage-sized chunks are satisfied from the aligned-extent pool;
* smaller chunks are satisfied from holes, first-fit, spending unaligned
  slack before ever breaking an aligned extent.

The cross-CPU spill policy follows §3.4: if the local pool is exhausted,
pick the remote pool with the most free *aligned* extents for a large
request and the most free *unaligned* space for a small request.  Freed
extents return to the pool that owns their address range and are merged;
merges that reconstitute a whole aligned 2MB run automatically re-enter
the aligned pool (the FreePool run index handles this).
"""

from __future__ import annotations

from typing import List, Optional

from ..clock import SimContext
from ..errors import NoSpaceError, SimulationError
from ..params import BLOCKS_PER_HUGEPAGE
from ..structures.extents import Extent
from ..fs.common.freespace import FreePool
from .layout import Layout

#: DRAM free-list probe cost charged per allocation decision
_ALLOC_NS = 60.0


class AlignmentAwareAllocator:
    """Per-CPU aligned-extent and hole pools over one partition.

    When a :class:`~repro.faults.FaultPlan` is attached (``faults``), the
    allocator participates in fault injection: ``enospc`` specs make
    allocations fail on schedule, and blocks with write errors can be
    :meth:`quarantine`\\ d so they are never handed out again (the
    quarantine list is DRAM-only, like an unpersisted badblocks list —
    a remount rebuilds pools from inodes and forgets it).
    """

    def __init__(self, layout: Layout, faults=None) -> None:
        self.layout = layout
        self.pools: List[FreePool] = []
        for cpu in range(layout.num_cpus):
            start, length = layout.data_pool_range(cpu)
            self.pools.append(FreePool(start, length))
        # provenance: hugepage indexes handed out *as aligned extents*.
        # The hybrid data-atomicity policy (§3.4) keys off how an extent
        # was allocated, not its accidental physical alignment — on a
        # clean FS, hole allocations also merge into aligned runs.
        self.aligned_out: set = set()
        self._faults = None
        self.set_fault_plan(faults)
        self.quarantined: set = set()

    def set_fault_plan(self, faults) -> None:
        """Bind (or clear) a fault plan.  Inactive plans are dropped so
        the hot allocation path stays a single ``is not None`` check."""
        self._faults = faults if (faults is not None
                                  and faults.is_active) else None

    # -- introspection -----------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return sum(p.free_blocks for p in self.pools)

    def free_aligned_hugepages(self) -> int:
        return sum(p.aligned_hugepages() for p in self.pools)

    def pool_of_block(self, block: int) -> FreePool:
        for pool in self.pools:
            if pool.range_start <= block < pool.range_end:
                return pool
        raise SimulationError(f"block {block} outside every data pool")

    # -- allocation ---------------------------------------------------------------

    def _pool_order_large(self, home: int) -> List[FreePool]:
        """Local first, then remote pools by most free aligned extents."""
        remote = sorted((p for i, p in enumerate(self.pools) if i != home),
                        key=lambda p: p.aligned_hugepages(), reverse=True)
        return [self.pools[home]] + remote

    def _pool_order_small(self, home: int) -> List[FreePool]:
        """Local first, then remote pools by most free unaligned space."""
        def unaligned_free(p: FreePool) -> int:
            return p.free_blocks - p.aligned_hugepages() * BLOCKS_PER_HUGEPAGE
        remote = sorted((p for i, p in enumerate(self.pools) if i != home),
                        key=unaligned_free, reverse=True)
        return [self.pools[home]] + remote

    def alloc(self, nblocks: int, ctx: SimContext, *,
              want_aligned: Optional[bool] = None) -> List[Extent]:
        """Allocate *nblocks* for the calling CPU.

        Raises :class:`NoSpaceError` (leaving pools untouched on partial
        failure is not required: callers free what they got on error).
        """
        if nblocks <= 0:
            raise SimulationError("allocation must be positive")
        with ctx.trace.span(ctx, "alloc", blocks=nblocks):
            # inlined ctx.charge (_ALLOC_NS >= 0, single add)
            ctx.clock._cpu_ns[ctx.cpu] += _ALLOC_NS
            if self._faults is not None and self._faults.take_enospc(ctx):
                raise NoSpaceError("injected fault: space exhausted")
            home = ctx.cpu % self.layout.num_cpus
            out: List[Extent] = []
            remaining = nblocks
            try:
                # hugepage-sized chunks from aligned pools
                while remaining >= BLOCKS_PER_HUGEPAGE and \
                        (want_aligned is None or want_aligned):
                    ext = self._alloc_aligned_chunk(home)
                    if ext is None:
                        break   # no aligned extent anywhere: use holes
                    out.append(ext)
                    remaining -= BLOCKS_PER_HUGEPAGE
                # remainder (or all, when not aligned-eligible) from holes
                while remaining > 0:
                    take = min(remaining, BLOCKS_PER_HUGEPAGE)
                    ext = self._alloc_hole_chunk(home, take)
                    if ext is None:
                        raise NoSpaceError(
                            f"cannot allocate {take} blocks "
                            f"({self.free_blocks} free, fragmented)")
                    out.append(ext)
                    remaining -= ext.length
            except NoSpaceError:
                for ext in out:
                    self.free(ext)
                raise
            return out

    def _alloc_aligned_chunk(self, home: int) -> Optional[Extent]:
        # the home pool usually satisfies the request; only rank the
        # remote pools (same order as _pool_order_large) when it cannot
        ext = self.pools[home].alloc_aligned_hugepage()
        if ext is not None:
            self.aligned_out.add(ext.start // BLOCKS_PER_HUGEPAGE)
            return ext
        for pool in self._pool_order_large(home)[1:]:
            ext = pool.alloc_aligned_hugepage()
            if ext is not None:
                self.aligned_out.add(ext.start // BLOCKS_PER_HUGEPAGE)
                return ext
        return None

    def _alloc_hole_chunk(self, home: int, nblocks: int) -> Optional[Extent]:
        # the home pool usually satisfies the request; only rank the
        # remote pools (same order as _pool_order_small) when it cannot
        ext = self.pools[home].alloc_avoiding_aligned(nblocks)
        if ext is not None:
            return ext
        order = self._pool_order_small(home)
        for pool in order[1:]:
            ext = pool.alloc_avoiding_aligned(nblocks)
            if ext is not None:
                return ext
        # final fallback: any first-fit anywhere, even a partial extent
        for pool in order:
            largest = pool.largest()
            if largest > 0:
                return pool.alloc_first_fit(min(nblocks, largest))
        return None

    def alloc_aligned_for_fault(self, home_cpu: int) -> Optional[Extent]:
        """One aligned hugepage for the page-fault path (§3.6 "hugepage
        handling on page faults"); None if no aligned extent exists."""
        return self._alloc_aligned_chunk(home_cpu)

    def is_aligned_provenance(self, hugepage_index: int) -> bool:
        """Was this hugepage handed out from the aligned-extent pool?"""
        return hugepage_index in self.aligned_out

    def alloc_meta_block(self, ctx: SimContext) -> Extent:
        """One block for an indirect extent block (metadata, hole-filled)."""
        ext = self._alloc_hole_chunk(ctx.cpu % self.layout.num_cpus, 1)
        if ext is None:
            raise NoSpaceError("no block for indirect extent chain")
        return ext

    # -- fault handling ---------------------------------------------------------------

    def quarantine(self, block: int) -> None:
        """Take *block* out of circulation permanently (write errors).

        Works whether the block is currently free (pulled from its pool)
        or allocated (``free`` will refuse to re-insert it later).
        """
        if block in self.quarantined:
            return
        self.quarantined.add(block)
        self.aligned_out.discard(block // BLOCKS_PER_HUGEPAGE)
        self.pool_of_block(block).alloc_exact(block, 1)

    def relocate_block(self, bad: int, ctx: SimContext) -> Extent:
        """Quarantine *bad* and hand out a 1-block replacement hole.

        Raises :class:`NoSpaceError` when no replacement exists (the
        caller then surfaces the write error instead of masking it).
        """
        self.quarantine(bad)
        ctx.charge(_ALLOC_NS)
        ext = self._alloc_hole_chunk(ctx.cpu % self.layout.num_cpus, 1)
        if ext is None:
            raise NoSpaceError("no replacement block for relocation")
        return ext

    # -- free ------------------------------------------------------------------------

    def free(self, extent: Extent, ctx: Optional[SimContext] = None) -> None:
        """Return an extent to its owning pool (§3.4: freed extents go back
        to the data pool they came from and merge with neighbours)."""
        if ctx is not None:
            # inlined ctx.charge (_ALLOC_NS >= 0, single add)
            ctx.clock._cpu_ns[ctx.cpu] += _ALLOC_NS
        if self.quarantined:
            bad = [b for b in range(extent.start, extent.end)
                   if b in self.quarantined]
            if bad:
                # split around the quarantined blocks; they never return
                # to a pool (their hugepages lose provenance regardless)
                for b in bad:
                    self.aligned_out.discard(b // BLOCKS_PER_HUGEPAGE)
                start = extent.start
                for b in bad:
                    if b > start:
                        self.free(Extent(start, b - start))
                    start = b + 1
                if start < extent.end:
                    self.free(Extent(start, extent.end - start))
                return
        # freeing any part of a hugepage ends its aligned-provenance life
        first_hp = extent.start // BLOCKS_PER_HUGEPAGE
        last_hp = (extent.end - 1) // BLOCKS_PER_HUGEPAGE
        for hp in range(first_hp, last_hp + 1):
            self.aligned_out.discard(hp)
        # an extent never spans pools (pools are hugepage-aligned splits and
        # allocations are chunked <= one hugepage), but be defensive:
        pool = self.pool_of_block(extent.start)
        if extent.end > pool.range_end:
            head_len = pool.range_end - extent.start
            pool.insert(Extent(extent.start, head_len))
            self.free(Extent(pool.range_end, extent.length - head_len))
            return
        pool.insert(extent)

    def free_all(self, extents: List[Extent],
                 ctx: Optional[SimContext] = None) -> None:
        for ext in extents:
            self.free(ext, ctx)

    # -- recovery ---------------------------------------------------------------------

    def rebuild_from_inodes(self, used_extents: List[Extent]) -> None:
        """Reset pools to 'everything free', then subtract used extents
        (the §3.6 crash path: pools are re-initialized by scanning the set
        of used inodes)."""
        self.pools = []
        for cpu in range(self.layout.num_cpus):
            start, length = self.layout.data_pool_range(cpu)
            self.pools.append(FreePool(start, length))
        for ext in sorted(used_extents, key=lambda e: e.start):
            self._mark_used(ext)
        for block in sorted(self.quarantined):
            self.pool_of_block(block).alloc_exact(block, 1)

    def _mark_used(self, extent: Extent) -> None:
        pool = self.pool_of_block(extent.start)
        end = min(extent.end, pool.range_end)
        got = pool.alloc_exact(extent.start, end - extent.start)
        if got is None:
            raise SimulationError(f"recovery: extent {extent} not free")
        if extent.end > end:
            self._mark_used(Extent(end, extent.end - end))
