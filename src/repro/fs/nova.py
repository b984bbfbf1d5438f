"""NOVA baseline (Xu & Swanson, FAST 2016) as characterized by the paper.

The properties the paper's comparisons depend on:

* **per-inode logs**: every inode owns a chain of 4KB log pages allocated
  from the data free lists.  This gives NOVA its excellent scalability
  (Fig 10) but peppers the free space with small metadata allocations —
  the free-space fragmentation of Fig 3 ("a per-file log contributes to
  file-system fragmentation").
* **log-structured metadata**: each operation appends a 64B log entry;
  overwrites additionally invalidate the older entry and update DRAM
  indexes (the Fig 6 / PostgreSQL overwrite penalty, §5.5).
* **copy-on-write data at 4KB granularity** (strict mode): every
  overwrite, and every append that lands inside a partially-filled block,
  copies the block to a fresh one (the WiredTiger write-amplification
  effect, §5.5).
* the allocator tries to hand out aligned extents only when the request is
  an exact multiple of 2MB (§6, Related Work); everything else is
  first-fit from per-CPU pools.
* **fallocate zeroes data pages eagerly**, so its page faults are cheaper
  than ext4-DAX's (§5.4, PmemKV analysis): ``fault_zero_fill = False``.
"""

from __future__ import annotations

from typing import ContextManager, List, Optional

from ..clock import SimContext
from ..params import BLOCKS_PER_HUGEPAGE
from ..pm.device import PMDevice
from ..structures.extents import Extent, align_up
from .common.base import ENTRY_ONLY_TXN, BaseFS
from .common.freespace import FreePool
from .common.inode import Inode

_LOG_ENTRY_BYTES = 64
#: log entries per 4KB log page
_ENTRIES_PER_LOG_PAGE = 4096 // _LOG_ENTRY_BYTES
#: DRAM radix-tree update after each overwrite (§5.5)
_INDEX_UPDATE_NS = 250.0


class NovaFS(BaseFS):
    """``mode`` is "strict" (data+metadata CoW consistency, the default
    NOVA) or "relaxed" (metadata consistency only, NOVA-relaxed in §5.1)."""

    fault_zero_fill = False
    alloc_ns = 70.0

    def __init__(self, device: PMDevice, num_cpus: int = 4,
                 mode: str = "strict",
                 track_data: Optional[bool] = None) -> None:
        super().__init__(device, num_cpus, track_data=track_data)
        self.mode = mode
        self.name = "NOVA" if mode == "strict" else "NOVA-relaxed"
        self.data_consistent = (mode == "strict")
        self._log_pages: dict = {}          # ino -> List[Extent]
        self._log_entries_used: dict = {}   # ino -> entries in last page
        self._pre_write_blocks: dict = {}   # ino -> blocks before extension
        self.log_pages_allocated = 0

    def _metadata_blocks(self) -> int:
        return align_up(2048)   # superblock + inode tables + recovery area

    def _num_pools(self) -> int:
        return self.num_cpus   # per-CPU free lists

    def _init_allocator(self) -> None:
        super()._init_allocator()
        self._log_pages = {}
        self._log_entries_used = {}

    # -- allocation -----------------------------------------------------------------

    def _pool_order(self, ctx: SimContext,
                    goal: Optional[int]) -> List[FreePool]:
        # the calling CPU's own free list first
        home = ctx.cpu % self.num_cpus
        return [self._pools[home]] + self._pools[:home] \
            + self._pools[home + 1:]

    def _pick(self, pools: List[FreePool], remaining: int,
              goal: Optional[int], nblocks: int,
              want_aligned: bool) -> Optional[Extent]:
        # NOVA only aims for alignment on exact 2MB-multiple requests
        if nblocks % BLOCKS_PER_HUGEPAGE == 0 \
                and remaining >= BLOCKS_PER_HUGEPAGE:
            for pool in pools:
                ext = pool.alloc_aligned_hugepage()
                if ext is not None:
                    return ext
        # NOVA allocates per-CPU with a rotating cursor (next-fit)
        for pool in pools:
            ext = pool.alloc_next_fit(remaining)
            if ext is not None:
                return ext
        return None

    # -- per-inode log ------------------------------------------------------------------

    def _append_log_entry(self, ino: int, ctx: SimContext) -> None:
        used = self._log_entries_used.get(ino, _ENTRIES_PER_LOG_PAGE)
        if used >= _ENTRIES_PER_LOG_PAGE:
            # allocate a fresh 4KB log page from the data pools — this is
            # the fragmentation mechanism of Fig 3
            page = self._alloc(1, ctx)
            self._log_pages.setdefault(ino, []).extend(page)
            self._log_entries_used[ino] = 0
            self.log_pages_allocated += 1
        self._log_entries_used[ino] = self._log_entries_used.get(ino, 0) + 1
        ns = self.machine.persist_ns(_LOG_ENTRY_BYTES)
        ctx.charge(ns)
        ctx.counters.journal_ns += ns
        ctx.counters.pm_bytes_written += _LOG_ENTRY_BYTES

    def _invalidate_log_entry(self, ino: int, ctx: SimContext) -> None:
        # find the stale entry via the DRAM radix tree, then flip its
        # valid bit and flush ("NOVA has to ... invalidate older entries,
        # and update its DRAM indexes", §5.5)
        ctx.charge(150.0)
        ns = self.machine.persist_ns(8)
        ctx.charge(ns)
        ctx.counters.journal_ns += ns
        ctx.counters.pm_bytes_written += 8

    def _meta_txn(self, ctx: SimContext, entries: int,
                  ino: Optional[int] = None) -> ContextManager:
        log_ino = ino if ino is not None else 0
        for _ in range(max(1, entries // 2)):
            self._append_log_entry(log_ino, ctx)
        return ENTRY_ONLY_TXN

    def _alloc_inode(self, is_dir: bool, ctx: SimContext) -> Inode:
        inode = super()._alloc_inode(is_dir, ctx)
        # every new inode gets its first log page immediately
        self._append_log_entry(inode.ino, ctx)
        return inode

    def _free_inode(self, inode: Inode, ctx=None) -> None:
        self._free(self._log_pages.pop(inode.ino, []), ctx)
        self._log_entries_used.pop(inode.ino, None)
        super()._free_inode(inode, ctx)

    # -- data path ----------------------------------------------------------------------

    def _write_data(self, inode: Inode, offset: int, data: bytes,
                    ctx: SimContext) -> None:
        if self.mode == "relaxed":
            self._write_in_place(inode, offset, data, ctx)
            self._append_log_entry(inode.ino, ctx)
            return
        # strict: copy-on-write at 4KB granularity.  Any byte range that
        # shares a block with pre-existing data relocates that whole block.
        first = offset // self.block_size
        last = (offset + len(data) - 1) // self.block_size
        old_alloc_blocks = self._pre_write_blocks.get(inode.ino,
                                                      inode.extents.total_blocks)
        cow_first = first
        cow_last = min(last, old_alloc_blocks - 1)
        if cow_last >= cow_first:
            nblocks = cow_last - cow_first + 1
            new_extents = self._alloc(nblocks, ctx)
            head_pad = offset - cow_first * self.block_size
            cow_end_byte = min((cow_last + 1) * self.block_size,
                               offset + len(data))
            tail_pad = (cow_last + 1) * self.block_size - cow_end_byte
            copy_bytes = nblocks * self.block_size
            # partial-block copies: NOVA "copies the data in the partial
            # block to the new block and then appends new data" (§5.5)
            ctx.charge(self.machine.pm_read_ns(head_pad + tail_pad) +
                       self.machine.persist_ns(copy_bytes))
            ctx.counters.pm_bytes_written += copy_bytes
            if self.track_data:
                old = bytearray(self._read_blocks(inode, cow_first, nblocks))
                seg = data[:cow_end_byte - offset]
                old[head_pad:head_pad + len(seg)] = seg
                self._store_extents(new_extents, old)
            old_extents = inode.extents.replace_logical(cow_first, new_extents)
            self._append_log_entry(inode.ino, ctx)
            self._invalidate_log_entry(inode.ino, ctx)
            ctx.charge(_INDEX_UPDATE_NS)
            self._free(old_extents, ctx)
            written = cow_end_byte - offset
        else:
            written = 0
        tail = data[written:]
        if tail:
            self._write_in_place(inode, offset + written, tail, ctx)
            self._append_log_entry(inode.ino, ctx)

    def write(self, ino: int, offset: int, data: bytes, ctx: SimContext) -> int:
        self._check_mounted()
        self._check_writable()
        # remember the allocation size before BaseFS extends it, so the CoW
        # path can tell pre-existing blocks from freshly allocated ones
        inode = self._inode_for_data(ino)
        self._pre_write_blocks[ino] = inode.extents.total_blocks
        try:
            return super().write(ino, offset, data, ctx)
        finally:
            self._pre_write_blocks.pop(ino, None)
