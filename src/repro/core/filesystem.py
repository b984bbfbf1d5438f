"""WineFS: the hugepage-aware PM file system (paper §3).

Specializes :class:`~repro.fs.common.base.BaseFS` with the design choices
the paper lists in §3.2:

* alignment-aware allocation (§3.4): one pool per CPU; large requests
  get aligned extents, small ones holes, stated through BaseFS's
  ``_pool_order`` / ``_pick`` hooks;
* per-CPU undo journals, coordinated through VFS inode locks;
* in-place metadata with dedicated locations ("controlled fragmentation");
* hybrid data atomicity in strict mode: data journaling for
  hugepage-aligned extents (layout preserved), copy-on-write into fresh
  holes for everything else;
* DRAM indexes (directory indexes charged as RB-trees, from BaseFS);
* aligned-hugepage allocation inside the page-fault handler, which is what
  makes ftruncate-style applications (LMDB) get hugepages on WineFS;
* reactive rewriting, alignment xattrs with directory inheritance;
* real crash recovery: metadata is serialized to PM (inode slots, journal
  entries), so a crash image can be remounted and is rolled back / scanned
  exactly as the paper describes (§3.6, §5.2).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional

from ..clock import SimContext
from ..errors import (CorruptionError, FSError, InvalidArgumentError,
                      MediaError, NoSpaceError, NotFoundError)
from ..faults import MAX_WRITE_RETRIES
from ..mmu.mmap_region import MappedRegion
from ..params import BLOCK_SIZE, BLOCKS_PER_HUGEPAGE
from ..pm.device import PMDevice
from ..structures.extents import Extent
from ..fs.common.base import BaseFS, ROOT_INO
from ..fs.common.freespace import FreePool
from ..fs.common.inode import Inode, InodeTable, INODE_BYTES
from .journal import JournalManager, MAX_TXN_ENTRIES, _Transaction
from .layout import (INLINE_EXTENTS, EXTENTS_PER_INDIRECT, MAX_FILE_SIZE,
                     InodeRecord, InodeSlot, Layout, pack_indirect,
                     read_superblock, unpack_inode, write_superblock)
from .rewrite import RewriteQueue

XATTR_ALIGNED = "user.winefs.aligned"
#: superblock byte offset where per-CPU inode watermarks live
_WATERMARK_OFF = 64


class _PerCPUInodeTables:
    """Facade over per-CPU inode tables with the InodeTable interface."""

    def __init__(self, layout: Layout) -> None:
        self._layout = layout
        self.tables = [InodeTable(first_ino=layout.first_ino(cpu),
                                  capacity=layout.inodes_per_cpu)
                       for cpu in range(layout.num_cpus)]
        # flat ino -> Inode mirror of the per-CPU tables, so the data-path
        # get() is one dict probe instead of a table dispatch
        self._by_ino: Dict[int, Inode] = {}

    def allocate(self, is_dir: bool = False, owner_cpu: int = 0) -> Inode:
        cpu = owner_cpu % len(self.tables)
        # overflow to other CPUs' tables when local is exhausted
        for i in range(len(self.tables)):
            table = self.tables[(cpu + i) % len(self.tables)]
            if table.free_count > 0:
                inode = table.allocate(is_dir=is_dir, owner_cpu=owner_cpu)
                self._by_ino[inode.ino] = inode
                return inode
        raise FSError("all per-CPU inode tables exhausted")

    def free(self, ino: int) -> None:
        self.tables[self._layout.cpu_of_ino(ino)].free(ino)
        self._by_ino.pop(ino, None)

    def get(self, ino: int) -> Optional[Inode]:
        return self._by_ino.get(ino)

    def adopt(self, inode: Inode) -> None:
        self.tables[self._layout.cpu_of_ino(inode.ino)].adopt(inode)
        self._by_ino[inode.ino] = inode

    def __contains__(self, ino: int) -> bool:
        return self.get(ino) is not None

    def __len__(self) -> int:
        # the flat mirror tracks exactly the live inodes across all tables
        return len(self._by_ino)

    def live_inodes(self) -> List[Inode]:
        out: List[Inode] = []
        for t in self.tables:
            out.extend(t.live_inodes())
        return out


class _MetaTxnScope:
    """Hand-rolled context manager for :meth:`WineFS._meta_txn`.

    The metadata paths open ~2 of these per operation; a generator-based
    ``@contextmanager`` costs two object allocations and two extra frame
    resumptions per use, which is measurable at aging scale.
    """

    __slots__ = ("_fs", "_ctx", "_entries", "_txn", "_lock")

    def __init__(self, fs: "WineFS", ctx: SimContext, entries: int) -> None:
        self._fs = fs
        self._ctx = ctx
        self._entries = entries

    def __enter__(self) -> None:
        self._txn, self._lock = self._fs._txn_enter(self._ctx, self._entries)

    def __exit__(self, exc_type, exc, tb) -> bool:
        txn = self._txn
        if txn is not None:
            ctx = self._ctx
            del self._fs._open_txn[ctx.cpu]
            txn.commit(ctx)
            if txn.frees:
                self._fs._free(txn.frees)
            if self._lock is not None:
                ctx.locks.release(self._lock, ctx.cpu)
        return False


class WineFS(BaseFS):
    """The paper's file system.  ``mode`` is "strict" (default: atomic,
    synchronous data + metadata) or "relaxed" (metadata-only consistency,
    like ext4-DAX), per §3.3."""

    fault_zero_fill = False       # WineFS zeroes at allocation time
    alloc_ns = 60.0               # DRAM free-list probe per decision
    max_file_size = MAX_FILE_SIZE

    def __init__(self, device: PMDevice, num_cpus: int = 4,
                 mode: str = "strict",
                 track_data: Optional[bool] = None) -> None:
        if mode not in ("strict", "relaxed"):
            raise InvalidArgumentError(f"unknown mode {mode!r}")
        self.mode = mode
        self.layout = Layout(num_cpus=num_cpus,
                             total_blocks=device.size // BLOCK_SIZE)
        super().__init__(device, num_cpus, track_data=track_data)
        self.name = "WineFS" if mode == "strict" else "WineFS-relaxed"
        self.data_consistent = (mode == "strict")
        # provenance: hugepage indexes handed out *as aligned extents*.
        # The hybrid data-atomicity policy (§3.4) keys off how an extent
        # was allocated, not its accidental physical alignment — on a
        # clean FS, hole allocations also merge into aligned runs.
        self.aligned_out: set = set()
        # blocks taken out of circulation after write errors; DRAM-only,
        # like an unpersisted badblocks list, so a remount forgets them
        self.quarantined: set = set()
        self.journal: Optional[JournalManager] = None
        self.rewrite_queue = RewriteQueue(self)
        #: cpu -> the transaction open on it; a nested ``_meta_txn`` joins it
        self._open_txn: Dict[int, _Transaction] = {}
        #: ino -> what is on PM for that inode (slot address and image,
        #: extents, indirect chain, name); one probe per metadata update
        self._slots: Dict[int, InodeSlot] = {}

    # ------------------------------------------------------------- lifecycle

    def _metadata_blocks(self) -> int:
        return Layout(num_cpus=self.layout.num_cpus,
                      total_blocks=self.device.size // BLOCK_SIZE
                      ).data_start_block

    def mkfs(self, ctx: SimContext) -> None:
        # a fresh format clears any degradation from a previous mount
        # (and closes the degraded interval on attached telemetry)
        self.clear_degraded(ctx)
        self._itable = _PerCPUInodeTables(self.layout)
        self._dirs = {}
        self._slots = {}
        self.journal = JournalManager(self.device, self.layout)
        self._init_allocator()
        root = self._itable.allocate(is_dir=True)
        assert root.ino == ROOT_INO
        root.name, root.parent_ino = "", 0
        self._dirs[ROOT_INO] = self.dir_index_cls()
        write_superblock(self.device, self.layout)
        self._persist_watermarks(ctx)
        self._persist_inode(root, ctx)
        ctx.charge(self.machine.persist_ns(4096))
        self.mounted = True

    def _init_allocator(self) -> None:
        """One pool per CPU, each a whole number of hugepages, so an
        aligned extent never straddles two pools; the data area's tail
        below 2MB stays outside every pool."""
        self._pools = [FreePool(*self.layout.data_pool_range(cpu))
                       for cpu in range(self.layout.num_cpus)]
        self.aligned_out = set()
        self.quarantined = set()

    def mount(self, ctx: SimContext) -> None:
        """Mount from the PM image alone: recover journals, scan inodes.

        This is the real recovery path (§3.6), and every mount takes it:
        uncommitted transactions are rolled back in global-ID order, the
        journals are erased and transaction ids continue above the last
        one seen, then DRAM structures (directory indexes, allocator free
        lists, inode in-use lists) are rebuilt by scanning the per-CPU
        inode tables.  After a clean unmount every transaction committed,
        so recovery rolls nothing back.

        Degradation ladder: metadata reads that hit poisoned lines surface
        ``EIO`` (:class:`~repro.errors.MediaError` is an ``FSError``);
        journal records that fail their checksum are skipped; either event
        completes the mount **read-only** instead of refusing to mount.
        """
        with ctx.trace.span(ctx, "winefs.recover", fs=self.name):
            layout = read_superblock(self.device)
            if layout.num_cpus != self.layout.num_cpus or \
                    layout.total_blocks != self.layout.total_blocks:
                raise CorruptionError("superblock geometry mismatch")
            self.journal = JournalManager(self.device, self.layout)
            self.journal.recover()
            if self.journal.skipped_records:
                self._degrade(
                    ctx, f"journal recovery skipped "
                    f"{self.journal.skipped_records} corrupt records")
            self._rebuild_from_scan(ctx)
            self.mounted = True

    def _degrade(self, ctx: SimContext, reason: str) -> None:
        """Remount read-only and make the event observable."""
        if self.read_only:
            return
        self.remount_read_only(reason, ctx)
        if ctx.trace.enabled:
            now = ctx.now
            ctx.trace.record("fs.degraded", ctx.cpu, now, now,
                             fs=self.name, reason=reason)

    def unmount(self, ctx: SimContext) -> None:
        self._check_mounted()
        # §3.6: DRAM structures are serialized to PM on clean unmount; we
        # charge the serialization and rely on the inode scan at mount (the
        # stored free lists are an optimization, not a correctness need).
        stats_bytes = 64 * len(self._itable)
        ctx.charge(self.machine.persist_ns(stats_bytes))
        self.device.drain()
        self.mounted = False

    def _rebuild_from_scan(self, ctx: SimContext) -> None:
        self._itable = _PerCPUInodeTables(self.layout)
        self._dirs = {}
        self._slots = {}
        records: List[InodeRecord] = []
        lost: List[int] = []
        watermarks = self._load_watermarks()
        # parallel scan (§5.2): each CPU scans its own table; charge the
        # makespan of the largest table to every CPU's clock share
        for cpu in range(self.layout.num_cpus):
            scan_ctx = ctx.on_cpu(cpu)
            first = self.layout.first_ino(cpu)
            for slot in range(watermarks[cpu]):
                ino = first + slot
                try:
                    raw = self.device.load(self.layout.inode_addr(ino),
                                           INODE_BYTES, scan_ctx)
                    rec = unpack_inode(
                        ino, raw,
                        lambda b: self.device.load(
                            b * BLOCK_SIZE, BLOCK_SIZE, scan_ctx),
                        self.layout.data_blocks)
                except MediaError:
                    # poisoned inode slot (or indirect block): the record
                    # is unreadable — skip it and degrade instead of
                    # failing the whole mount
                    lost.append(ino)
                    continue
                if rec is not None:
                    records.append(rec)
        used: List[Extent] = []
        for rec in records:
            chain = rec.chain
            inode = rec.to_inode()
            inode.parent_ino, inode.name = rec.parent_ino, rec.name
            inode.owner_cpu = self.layout.cpu_of_ino(rec.ino) \
                % self.layout.num_cpus
            self._itable.adopt(inode)
            slot = self._slots[rec.ino] = InodeSlot(
                self.layout.inode_addr(rec.ino), chain)
            # the record learns the name now on PM, so the first update
            # after mount can tell whether a rename moved it; it keeps no
            # diff base, so that update copy-on-writes the chain
            slot.pack(inode, inode.extents.as_tuple(),
                      chain[0] if chain else 0)
            slot.extents = None
            if inode.is_dir:
                self._dirs[inode.ino] = self.dir_index_cls()
            used.extend(inode.extents)
            used.extend(Extent(b, 1) for b in chain)
        if lost:
            self._degrade(ctx, f"{len(lost)} unreadable inode slots "
                               f"(inos {sorted(lost)[:8]}...)")
        # second pass: every live inode must reach the root through its
        # parent pointers.  A lost or non-directory parent, or a cycle,
        # leaves a subtree hanging off nothing: that fails the mount, and
        # a degraded mount drops the subtree instead.  Each inode is
        # walked once; a cycle meets its own provisional ``False``.
        reaches: Dict[int, bool] = {ROOT_INO: True}
        for inode in self._itable.live_inodes():
            chain: List[int] = []
            node: Optional[Inode] = inode
            while node is not None and node.ino not in reaches:
                reaches[node.ino] = False
                chain.append(node.ino)
                parent = self._itable.get(node.parent_ino)
                node = parent if parent is not None and parent.is_dir \
                    else None
            ok = node is not None and reaches[node.ino]
            for ino in chain:
                reaches[ino] = ok
        unreachable = sorted(ino for ino, ok in reaches.items() if not ok)
        if unreachable and not self.read_only:
            ino = unreachable[0]
            raise CorruptionError(
                f"inode {ino} (parent {self._itable.get(ino).parent_ino}) "
                f"is not reachable from the root")
        for ino in unreachable:
            self._dirs.pop(ino, None)
            self._slots.pop(ino, None)
            self._itable.free(ino)
        for inode in self._itable.live_inodes():
            if inode.ino == ROOT_INO:
                continue
            self._dirs[inode.parent_ino].insert(inode.name, inode.ino)
        # §3.6: pools are re-initialized from the blocks live inodes use;
        # a block no pool owns or two inodes claim is a corrupt image
        self._init_allocator()
        for ext in sorted(used, key=lambda e: e.start):
            start, end = ext.start, ext.end
            while start < end:
                pool = self._pool_owning(start, end)
                stop = min(end, pool.range_end)
                if pool.alloc_exact(start, stop - start) is None:
                    raise CorruptionError(
                        f"recovery: extent {ext} is not free")
                start = stop

    # ------------------------------------------------------- watermarks

    def _persist_watermarks(self, ctx: Optional[SimContext] = None) -> None:
        assert isinstance(self._itable, _PerCPUInodeTables)
        raw = b"".join(
            struct.pack("<I", t._next - t.first_ino)
            for t in self._itable.tables)
        self.device.persist(_WATERMARK_OFF, raw,
                            ctx if ctx is not None else None)

    def _load_watermarks(self) -> List[int]:
        raw = self.device.load(_WATERMARK_OFF, 4 * self.layout.num_cpus)
        marks = [struct.unpack_from("<I", raw, 4 * i)[0]
                 for i in range(self.layout.num_cpus)]
        return [min(m, self.layout.inodes_per_cpu) for m in marks]

    # ------------------------------------------------------- transactions

    def _meta_txn(self, ctx: SimContext, entries: int,
                  ino: Optional[int] = None) -> "_MetaTxnScope":
        assert self.journal is not None
        return _MetaTxnScope(self, ctx, entries)

    def _txn_enter(self, ctx: SimContext, entries: int):
        """Open a journal transaction unless one is open on this CPU already.

        Returns (txn, lock_name): txn is None for a nested join,
        lock_name is None unless the shared-journal lock was taken.
        """
        if ctx.cpu in self._open_txn:
            # nested operation joins the enclosing transaction
            return None, None
        # journals are per-logical-CPU; when the workload runs more CPUs
        # than the FS has journals (e.g. the single-journal ablation), the
        # shared journal serializes its writers
        lock_name = None
        if self.layout.num_cpus < ctx.clock.num_cpus:
            lock_name = f"winefs-journal:{ctx.cpu % self.layout.num_cpus}"
            ctx.locks.acquire(lock_name, ctx.cpu)
        txn = self._open_txn[ctx.cpu] = self.journal.begin(
            ctx, entries_hint=min(entries, MAX_TXN_ENTRIES))
        return txn, lock_name

    # ------------------------------------------------------- inode persistence

    def _alloc_inode(self, is_dir: bool, ctx: SimContext) -> Inode:
        assert isinstance(self._itable, _PerCPUInodeTables)
        inode = self._itable.allocate(is_dir=is_dir, owner_cpu=ctx.cpu)
        txn = self._open_txn.get(ctx.cpu)
        if txn is not None:
            txn.log_undo(_WATERMARK_OFF, ctx)
        self._persist_watermarks(ctx)
        return inode

    def _free_inode(self, inode: Inode, ctx: Optional[SimContext] = None) -> None:
        # invalidate the slot on PM (valid byte -> 0), undo-logging the old
        # record first so a mid-transaction crash can roll the inode back
        # (CrashMonkey's rename-clobber workload catches the unlogged case)
        addr = self.layout.inode_addr(inode.ino)
        txn = self._open_txn.get(ctx.cpu) if ctx is not None else None
        if txn is not None:
            txn.log_undo(addr, ctx, INODE_BYTES)
        self.device.persist(addr, b"\x00", ctx)
        slot = self._slots.pop(inode.ino, None)
        if slot is not None and slot.chain:
            freed = [Extent(block, 1) for block in slot.chain]
            if txn is None:
                self._free(freed)
            else:
                txn.frees.extend(freed)  # the rolled-back record names them
        self._itable.free(inode.ino)
        if ctx is not None and inode.lock_name is not None:
            ctx.locks.forget(inode.lock_name)

    def _persist_inode(self, inode: Inode, ctx: SimContext) -> None:
        """Serialize the inode to its PM slot (and indirect chain), undo-
        logged in the transaction open on this CPU, if any.

        The chain is updated incrementally: when extents only changed at
        or past a known index (the common append case), only the affected
        chain blocks are rewritten — a real extent tree also touches only
        the modified leaves.
        """
        txn = self._open_txn.get(ctx.cpu)
        new_tuple = inode.extents.as_tuple()
        nnew = len(new_tuple)
        slot = self._slots.get(inode.ino)
        if slot is None:
            slot = self._slots[inode.ino] = InodeSlot(
                self.layout.inode_addr(inode.ino))
        addr = slot.addr
        prev = slot.extents
        old_chain = slot.chain
        if prev is new_tuple:
            # unchanged since the last serialize (size-only update)
            prev_len = lcp = nnew
        elif prev is None:
            prev_len = lcp = 0
        else:
            prev_len = len(prev)
            n = min(prev_len, nnew)
            lcp = 0
            while lcp < n and prev[lcp] == new_tuple[lcp]:
                lcp += 1
        n_old = len(old_chain)
        needed = (nnew - INLINE_EXTENTS + EXTENTS_PER_INDIRECT - 1) \
            // EXTENTS_PER_INDIRECT if nnew > INLINE_EXTENTS else 0
        # append-only: everything except possibly the last old extent
        # (which may have grown by coalescing) is unchanged
        if prev is not None and nnew >= prev_len and lcp >= prev_len - 1 \
                and needed >= n_old:
            # in-place incremental update: old entries are never
            # overwritten, so rolling back the header alone is safe
            chain = old_chain
            first_dirty = min(lcp, nnew - 1)
            if needed:
                start_block = max(0, (first_dirty - INLINE_EXTENTS)
                                  // EXTENTS_PER_INDIRECT)
                if needed > n_old:
                    chain = old_chain + [self._one_hole(ctx).start
                                         for _ in range(needed - n_old)]
                    start_block = min(start_block, max(0, n_old - 1))
                overflow = new_tuple[INLINE_EXTENTS:]
                for i in reversed(range(start_block, needed)):
                    chunk = overflow[i * EXTENTS_PER_INDIRECT:
                                     (i + 1) * EXTENTS_PER_INDIRECT]
                    nxt = chain[i + 1] if i + 1 < needed else 0
                    blob = pack_indirect(nxt, chunk)
                    dirty_idx = first_dirty - INLINE_EXTENTS \
                        - i * EXTENTS_PER_INDIRECT
                    if needed == n_old and i == needed - 1 and dirty_idx > 0:
                        # write only the modified tail entries of the leaf
                        lo = 8 + dirty_idx * 8
                        hi = 8 + len(chunk) * 8
                        self.device.persist(chain[i] * BLOCK_SIZE + lo,
                                            blob[lo:hi], ctx)
                    else:
                        self.device.persist(chain[i] * BLOCK_SIZE, blob, ctx)
            if txn is not None:
                if first_dirty >= INLINE_EXTENTS \
                        and slot.name == inode.name:
                    # header entry alone suffices: n_extents gates how much
                    # of the (suffix-extended) chain is live
                    txn.log_undo(addr, ctx)
                else:
                    txn.log_undo(addr, ctx, INODE_BYTES)
        else:
            # structural change (CoW replace, truncate, first serialize):
            # copy-on-write the chain so the old blocks stay intact for
            # rollback; the header pointer swap is the atomic commit point
            overflow = new_tuple[INLINE_EXTENTS:]
            chain = [self._one_hole(ctx).start for _ in range(needed)]
            for i in reversed(range(needed)):
                chunk = overflow[i * EXTENTS_PER_INDIRECT:
                                 (i + 1) * EXTENTS_PER_INDIRECT]
                nxt = chain[i + 1] if i + 1 < needed else 0
                self.device.store(chain[i] * BLOCK_SIZE,
                                  pack_indirect(nxt, chunk))
                self.device.clwb(chain[i] * BLOCK_SIZE, BLOCK_SIZE)
            if needed:
                self.device.sfence()
            # cost model: a real extent B+tree (keyed by logical offset)
            # rewrites only the leaves whose entries changed — a middle
            # replace does not shift its suffix — so charge only for the
            # entries outside the common prefix and common suffix
            lcs = 0
            max_lcs = min(prev_len, nnew) - lcp
            while lcs < max_lcs \
                    and prev[prev_len - 1 - lcs] == new_tuple[nnew - 1 - lcs]:
                lcs += 1
            changed = (nnew - lcp - lcs) + (prev_len - lcp - lcs)
            ctx.charge(self.machine.persist_ns(64 + changed * 8))
            ctx.counters.pm_bytes_written += 64 + changed * 8
            if old_chain:
                freed = [Extent(surplus, 1) for surplus in old_chain]
                if txn is None:
                    self._free(freed)
                else:
                    txn.frees += freed         # rollback needs them
            if txn is not None:
                # the name region changes only on a rename, so a
                # data-path update logs the header + inline extents alone
                renamed = slot.name is not None and slot.name != inode.name
                txn.log_undo(addr, ctx, INODE_BYTES if renamed else 72)
        slot.chain = chain
        self.device.persist(addr, slot.pack(inode, new_tuple,
                                            chain[0] if chain else 0), ctx)

    # ------------------------------------------------------- allocation (§3.4)

    def _pool_order(self, ctx: SimContext,
                    goal: Optional[int]) -> List[FreePool]:
        # an injected ENOSPC fails the request before anything is carved
        faults = self.device.faults
        if faults is not None and faults.is_active \
                and faults.take_enospc(ctx):
            raise NoSpaceError("injected fault: space exhausted")
        return self._home_first(ctx)

    def _home_first(self, ctx: SimContext) -> List[FreePool]:
        """The calling CPU's pool, then the others in address order."""
        pools = self._pools
        home = ctx.cpu % len(pools)
        return [pools[home]] + pools[:home] + pools[home + 1:]

    def _pick(self, pools: List[FreePool], remaining: int,
              goal: Optional[int], nblocks: int,
              want_aligned: bool) -> Optional[Extent]:
        # requests are carved in chunks of at most one hugepage: whole
        # hugepages from the aligned extents, the rest (or all, when the
        # request is not aligned-eligible) from the holes
        if want_aligned and remaining >= BLOCKS_PER_HUGEPAGE:
            ext = self._take_aligned(pools)
            if ext is not None:
                return ext
        return self._take_hole(pools, min(remaining, BLOCKS_PER_HUGEPAGE))

    def _take_aligned(self, pools: List[FreePool]) -> Optional[Extent]:
        """An aligned hugepage from the home pool, else from the remote
        pool with the most free aligned hugepages; None when no pool has
        one.  The hugepage joins the aligned provenance."""
        ext = pools[0].alloc_aligned_hugepage()
        if ext is None:
            # the home pool usually has one: rank the others only when not
            for pool in sorted(pools[1:], key=lambda p: p.aligned_hugepages(),
                               reverse=True):
                ext = pool.alloc_aligned_hugepage()
                if ext is not None:
                    break
            else:
                return None
        self.aligned_out.add(ext.start // BLOCKS_PER_HUGEPAGE)
        return ext

    @staticmethod
    def _take_hole(pools: List[FreePool], nblocks: int) -> Optional[Extent]:
        """*nblocks* from the holes, spending unaligned slack before
        breaking an aligned extent: the home pool first, then the remote
        pool with the most unaligned free space; failing that, as much
        as a first fit finds, in the same order.  None when all are
        empty."""
        ext = pools[0].alloc_avoiding_aligned(nblocks)
        if ext is not None:
            return ext
        order = [pools[0]] + sorted(
            pools[1:], reverse=True,
            key=lambda p: p.free_blocks
            - p.aligned_hugepages() * BLOCKS_PER_HUGEPAGE)
        for pool in order[1:]:
            ext = pool.alloc_avoiding_aligned(nblocks)
            if ext is not None:
                return ext
        for pool in order:
            largest = pool.largest()
            if largest > 0:
                return pool.alloc_first_fit(min(nblocks, largest))
        return None

    def _one_hole(self, ctx: SimContext) -> Extent:
        """One hole block outside the allocation loop (an indirect
        extent block, a relocation target): no span, no fault hook."""
        ext = self._take_hole(self._home_first(ctx), 1)
        if ext is None:
            raise NoSpaceError(f"{self.name}: no free block")
        return ext

    def _free_at_commit(self, extents: List[Extent],
                        ctx: SimContext) -> None:
        """Charge ``alloc_ns`` per extent now, as :meth:`_free` would, but
        hand the extents back only when the open transaction commits: a
        crash before then rolls back to a record that still names them."""
        txn = self._open_txn.get(ctx.cpu)
        if txn is None:
            self._free(extents, ctx)
            return
        ctx.charge_repeat(self.alloc_ns, len(extents))
        txn.frees += extents

    def _free(self, extents: List[Extent],
              ctx: Optional[SimContext] = None) -> None:
        """Charge ``alloc_ns`` per extent (given a *ctx*), end the aligned
        provenance of every hugepage an extent touches, and hand all but
        its quarantined blocks back to their pools."""
        aligned_out = self.aligned_out
        quarantined = self.quarantined
        back: List[Extent] = []
        for ext in extents:
            if ctx is not None:
                ctx.charge(self.alloc_ns)
            for hp in range(ext.start // BLOCKS_PER_HUGEPAGE,
                            (ext.end - 1) // BLOCKS_PER_HUGEPAGE + 1):
                aligned_out.discard(hp)
            if not quarantined:
                back.append(ext)
                continue
            start = ext.start
            for block in range(ext.start, ext.end):
                if block in quarantined:
                    if block > start:
                        back.append(Extent(start, block - start))
                    start = block + 1
            if start < ext.end:
                back.append(ext if start == ext.start
                            else Extent(start, ext.end - start))
        super()._free(back, ctx)

    def _quarantine(self, block: int) -> None:
        """Take *block* out of circulation for good (write errors): it
        leaves its pool now if free, and ``_free`` never returns it."""
        if block in self.quarantined:
            return
        self.quarantined.add(block)
        self.aligned_out.discard(block // BLOCKS_PER_HUGEPAGE)
        self._pool_owning(block, block + 1).alloc_exact(block, 1)

    def _ensure_blocks(self, inode: Inode, end_byte: int, ctx: SimContext,
                       want_aligned: Optional[bool] = None) -> None:
        # honor the alignment xattr / directory inheritance (§3.6): files
        # marked aligned get whole aligned extents even for small growth
        if want_aligned is None and inode.aligned_hint:
            needed = (end_byte + self.block_size - 1) // self.block_size \
                - inode.extents.total_blocks
            if needed > 0:
                rounded = ((needed + BLOCKS_PER_HUGEPAGE - 1)
                           // BLOCKS_PER_HUGEPAGE) * BLOCKS_PER_HUGEPAGE
                for ext in self._alloc(rounded, ctx, want_aligned=True):
                    inode.extents.append(ext)
            return
        super()._ensure_blocks(inode, end_byte, ctx, want_aligned)

    def alloc_for_fault(self, inode: Inode, logical_block: int,
                        ctx: SimContext) -> None:
        """Demand allocation inside the fault handler hands out *aligned
        hugepage extents* ("hugepage handling on page faults", §3.6) --
        this is why LMDB-style ftruncate growth still gets hugepages."""
        with ctx.trace.span(ctx, "fault.alloc", ino=inode.ino,
                            block=logical_block):
            while inode.extents.total_blocks <= logical_block:
                ext = self._take_aligned(self._home_first(ctx))
                if ext is None:
                    exts = self._alloc(
                        min(BLOCKS_PER_HUGEPAGE,
                            logical_block + 1 - inode.extents.total_blocks),
                        ctx, want_aligned=False)
                    for e in exts:
                        inode.extents.append(e)
                else:
                    inode.extents.append(ext)
            # zeroing newly allocated space happens at allocation, as NOVA
            # does
            ctx.charge(self.machine.pm_write_ns(self.block_size))
            self._persist_inode(inode, ctx)

    # ------------------------------------------------------- data path

    def _write_data(self, inode: Inode, offset: int, data: bytes,
                    ctx: SimContext) -> None:
        """Hybrid data atomicity (§3.4).

        Strict mode: overwrites of hugepage-backed ranges are data-
        journaled in place; overwrites of hole-backed ranges are CoW'd into
        fresh holes; appends past the old size write in place (size update
        gates visibility).  Relaxed mode: always in place.
        """
        old_size = inode.size
        overwrite_len = max(0, min(len(data), old_size - offset))
        if self.mode == "relaxed" or overwrite_len == 0:
            self._write_in_place(inode, offset, data, ctx)
            return
        over = data[:overwrite_len]
        if self._range_is_aligned(inode, offset, overwrite_len):
            # data journaling: write data once to the journal, then in place
            with ctx.trace.span(ctx, "winefs.data_journal",
                                ino=inode.ino, size=overwrite_len):
                journal_ns = self.machine.persist_ns(overwrite_len)
                ctx.charge(journal_ns)
                ctx.counters.journal_ns += journal_ns
                ctx.counters.pm_bytes_written += overwrite_len
                self._write_in_place(inode, offset, over, ctx)
        else:
            self._write_cow(inode, offset, over, ctx)
        tail = data[overwrite_len:]
        if tail:
            self._write_in_place(inode, offset + overwrite_len, tail, ctx)

    def _range_is_aligned(self, inode: Inode, offset: int,
                          length: int) -> bool:
        """Are all physical blocks of [offset, +length) inside aligned
        hugepage runs?"""
        first = offset // self.block_size
        last = (offset + length - 1) // self.block_size
        try:
            runs = inode.extents.slice_logical(first, last - first + 1)
        except IndexError:
            return False
        return all(self._block_in_aligned_run(inode, ext) for ext in runs)

    def _block_in_aligned_run(self, inode: Inode, ext: Extent) -> bool:
        """Is *ext* fully inside a physically aligned hugepage that the
        file owns end-to-end?"""
        hp_start = ext.start - ext.start % BLOCKS_PER_HUGEPAGE
        hp_end = ext.end + (-ext.end % BLOCKS_PER_HUGEPAGE)
        # every touched hugepage must have been handed out from the
        # aligned pool (allocation provenance, not accidental alignment)
        for hp in range(hp_start // BLOCKS_PER_HUGEPAGE,
                        hp_end // BLOCKS_PER_HUGEPAGE):
            if hp not in self.aligned_out:
                return False
        # and the file must own every touched hugepage end to end
        for fe in inode.extents:
            if fe.start <= ext.start and ext.end <= fe.end:
                return fe.start <= hp_start and hp_end <= fe.end
        return False

    def _write_in_place(self, inode: Inode, offset: int, data: bytes,
                        ctx: SimContext) -> None:
        plan = self.device.faults
        if plan is not None and plan.wants_write_checks and data:
            # bounded retry-with-relocation: quarantine each failing
            # block, move its logical block to a fresh hole, and retry;
            # only an exhausted budget surfaces EIO to the caller
            first = offset // self.block_size
            nblocks = (offset + len(data) - 1) // self.block_size \
                - first + 1
            for attempt in range(MAX_WRITE_RETRIES + 1):
                bad = plan.failing_block(
                    self._phys_blocks_in(inode, first, nblocks), ctx)
                if bad is None:
                    break
                if attempt == MAX_WRITE_RETRIES:
                    plan.note("write_error", "surfaced", ctx, block=bad)
                    raise MediaError(
                        f"write to block {bad} failed after "
                        f"{MAX_WRITE_RETRIES} relocation attempts")
                self._relocate_bad_block(inode, bad, ctx)
                plan.note("write_error", "masked", ctx, block=bad)
        super()._write_in_place(inode, offset, data, ctx)

    def _phys_blocks_in(self, inode: Inode, first: int,
                        nblocks: int) -> Iterator[int]:
        for ext in inode.extents.slice_logical(first, nblocks):
            yield from range(ext.start, ext.end)

    def _relocate_bad_block(self, inode: Inode, bad: int,
                            ctx: SimContext) -> None:
        """Move one logical block off a failing physical block.

        The old content is still readable (the media only rejects
        writes), so it is salvaged into the replacement hole before the
        extent map is swung over in a journaled transaction.  The bad
        block itself stays quarantined, never freed.
        """
        logical = self._logical_of_phys(inode, bad)
        self._quarantine(bad)
        ctx.charge(self.alloc_ns)
        new_ext = self._one_hole(ctx)
        ctx.charge(self.machine.pm_read_ns(self.block_size)
                   + self.machine.persist_ns(self.block_size))
        ctx.counters.pm_bytes_written += self.block_size
        if self.track_data:
            self._store_extents([new_ext], self.device.load(
                bad * self.block_size, self.block_size))
        with self._meta_txn(ctx, entries=4, ino=inode.ino):
            inode.extents.replace_logical(logical, [new_ext])
            self._persist_inode(inode, ctx)

    def _logical_of_phys(self, inode: Inode, phys: int) -> int:
        logical = 0
        for ext in inode.extents:
            if ext.start <= phys < ext.end:
                return logical + (phys - ext.start)
            logical += ext.length
        raise FSError(f"block {phys} not mapped by inode {inode.ino}")

    def _write_cow(self, inode: Inode, offset: int, data: bytes,
                   ctx: SimContext) -> None:
        """Copy-on-write into fresh unaligned holes (§3.4)."""
        with ctx.trace.span(ctx, "winefs.cow", ino=inode.ino,
                            size=len(data)):
            first = offset // self.block_size
            last = (offset + len(data) - 1) // self.block_size
            nblocks = last - first + 1
            new_extents = self._alloc_cow_blocks(nblocks, ctx)
            head_pad = offset - first * self.block_size
            tail_end = (last + 1) * self.block_size
            tail_pad = tail_end - (offset + len(data))
            copy_bytes = len(data) + head_pad + tail_pad
            ctx.charge(self.machine.pm_read_ns(head_pad + tail_pad) +
                       self.machine.persist_ns(copy_bytes))
            ctx.counters.pm_bytes_written += copy_bytes
            if self.track_data:
                old = bytearray(self._read_blocks(inode, first, nblocks))
                old[head_pad:head_pad + len(data)] = data
                self._store_extents(new_extents, old)
            with self._meta_txn(ctx, entries=4, ino=inode.ino):
                old_extents = inode.extents.replace_logical(first, new_extents)
                self._persist_inode(inode, ctx)
            self._free(old_extents, ctx)

    def _alloc_cow_blocks(self, nblocks: int,
                          ctx: SimContext) -> List[Extent]:
        """Allocate CoW destination blocks, dodging write-failing ones.

        A failing destination is quarantined and the rest of the grab is
        returned to the pools (``free`` splits around quarantined
        blocks), then the allocation retries from a clean slate.
        """
        plan = self.device.faults
        if plan is None or not plan.wants_write_checks:
            return self._alloc(nblocks, ctx, want_aligned=False)
        for attempt in range(MAX_WRITE_RETRIES + 1):
            extents = self._alloc(nblocks, ctx, want_aligned=False)
            bad = plan.failing_block(
                (b for ext in extents
                 for b in range(ext.start, ext.end)), ctx)
            if bad is None:
                return extents
            self._quarantine(bad)
            self._free(extents, ctx)
            if attempt == MAX_WRITE_RETRIES:
                plan.note("write_error", "surfaced", ctx, block=bad)
                raise MediaError(
                    f"CoW destination block {bad} failed after "
                    f"{MAX_WRITE_RETRIES} relocation attempts")
            plan.note("write_error", "masked", ctx, block=bad)
        raise AssertionError("unreachable")

    # ------------------------------------------------------- mmap & xattrs

    def mmap(self, ino: int, ctx: SimContext,
             length: Optional[int] = None) -> MappedRegion:
        region = super().mmap(ino, ctx, length=length)
        inode = self._itable.get(ino)
        assert inode is not None
        nblocks = inode.extents.total_blocks
        if nblocks >= BLOCKS_PER_HUGEPAGE and \
                inode.extents.fragmentation_score() > 0.5:
            # §3.6: fragmented memory-mapped files queue for rewriting
            self.rewrite_queue.note_fragmented(ino)
        return region

    def setxattr(self, path: str, key: str, value: bytes,
                 ctx: SimContext) -> None:
        self._check_mounted()
        self._check_writable()
        self._syscall(ctx)
        inode = self._resolve(path, ctx)
        with self._meta_txn(ctx, entries=2, ino=inode.ino):
            inode.xattrs[key] = value
            if key == XATTR_ALIGNED:
                inode.aligned_hint = value == b"1"
            self._persist_inode(inode, ctx)

    def getxattr(self, path: str, key: str, ctx: SimContext) -> bytes:
        self._check_mounted()
        self._syscall(ctx)
        inode = self._resolve(path, ctx)
        if key not in inode.xattrs:
            if key == XATTR_ALIGNED and inode.aligned_hint:
                return b"1"
            raise NotFoundError(f"xattr {key} on {path}")
        return inode.xattrs[key]

    def _apply_dir_inheritance(self, parent: Inode, child: Inode) -> None:
        # §3.6: files directly within a directory inherit alignment
        # information from the parent directory's xattrs
        if parent.xattrs.get(XATTR_ALIGNED) == b"1":
            child.aligned_hint = True

