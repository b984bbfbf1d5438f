"""BaseFS: the namespace, data-path and free-space mechanics shared by
all nine simulated file systems.

Subclasses state only the *policy* the paper tells the designs apart by:

* ``_metadata_blocks`` / ``_num_pools`` / ``_pool_order`` / ``_pick`` /
  ``alloc_ns`` — the block allocator (where the data area starts, how
  many pools it is carved into, which pool a request tries first, what
  one pick carves: contiguity-first, aligned-preferred, next-fit, ...);
* ``_meta_txn`` — metadata crash-consistency machinery (per-CPU undo
  journal, global JBD2 batch, per-inode log append, ...), including which
  lock it serializes on (this is what Fig 10's scalability measures);
* ``_write_data`` — data atomicity (in-place, journaled, CoW, log-append)
  and what it charges;
* ``_fsync_impl`` / ``unmount`` — what fsync costs (nothing for
  synchronous designs, a stop-the-world journal flush for JBD2);
* ``alloc_for_fault`` — what backing a page fault gets for on-demand
  (ftruncate-extended) mappings: WineFS hands out an aligned hugepage,
  everyone else a 4KB block (this drives the LMDB result, §5.4).

The base class owns the mechanics under those policies, once: the pool
carve, the allocation loop with its largest-run fallback and its
``alloc`` span, the free to the owning pool, the durable store of file
bytes (``_store_data`` / ``_store_extents``: the only callers of
``device.store`` / ``clwb`` / ``sfence`` for file data), path
resolution, directory indexes, the read path, mmap plumbing, statfs and
fragmentation metrics; and
:class:`RunningLogFS` owns the running transaction of the batching
journals (JBD2, the xfs log).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import (Callable, ContextManager, Dict, Iterator, List, Optional,
                    Tuple)

from ...clock import SimContext
from ...errors import (
    CorruptionError, ExistsError, FSError, InvalidArgumentError,
    IsADirectoryError_, NoSpaceError, NotADirectoryError_, NotEmptyError,
    NotFoundError, NotMountedError,
)
from ...mmu.mmap_region import MappedRegion
from ...params import BASE_PAGE, BLOCK_SIZE, BLOCKS_PER_HUGEPAGE
from ...pm.device import PMDevice
from ...pm.zeros import Zeros, zero_bytes
from ...structures.extents import Extent, ExtentList
from ...vfs.interface import FileSystem, FSStats, OpenFile, StatResult
from ...vfs.path import normalize_path, split_path
from .dirindex import DirIndex, RBDirIndex
from .freespace import FreePool
from .inode import Inode, InodeTable, INODE_BYTES

ROOT_INO = 1

#: what ``_meta_txn`` returns when all of a design's transaction work
#: happens on entry (nothing to commit or release when the scope ends)
ENTRY_ONLY_TXN = nullcontext()


class BaseFS(FileSystem):
    """Common machinery; see module docstring for the specialization hooks."""

    block_size = BLOCK_SIZE
    dir_index_cls: Callable[[], DirIndex] = RBDirIndex
    #: does the fault handler zero pages (ext4-DAX) or did allocation (NOVA)?
    fault_zero_fill = False
    #: move real bytes (tests) or cost-only (large benches)?
    track_data = True
    #: free-list / tree search charged once per allocation request
    alloc_ns = 0.0
    #: write/truncate/fallocate refuse a larger size (WineFS: core.layout)
    max_file_size: float = float("inf")

    def __init__(self, device: PMDevice, num_cpus: int = 4,
                 track_data: Optional[bool] = None) -> None:
        super().__init__(device, num_cpus)
        if track_data is not None:
            self.track_data = track_data
        #: blocks reserved for superblock + metadata at the partition start
        self.meta_blocks = self._metadata_blocks()
        self.total_blocks = device.size // self.block_size
        if self.meta_blocks >= self.total_blocks:
            raise FSError("device too small for metadata")
        self._itable = InodeTable(first_ino=ROOT_INO,
                                  capacity=max(1024, self.total_blocks // 8))
        self._dirs: Dict[int, DirIndex] = {}
        #: free-space pools of the data area, in address order
        self._pools: List[FreePool] = []

    # ------------------------------------------------------------------ hooks

    def _metadata_blocks(self) -> int:
        """Blocks reserved at the start of the partition for FS metadata."""
        return 1024  # 4MB: superblock, inode table, journal; subclasses refine

    def _num_pools(self) -> int:
        """How many free-space pools the data area is carved into."""
        return 1

    def _pool_order(self, ctx: SimContext,
                    goal: Optional[int]) -> List[FreePool]:
        """The order one request tries the pools in."""
        return self._pools

    def _pick(self, pools: List[FreePool], remaining: int,
              goal: Optional[int], nblocks: int,
              want_aligned: bool) -> Optional[Extent]:
        """Carve up to *remaining* blocks of an *nblocks* request from
        *pools* by this design's placement rule (*want_aligned*: the
        caller asks for hugepage-aligned extents); None when no free run
        satisfies the rule."""
        raise NotImplementedError

    def _meta_txn(self, ctx: SimContext, entries: int,
                  ino: Optional[int] = None) -> ContextManager:
        """Metadata transaction: charge journaling costs and locking."""
        raise NotImplementedError

    def _write_data(self, inode: Inode, offset: int, data: bytes,
                    ctx: SimContext) -> None:
        """Move *data* into allocated blocks per the FS's atomicity policy
        (the default: in place, as every DAX design without data
        consistency does)."""
        self._write_in_place(inode, offset, data, ctx)

    def _fsync_impl(self, inode: Inode, ctx: SimContext) -> None:
        """Synchronous designs have nothing left to do at fsync."""

    def alloc_for_fault(self, inode: Inode, logical_block: int,
                        ctx: SimContext) -> None:
        """Allocate backing for a faulting page of a sparse-extended file.

        The default allocates one 4KB block at a time (plus any gap up to
        the faulting block), which is why ftruncate-style applications like
        LMDB never see hugepages on the baselines.  WineFS overrides this.
        """
        needed = logical_block + 1 - inode.extents.total_blocks
        if needed <= 0:
            return
        for ext in self._alloc(needed, ctx):
            inode.extents.append(ext)
        self._persist_inode(inode, ctx)

    # --------------------------------------------------------------- lifecycle

    def mkfs(self, ctx: SimContext) -> None:
        self._itable = InodeTable(first_ino=ROOT_INO,
                                  capacity=max(1024, self.total_blocks // 8))
        self._dirs = {}
        root = self._itable.allocate(is_dir=True)
        assert root.ino == ROOT_INO
        self._dirs[ROOT_INO] = self.dir_index_cls()
        self._init_allocator()
        # superblock + inode table init writes
        ctx.charge(self.machine.persist_ns(self.meta_blocks * 64))
        self.mounted = True

    def _init_allocator(self) -> None:
        """Carve the data area, in address order, into ``_num_pools()``
        equal pools; the last one also takes the remainder."""
        n = self._num_pools()
        data_blocks = self.total_blocks - self.meta_blocks
        per_pool = data_blocks // n
        self._pools = [
            FreePool(self.meta_blocks + i * per_pool,
                     per_pool if i < n - 1 else data_blocks - i * per_pool)
            for i in range(n)]

    def mount(self, ctx: SimContext) -> None:
        self._check_device_formatted()
        self.mounted = True

    def _check_device_formatted(self) -> None:
        if not self._dirs:
            raise NotMountedError(f"{self.name}: device not formatted")

    def unmount(self, ctx: SimContext) -> None:
        self._check_mounted()
        self.device.drain()
        self.mounted = False

    # --------------------------------------------------------------- free space

    def _alloc(self, nblocks: int, ctx: SimContext, *,
               goal: Optional[int] = None,
               want_aligned: bool = False) -> List[Extent]:
        """Allocate *nblocks*: one ``_pick`` per extent, each continuing
        at the end of the last; raises NoSpaceError when full, handing
        back (uncharged) what it had already carved."""
        with ctx.trace.span(ctx, "alloc", blocks=nblocks):
            ctx.charge(self.alloc_ns)
            pools = self._pool_order(ctx, goal)
            out: List[Extent] = []
            remaining = nblocks
            while remaining > 0:
                ext = self._pick(pools, remaining, goal, nblocks,
                                 want_aligned)
                if ext is None:
                    # fragmented: no run fits, take the largest one there is
                    ext = self._take_largest_run(pools, remaining)
                    if ext is None:
                        self._free(out)
                        raise NoSpaceError(f"{self.name}: no free blocks")
                out.append(ext)
                remaining -= ext.length
                goal = ext.start + ext.length
            return out

    def _take_largest_run(self, pools: List[FreePool],
                          remaining: int) -> Optional[Extent]:
        """The largest free run of any pool (ties: first in *pools*),
        or as much of it as *remaining*; None when nothing is free."""
        largest = 0
        for pool in pools:
            run = pool.largest()
            if run > largest:
                largest, owner = run, pool
        if largest == 0:
            return None
        return owner.alloc_first_fit(min(largest, remaining))

    def _free(self, extents: List[Extent],
              ctx: Optional[SimContext] = None) -> None:
        """Return each extent to the pool owning its address range,
        split where it crosses into the next pool's range."""
        for ext in extents:
            start = ext.start
            end = start + ext.length
            while start < end:
                pool = self._pool_owning(start, end)
                stop = end if end <= pool.range_end else pool.range_end
                pool.insert(ext if stop - start == ext.length
                            else Extent(start, stop - start))
                start = stop

    def _free_at_commit(self, extents: List[Extent],
                        ctx: SimContext) -> None:
        """Free *extents*, which the open ``_meta_txn`` stops naming.  A
        design whose transaction can roll back to them holds them until
        it commits (WineFS); the default frees them at once."""
        self._free(extents, ctx)

    def _pool_owning(self, start: int, end: int) -> FreePool:
        """The pool whose range holds block *start* of the range
        [start, end); CorruptionError when no pool does."""
        for pool in self._pools:
            if pool.range_start <= start < pool.range_end:
                return pool
        raise CorruptionError(
            f"{self.name}: block range [{start}, {end}) that no pool owns")

    # --------------------------------------------------------------- resolution

    def _resolve(self, path: str, ctx: Optional[SimContext],
                 parts: Optional[List[str]] = None) -> Inode:
        """The inode at *path*, walked from the root through *parts*
        (default: every component of *path*)."""
        if parts is None:
            parts = split_path(path)
        inode = self._itable.get(ROOT_INO)
        assert inode is not None
        for part in parts:
            if not inode.is_dir:
                raise NotADirectoryError_(path)
            child = self._dirs[inode.ino].lookup(part, ctx)
            if child is None:
                raise NotFoundError(path)
            nxt = self._itable.get(child)
            if nxt is None:
                raise NotFoundError(path)
            inode = nxt
        return inode

    def _resolve_parent(self, path: str, ctx: Optional[SimContext]
                        ) -> Tuple[str, Inode, str]:
        """Split *path* once: its canonical form, the directory that
        holds it, and its name in that directory."""
        path = normalize_path(path)
        cut = path.rfind("/")
        name = path[cut + 1:]
        if not name:
            raise InvalidArgumentError("root has no parent")
        where = path[:cut] or "/"
        parent = self._resolve(where, ctx,
                               path[1:cut].split("/") if cut else [])
        if not parent.is_dir:
            raise NotADirectoryError_(where)
        return path, parent, name

    def _alloc_inode(self, is_dir: bool, ctx: SimContext) -> Inode:
        return self._itable.allocate(is_dir=is_dir, owner_cpu=ctx.cpu)

    def _free_inode(self, inode: Inode, ctx=None) -> None:
        self._itable.free(inode.ino)
        # the lock name dies with its generation (see LockManager.forget)
        if ctx is not None and inode.lock_name is not None:
            ctx.locks.forget(inode.lock_name)

    def _persist_inode(self, inode: Inode, ctx: SimContext) -> None:
        ctx.charge(self.machine.persist_ns(INODE_BYTES))

    def _ino_lock(self, ino: int) -> str:
        """Lock name for an inode: keyed on the live object generation so
        recycled inode numbers do not alias across unrelated files."""
        inode = self._itable.get(ino)
        if inode is None:
            return f"ino:{ino}g0"
        # gen never changes on a live object, so the name is cacheable
        name = inode.lock_name
        if name is None:
            name = f"ino:{ino}g{inode.gen}"
            inode.lock_name = name
        return name

    # --------------------------------------------------------------- namespace

    def create(self, path: str, ctx: SimContext) -> OpenFile:
        self._check_mounted()
        self._check_writable()
        with ctx.trace.span(ctx, "vfs.create", fs=self.name, path=path):
            self._syscall(ctx)
            path, parent, name = self._resolve_parent(path, ctx)
            pdir = self._dirs[parent.ino]
            lock = self._ino_lock(parent.ino)
            ctx.locks.acquire(lock, ctx.cpu)
            try:
                if name in pdir:
                    raise ExistsError(path)
                with self._meta_txn(ctx, entries=4, ino=parent.ino):
                    inode = self._alloc_inode(is_dir=False, ctx=ctx)
                    inode.parent_ino, inode.name = parent.ino, name
                    self._apply_dir_inheritance(parent, inode)
                    pdir.insert(name, inode.ino, ctx)
                    self._persist_inode(inode, ctx)
                    self._persist_inode(parent, ctx)
            finally:
                ctx.locks.release(lock, ctx.cpu)
            return OpenFile(self, inode.ino, path)

    def _apply_dir_inheritance(self, parent: Inode, child: Inode) -> None:
        """Hook: WineFS directory-level alignment xattrs (§3.6)."""

    def open(self, path: str, ctx: SimContext) -> OpenFile:
        self._check_mounted()
        with ctx.trace.span(ctx, "vfs.open", fs=self.name, path=path):
            self._syscall(ctx)
            path = normalize_path(path)
            inode = self._resolve(path, ctx)
            if inode.is_dir:
                raise IsADirectoryError_(path)
            return OpenFile(self, inode.ino, path)

    def unlink(self, path: str, ctx: SimContext) -> None:
        self._check_mounted()
        self._check_writable()
        with ctx.trace.span(ctx, "vfs.unlink", fs=self.name, path=path):
            self._syscall(ctx)
            path, parent, name = self._resolve_parent(path, ctx)
            pdir = self._dirs[parent.ino]
            lock = self._ino_lock(parent.ino)
            ctx.locks.acquire(lock, ctx.cpu)
            try:
                ino = pdir.lookup(name, ctx)
                if ino is None:
                    raise NotFoundError(path)
                inode = self._itable.get(ino)
                assert inode is not None
                if inode.is_dir:
                    raise IsADirectoryError_(path)
                with self._meta_txn(ctx, entries=4, ino=parent.ino):
                    pdir.remove(name, ctx)
                    freed = list(inode.extents)
                    if freed:
                        self._free_at_commit(freed, ctx)
                    self._free_inode(inode, ctx)
                    self._persist_inode(parent, ctx)
            finally:
                ctx.locks.release(lock, ctx.cpu)

    def mkdir(self, path: str, ctx: SimContext) -> None:
        self._check_mounted()
        self._check_writable()
        with ctx.trace.span(ctx, "vfs.mkdir", fs=self.name, path=path):
            self._syscall(ctx)
            path, parent, name = self._resolve_parent(path, ctx)
            pdir = self._dirs[parent.ino]
            ctx.locks.acquire(self._ino_lock(parent.ino), ctx.cpu)
            try:
                if name in pdir:
                    raise ExistsError(path)
                with self._meta_txn(ctx, entries=4, ino=parent.ino):
                    inode = self._alloc_inode(is_dir=True, ctx=ctx)
                    inode.parent_ino, inode.name = parent.ino, name
                    self._dirs[inode.ino] = self.dir_index_cls()
                    pdir.insert(name, inode.ino, ctx)
                    self._persist_inode(inode, ctx)
                    self._persist_inode(parent, ctx)
            finally:
                ctx.locks.release(self._ino_lock(parent.ino), ctx.cpu)

    def rmdir(self, path: str, ctx: SimContext) -> None:
        self._check_mounted()
        self._check_writable()
        with ctx.trace.span(ctx, "vfs.rmdir", fs=self.name, path=path):
            self._syscall(ctx)
            path, parent, name = self._resolve_parent(path, ctx)
            pdir = self._dirs[parent.ino]
            ctx.locks.acquire(self._ino_lock(parent.ino), ctx.cpu)
            try:
                ino = pdir.lookup(name, ctx)
                if ino is None:
                    raise NotFoundError(path)
                inode = self._itable.get(ino)
                assert inode is not None
                if not inode.is_dir:
                    raise NotADirectoryError_(path)
                if len(self._dirs[ino]):
                    raise NotEmptyError(path)
                with self._meta_txn(ctx, entries=3, ino=parent.ino):
                    pdir.remove(name, ctx)
                    del self._dirs[ino]
                    self._free_inode(inode, ctx)
                    self._persist_inode(parent, ctx)
            finally:
                ctx.locks.release(self._ino_lock(parent.ino), ctx.cpu)

    def rename(self, old: str, new: str, ctx: SimContext) -> None:
        self._check_mounted()
        self._check_writable()
        with ctx.trace.span(ctx, "vfs.rename", fs=self.name, path=old):
            self._syscall(ctx)
            old, src_parent, src_name = self._resolve_parent(old, ctx)
            new, dst_parent, dst_name = self._resolve_parent(new, ctx)
            # deterministic lock order to avoid simulated deadlock accounting
            lock_inos = sorted({src_parent.ino, dst_parent.ino})
            for li in lock_inos:
                ctx.locks.acquire(self._ino_lock(li), ctx.cpu)
            try:
                sdir = self._dirs[src_parent.ino]
                ddir = self._dirs[dst_parent.ino]
                ino = sdir.lookup(src_name, ctx)
                if ino is None:
                    raise NotFoundError(old)
                with self._meta_txn(ctx, entries=6, ino=src_parent.ino):
                    displaced = ddir.lookup(dst_name, ctx)
                    if displaced == ino:
                        # POSIX: old and new are the same file -> no-op
                        return
                    if displaced is not None:
                        victim = self._itable.get(displaced)
                        assert victim is not None
                        if victim.is_dir:
                            if len(self._dirs[displaced]):
                                raise NotEmptyError(new)
                            del self._dirs[displaced]
                        elif victim.extents.total_blocks:
                            self._free_at_commit(list(victim.extents), ctx)
                        ddir.remove(dst_name, ctx)
                        self._free_inode(victim, ctx)
                    sdir.remove(src_name, ctx)
                    ddir.insert(dst_name, ino, ctx)
                    moved = self._itable.get(ino)
                    assert moved is not None
                    moved.parent_ino, moved.name = dst_parent.ino, dst_name
                    self._persist_inode(moved, ctx)
                    self._persist_inode(src_parent, ctx)
                    self._persist_inode(dst_parent, ctx)
            finally:
                for li in reversed(lock_inos):
                    ctx.locks.release(self._ino_lock(li), ctx.cpu)

    def readdir(self, path: str, ctx: SimContext) -> List[str]:
        self._check_mounted()
        self._syscall(ctx)
        inode = self._resolve(path, ctx)
        if not inode.is_dir:
            raise NotADirectoryError_(path)
        names = self._dirs[inode.ino].names()
        ctx.charge(len(names) * 20.0)   # getdents copy-out
        return names

    def getattr(self, path: str, ctx: Optional[SimContext] = None) -> StatResult:
        self._check_mounted()
        if ctx is not None:
            self._syscall(ctx)
        inode = self._resolve(path, ctx)
        return self._stat_of(inode)

    def getattr_ino(self, ino: int) -> StatResult:
        inode = self._itable.get(ino)
        if inode is None:
            raise NotFoundError(f"ino {ino}")
        return self._stat_of(inode)

    @staticmethod
    def _stat_of(inode: Inode) -> StatResult:
        return StatResult(ino=inode.ino, size=inode.size,
                          blocks=inode.extents.total_blocks,
                          is_dir=inode.is_dir, nlink=inode.nlink)

    # --------------------------------------------------------------- data path

    def _inode_for_data(self, ino: int) -> Inode:
        inode = self._itable.get(ino)
        if inode is None:
            raise NotFoundError(f"ino {ino}")
        if inode.is_dir:
            raise IsADirectoryError_(f"ino {ino}")
        return inode

    def _ensure_blocks(self, inode: Inode, end_byte: int, ctx: SimContext,
                       want_aligned: Optional[bool] = None) -> None:
        """Allocate blocks so the file covers [0, end_byte)."""
        needed_blocks = (end_byte + self.block_size - 1) // self.block_size
        short = needed_blocks - inode.extents.total_blocks
        if short <= 0:
            return
        goal = inode.extents[-1].end if len(inode.extents) else None
        if want_aligned is None:
            want_aligned = short >= BLOCKS_PER_HUGEPAGE
        for ext in self._alloc(short, ctx, goal=goal, want_aligned=want_aligned):
            inode.extents.append(ext)

    def _write_in_place(self, inode: Inode, offset: int, data: bytes,
                        ctx: SimContext) -> None:
        """A DAX write straight into the file's blocks: one persist of
        the payload, nothing journaled or copied."""
        nbytes = len(data)
        ctx.charge(self.machine.persist_ns(nbytes))
        ctx.counters.pm_bytes_written += nbytes
        if self.track_data:
            self._store_data(inode, offset, data)

    def _store_data(self, inode: Inode, offset: int, data: bytes) -> None:
        """Make *data* durable at byte *offset* of *inode*'s blocks.

        One store per physical run — cut at block boundaries when the
        device logs stores, so crash states tear at the granularity the
        crash explorer enumerates — each written back, then the one
        ``sfence`` that lets the write be acknowledged.  Costs are the
        caller's: this moves bytes only.
        """
        device = self.device
        bs = self.block_size
        per_block = device.track_stores
        nbytes = len(data)
        first = offset // bs
        within = offset % bs
        pos = 0
        for ext in inode.extents.slice_logical(
                first, (offset + nbytes - 1) // bs - first + 1):
            addr = ext.start * bs + within
            run_end = pos + min(ext.length * bs - within, nbytes - pos)
            while pos < run_end:
                take = min(bs - addr % bs, run_end - pos) if per_block \
                    else run_end - pos
                device.store(addr, data[pos:pos + take])
                device.clwb(addr, take)
                pos += take
                addr += take
            within = 0
        device.sfence()

    def _store_extents(self, extents: List[Extent], data: bytes) -> None:
        """Fill freshly allocated *extents* with *data*, durably (the
        copy half of copy-on-write: no reader can see these blocks until
        the extent map swings over to them)."""
        bs = self.block_size
        pos = 0
        for ext in extents:
            take = ext.length * bs
            self.device.store(ext.start * bs, bytes(data[pos:pos + take]))
            self.device.clwb(ext.start * bs, take)
            pos += take
        self.device.sfence()

    def _read_blocks(self, inode: Inode, first_block: int,
                     nblocks: int) -> bytes:
        """Raw content of *nblocks* logical blocks (no charge)."""
        return b"".join([
            self.device.load(ext.start * self.block_size,
                             ext.length * self.block_size)
            for ext in inode.extents.slice_logical(first_block, nblocks)])

    def read(self, ino: int, offset: int, size: int, ctx: SimContext) -> bytes:
        self._check_mounted()
        with ctx.trace.span(ctx, "vfs.read", fs=self.name, ino=ino,
                            size=size):
            self._syscall(ctx)
            if offset < 0 or size < 0:
                raise InvalidArgumentError("negative offset/size")
            inode = self._inode_for_data(ino)
            if offset >= inode.size:
                return b""
            size = min(size, inode.size - offset)
            if size == 0:
                return b""
            ctx.charge(self.machine.pm_load_ns +
                       self.machine.pm_read_ns(size))
            ctx.counters.pm_bytes_read += size
            if not self.track_data:
                return zero_bytes(size)
            end = offset + size
            # the allocation boundary is block-aligned, so bytes before it
            # come from extents (batched per physical run) and bytes after
            # it are one zero-filled hole
            allocated_bytes = inode.extents.total_blocks * self.block_size
            read_end = min(end, max(offset, allocated_bytes))
            chunks: List[bytes] = []
            if offset < read_end:
                first_block = offset // self.block_size
                last_block = (read_end - 1) // self.block_size
                within = offset % self.block_size
                pos = offset
                for ext in inode.extents.slice_logical(
                        first_block, last_block - first_block + 1):
                    take = min(ext.length * self.block_size - within,
                               read_end - pos)
                    chunks.append(self.device.load(
                        ext.start * self.block_size + within, take))
                    pos += take
                    within = 0
            if end > read_end:
                chunks.append(zero_bytes(end - read_end))
            return b"".join(chunks)

    def write(self, ino: int, offset: int, data: bytes, ctx: SimContext) -> int:
        self._check_mounted()
        self._check_writable()
        with ctx.trace.span(ctx, "vfs.write", fs=self.name, ino=ino,
                            size=len(data)):
            self._syscall(ctx)
            if offset < 0:
                raise InvalidArgumentError("negative offset")
            if not data:
                return 0
            length = len(data)
            if offset + length > self.max_file_size:
                raise InvalidArgumentError("past the maximum file size")
            inode = self._inode_for_data(ino)
            lock = self._ino_lock(ino)
            ctx.locks.acquire(lock, ctx.cpu)
            try:
                grows = offset + length > inode.size
                self._ensure_blocks(inode, offset + length, ctx)
                self._write_data(inode, offset, data, ctx)
                inode.written_hwm = max(inode.written_hwm, offset + length)
                if grows:
                    with self._meta_txn(ctx, entries=2, ino=ino):
                        inode.size = offset + length
                        self._persist_inode(inode, ctx)
            finally:
                ctx.locks.release(lock, ctx.cpu)
            return length

    def write_zeros(self, ino: int, offset: int, length: int,
                    ctx: SimContext) -> int:
        """:meth:`write` of *length* zero bytes without materializing the
        payload (aging churn and zero-fill benches)."""
        if length <= 0:
            return 0
        if self.track_data:
            return self.write(ino, offset, zero_bytes(length), ctx)
        return self.write(ino, offset, Zeros(length), ctx)

    def truncate(self, ino: int, size: int, ctx: SimContext) -> None:
        self._check_mounted()
        self._check_writable()
        with ctx.trace.span(ctx, "vfs.truncate", fs=self.name, ino=ino,
                            size=size):
            self._syscall(ctx)
            if not 0 <= size <= self.max_file_size:
                raise InvalidArgumentError(f"size {size} out of range")
            inode = self._inode_for_data(ino)
            ctx.locks.acquire(self._ino_lock(ino), ctx.cpu)
            try:
                with self._meta_txn(ctx, entries=3, ino=ino):
                    if size < inode.size:
                        keep = (size + self.block_size - 1) // self.block_size
                        freed = inode.extents.truncate_blocks(keep)
                        if freed:
                            self._free_at_commit(freed, ctx)
                    # growing truncate leaves a hole: no allocation (sparse),
                    # the LMDB pattern -- blocks appear on demand at fault time
                    inode.size = size
                    self._persist_inode(inode, ctx)
            finally:
                ctx.locks.release(self._ino_lock(ino), ctx.cpu)

    def fallocate(self, ino: int, offset: int, size: int, ctx: SimContext) -> None:
        self._check_mounted()
        self._check_writable()
        with ctx.trace.span(ctx, "vfs.fallocate", fs=self.name, ino=ino,
                            size=size):
            self._syscall(ctx)
            if offset < 0 or size <= 0 \
                    or offset + size > self.max_file_size:
                raise InvalidArgumentError("bad fallocate range")
            inode = self._inode_for_data(ino)
            lock = self._ino_lock(ino)
            ctx.locks.acquire(lock, ctx.cpu)
            try:
                with self._meta_txn(ctx, entries=2, ino=ino):
                    self._ensure_blocks(inode, offset + size, ctx)
                    if self._zero_on_fallocate():
                        ctx.charge(self.machine.pm_write_ns(size))
                    inode.size = max(inode.size, offset + size)
                    self._persist_inode(inode, ctx)
            finally:
                ctx.locks.release(lock, ctx.cpu)

    def _zero_on_fallocate(self) -> bool:
        """NOVA zeroes at fallocate; ext4-DAX zeroes at fault (§5.4)."""
        return not self.fault_zero_fill

    def fsync(self, ino: int, ctx: SimContext) -> None:
        self._check_mounted()
        with ctx.trace.span(ctx, "vfs.fsync", fs=self.name, ino=ino):
            self._syscall(ctx)
            inode = self._inode_for_data(ino)
            self._fsync_impl(inode, ctx)

    # --------------------------------------------------------------- mmap

    def mmap(self, ino: int, ctx: SimContext,
             length: Optional[int] = None) -> MappedRegion:
        self._check_mounted()
        with ctx.trace.span(ctx, "vfs.mmap", fs=self.name, ino=ino):
            self._syscall(ctx)
            inode = self._inode_for_data(ino)
            map_len = length if length is not None else inode.size
            if map_len <= 0:
                raise InvalidArgumentError("cannot mmap an empty range")
            region = _FSMappedRegion(
                fs=self, inode=inode, device=self.device, machine=self.machine,
                length=map_len, block_size=self.block_size,
                fault_zero_fill=self.fault_zero_fill,
                track_data=self.track_data)
            return region

    # --------------------------------------------------------------- metrics

    def file_extents(self, ino: int) -> ExtentList:
        inode = self._itable.get(ino)
        if inode is None:
            raise NotFoundError(f"ino {ino}")
        return inode.extents

    def _free_pools(self) -> List[FreePool]:
        """The pools holding this FS's free space (statfs, fragmentation
        metrics); empty before mkfs."""
        return self._pools

    def _free_extent_iter(self) -> Iterator[Extent]:
        """All free extents (for fragmentation metrics)."""
        for pool in self._free_pools():
            yield from pool.extents()

    def utilization(self) -> float:
        """``statfs().utilization`` without building the stats record.

        Host-side only (no simulated charges either way); the aging loop
        polls this every step.  Same int sum and float divide as the
        statfs property, so decisions branching on it are unchanged.
        """
        free = 0
        for p in self._free_pools():
            free += p.free_blocks
        return 1.0 - free / (self.total_blocks - self.meta_blocks)

    def statfs(self) -> FSStats:
        pools = self._free_pools()
        free = sum(p.free_blocks for p in pools)
        aligned_hugepages = sum(p.aligned_hugepages() for p in pools)
        aligned_blocks = aligned_hugepages * BLOCKS_PER_HUGEPAGE
        return FSStats(
            total_blocks=self.total_blocks - self.meta_blocks,
            free_blocks=free,
            block_size=self.block_size,
            files=len(self._itable),
            free_aligned_hugepages=aligned_hugepages,
            free_space_aligned_fraction=(aligned_blocks / free)
            if free else 1.0,
        )


class RunningLogFS(BaseFS):
    """A design that batches metadata in a running transaction (JBD2, the
    xfs log); the subclass names the two locks and the two constants.

    Metadata updates *join* the in-DRAM running transaction under a
    briefly held lock; ``fsync`` and unmount *force* it out as one
    stop-the-world commit.  The commit path is one serial resource, so
    concurrent fsyncs queue behind each other — the Fig 10 scalability
    ceiling of ext4-DAX, SplitFS and xfs-DAX.
    """

    #: lock and DRAM cost of joining the running transaction
    join_lock: str
    join_ns: float
    #: lock of the commit path, and bytes journaled per joined entry
    force_lock: str
    entry_bytes: int

    def __init__(self, device: PMDevice, num_cpus: int = 4,
                 track_data: Optional[bool] = None) -> None:
        super().__init__(device, num_cpus, track_data=track_data)
        self._log_pending = 0
        self.log_forces = 0

    def _meta_txn(self, ctx: SimContext, entries: int,
                  ino: Optional[int] = None) -> ContextManager:
        ctx.locks.atomic(self.join_lock, ctx.cpu, self.join_ns)
        self._log_pending += entries
        return ENTRY_ONLY_TXN

    def _force_log(self, ctx: SimContext) -> None:
        machine = self.machine
        if self._log_pending:
            nbytes = self._log_pending * self.entry_bytes \
                + BLOCK_SIZE   # descriptor + commit blocks
            ns = machine.jbd2_commit_ns + machine.persist_ns(nbytes)
            ctx.locks.atomic(self.force_lock, ctx.cpu, ns)
            ctx.counters.journal_ns += ns
            self._log_pending = 0
            self.log_forces += 1
        else:
            ctx.locks.atomic(self.force_lock, ctx.cpu,
                             machine.jbd2_commit_ns / 4)

    def _fsync_impl(self, inode: Inode, ctx: SimContext) -> None:
        self._force_log(ctx)

    def unmount(self, ctx: SimContext) -> None:
        self._force_log(ctx)
        super().unmount(ctx)


class _FSMappedRegion(MappedRegion):
    """MappedRegion wired back to its file system for on-demand allocation.

    Real DAX file systems allocate backing inside the fault handler when an
    application ftruncates a file larger than its allocation and touches
    the hole (paper §5.4, LMDB).  The FS decides the granularity: WineFS
    hands the fault an aligned hugepage, others a base block.
    """

    def __init__(self, fs: BaseFS, inode: Inode, **kwargs) -> None:
        self._fs = fs
        self._inode = inode
        self._fault_ctx: Optional[SimContext] = None
        super().__init__(extents=inode.extents, **kwargs)

    def _check_extents_cover(self) -> None:
        """Sparse mappings are legal: the fault handler allocates holes."""

    def _page_unwritten(self, virt_page: int) -> bool:
        return virt_page * BASE_PAGE >= self._inode.written_hwm

    def _first_unwritten_page(self) -> int:
        return (self._inode.written_hwm + BASE_PAGE - 1) // BASE_PAGE

    def _prefault_run_ready(self, first_page: int, last_page: int) -> bool:
        # no demand allocation: every block in the run must already exist
        return ((last_page + 1) * (BASE_PAGE // self.block_size)
                <= self.extents.total_blocks)

    def _phys_of_virt_page(self, virt_page: int) -> int:
        logical_block = virt_page * (BASE_PAGE // self.block_size)
        if logical_block >= self.extents.total_blocks:
            # demand allocation inside the fault handler
            ctx = self._fault_ctx
            self._fs.alloc_for_fault(self._inode, logical_block, ctx)
        return self.extents.physical_block(logical_block) * self.block_size

    def fault(self, virt_page: int, ctx: SimContext) -> bool:
        # WineFS's fault handler allocates an aligned extent *before*
        # deciding base-vs-huge, so demand allocation must happen first.
        self._fault_ctx = ctx
        logical_block = virt_page * (BASE_PAGE // self.block_size)
        if logical_block >= self.extents.total_blocks:
            self._fs.alloc_for_fault(self._inode, logical_block, ctx)
            if self._inode.size < self.length:
                # mmap writes past EOF extend the file (shared mapping);
                # the mmap() caller already holds the inode lock for the
                # mapping's lifetime, and taking it again here would add
                # LockManager wait accounting to every fault
                self._inode.size = min(
                    self.length, self.extents.total_blocks * self.block_size)
        return super().fault(virt_page, ctx)
