"""Reactive rewriting of fragmented memory-mapped files (paper §3.6).

If WineFS finds at mmap time that a file is fragmented (it cannot be mapped
with hugepages), the file is queued; a background thread later reads it and
rewrites it with big (aligned) allocations, then uses a journal transaction
to atomically swap the old blocks for the new ones.  The paper notes this
is rare — applications using mmap usually make occasional large
allocations — but it exists as a safety net for files written with small
allocations and mapped later.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

from ..clock import SimContext
from ..errors import NoSpaceError
from ..params import BLOCKS_PER_HUGEPAGE
from ..structures.extents import ExtentList

if TYPE_CHECKING:
    from .filesystem import WineFS


class RewriteQueue:
    """Queue of fragmented inodes plus the 'background thread' drain.

    There is no real thread: :meth:`run_pending` is invoked explicitly (by
    tests, benches, or the FS after mmap) and charges its work to the
    background CPU context it is given, which is exactly how the simulated
    timeline accounts for background bandwidth theft (§4's defragmentation
    discussion).
    """

    def __init__(self, fs: "WineFS") -> None:
        self._fs = fs
        self._pending: List[int] = []
        self._queued: Set[int] = set()
        self.rewrites_done = 0

    def __len__(self) -> int:
        return len(self._pending)

    def note_fragmented(self, ino: int) -> None:
        if ino not in self._queued:
            self._queued.add(ino)
            self._pending.append(ino)

    def run_pending(self, ctx: SimContext, limit: int = None) -> int:
        """Rewrite up to *limit* queued files; returns how many were done."""
        done = 0
        while self._pending and (limit is None or done < limit):
            ino = self._pending.pop(0)
            self._queued.discard(ino)
            if self._rewrite(ino, ctx):
                done += 1
                self.rewrites_done += 1
        return done

    def _rewrite(self, ino: int, ctx: SimContext) -> bool:
        fs = self._fs
        inode = fs._itable.get(ino)
        if inode is None or inode.is_dir:
            return False                      # unlinked while queued
        nblocks = inode.extents.total_blocks
        if nblocks < BLOCKS_PER_HUGEPAGE:
            return False                      # too small to matter
        if inode.extents.mappable_hugepages() * BLOCKS_PER_HUGEPAGE >= \
                nblocks - nblocks % BLOCKS_PER_HUGEPAGE:
            return False                      # already fully mappable
        # a degraded mount takes no writes: EROFS before anything moves
        fs._check_writable()
        # read the file, rewrite with big allocations, atomically swap
        try:
            new_extents = fs._alloc(nblocks, ctx, want_aligned=True)
        except NoSpaceError:
            return False                      # no aligned space; give up
        new = ExtentList(new_extents)
        if new.mappable_hugepages() <= inode.extents.mappable_hugepages():
            # no aligned extent was left: the allocation fell through to
            # holes and would map no more hugepages than the file has now
            fs._free(new_extents, ctx)
            return False
        # background read of old data + write of new copy
        nbytes = nblocks * fs.block_size
        ctx.charge(fs.machine.pm_read_ns(nbytes) + fs.machine.pm_write_ns(nbytes))
        ctx.counters.pm_bytes_read += nbytes
        ctx.counters.pm_bytes_written += nbytes
        if fs.track_data:
            fs._store_extents(new_extents, fs._read_blocks(inode, 0, nblocks))
        # §3.6: "A journal transaction is used to atomically delete the old
        # file and point the directory entry to the new file."
        old = list(inode.extents)
        with fs._meta_txn(ctx, entries=4):
            inode.extents = new
            inode.aligned_hint = True
            fs._persist_inode(inode, ctx)
        fs._free(old, ctx)
        return True
