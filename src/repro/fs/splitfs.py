"""SplitFS baseline (Kadekodi et al., SOSP 2019) as characterized by the paper.

SplitFS splits the file system between a user-space library and ext4-DAX
underneath: data operations (especially appends) are served in user space
against memory-mapped staging files, and ``relink`` moves staged blocks
into the target file with an ext4 journal transaction at fsync time.

What matters for the paper's comparisons:

* appends skip the kernel (no syscall crossing) — SplitFS beats ext4-DAX
  on append-heavy workloads (Fig 6b, varmail);
* creates/deletes/fsyncs pass through to ext4-DAX and inherit the JBD2
  stop-the-world commit — SplitFS "inherits low scalability ... as it
  relies on ext4-DAX's JBD2 journal" (Fig 10, §5.5);
* the allocator is ext4's, so aged fragmentation behaviour (and hugepage
  loss) follows ext4-DAX (Table 2).
"""

from __future__ import annotations

from typing import Optional

from ..clock import SimContext
from ..pm.device import PMDevice
from .common.inode import Inode
from .ext4dax import Ext4DAX

#: user-space bookkeeping per staged append (no kernel crossing)
_STAGE_NS = 120.0


class SplitFS(Ext4DAX):
    name = "SplitFS"
    data_consistent = False

    def __init__(self, device: PMDevice, num_cpus: int = 4,
                 track_data: Optional[bool] = None) -> None:
        super().__init__(device, num_cpus, track_data=track_data)
        self._staged_bytes: dict = {}   # ino -> bytes awaiting relink
        self.relinks = 0

    def write(self, ino: int, offset: int, data: bytes, ctx: SimContext) -> int:
        self._check_mounted()
        self._check_writable()
        inode = self._inode_for_data(ino)
        if offset == inode.size and data:
            # append path: served from the user-space staging file; the
            # write lands on PM immediately but the syscall is avoided
            ctx.charge(_STAGE_NS)
            ctx.locks.acquire(self._ino_lock(ino), ctx.cpu)
            try:
                self._ensure_blocks(inode, offset + len(data), ctx)
                self._write_data(inode, offset, data, ctx)
                self._staged_bytes[ino] = self._staged_bytes.get(ino, 0) \
                    + len(data)
                inode.size = offset + len(data)
            finally:
                ctx.locks.release(self._ino_lock(ino), ctx.cpu)
            return len(data)
        return super().write(ino, offset, data, ctx)

    def _fsync_impl(self, inode: Inode, ctx: SimContext) -> None:
        staged = self._staged_bytes.pop(inode.ino, 0)
        if staged:
            # relink: an ext4 journal transaction swings the staged blocks
            # into the file — metadata only, no data copy
            with self._meta_txn(ctx, entries=4, ino=inode.ino):
                self._persist_inode(inode, ctx)
            self.relinks += 1
        self._force_log(ctx)
