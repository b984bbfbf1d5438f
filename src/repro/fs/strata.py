"""Strata baseline (Kwon et al., SOSP 2017) as characterized by the paper.

Strata is a cross-media file system whose PM tier works log-first: each
process appends data and metadata to a private on-PM log (fast, sequential,
immediately durable — so fsync is nearly free), and a digestion step later
copies committed data into the shared PM area.

What matters for the paper's comparisons:

* writes are cheap up front but pay "expensive data copies from its
  per-process logs to the shared PM region for making data visible to
  other processes" (Fig 6c) — we digest synchronously once the private log
  exceeds a threshold, charging the copy;
* the private logs occupy dedicated PM regions and digested data is
  allocated first-fit with no alignment awareness, so Strata fragments
  free space like other log-structured designs (§2.6);
* data + metadata consistency (it sits in the strict-mode comparison
  group, §3.3).
"""

from __future__ import annotations

from typing import ContextManager, Dict, List, Optional

from ..clock import SimContext
from ..params import MIB
from ..pm.device import PMDevice
from ..structures.extents import Extent
from .common.base import ENTRY_ONLY_TXN, BaseFS
from .common.freespace import FreePool
from .common.inode import Inode

#: private log capacity before a synchronous digest is forced
_DIGEST_THRESHOLD = 4 * MIB
_LOG_ENTRY_BYTES = 64


class StrataFS(BaseFS):
    name = "Strata"
    data_consistent = True
    fault_zero_fill = False
    alloc_ns = 70.0

    def __init__(self, device: PMDevice, num_cpus: int = 4,
                 track_data: Optional[bool] = None) -> None:
        super().__init__(device, num_cpus, track_data=track_data)
        self._log_bytes: Dict[int, int] = {}   # per-CPU private log fill
        self.digests = 0
        self.digested_bytes = 0

    def _metadata_blocks(self) -> int:
        # superblock + per-process log regions (16MB each for 4 CPUs)
        return 2048 + self.num_cpus * 4096

    def _pick(self, pools: List[FreePool], remaining: int,
              goal: Optional[int], nblocks: int,
              want_aligned: bool) -> Optional[Extent]:
        return pools[0].alloc_first_fit(remaining)

    def _meta_txn(self, ctx: SimContext, entries: int,
                  ino: Optional[int] = None) -> ContextManager:
        # metadata goes to the private log: sequential 64B entries
        ns = self.machine.persist_ns(entries * _LOG_ENTRY_BYTES)
        ctx.charge(ns)
        ctx.counters.journal_ns += ns
        return ENTRY_ONLY_TXN

    def _write_data(self, inode: Inode, offset: int, data: bytes,
                    ctx: SimContext) -> None:
        # 1. append to the private log (sequential, durable immediately):
        # log record header + in-DRAM extent-index update per write, then
        # the payload itself
        ctx.charge(300.0 + self.machine.persist_ns(64))
        ctx.charge(self.machine.persist_ns(len(data)))
        ctx.counters.pm_bytes_written += len(data)
        cpu = ctx.cpu % self.num_cpus
        self._log_bytes[cpu] = self._log_bytes.get(cpu, 0) + len(data)
        # 2. write-through to the shared area so reads/mmaps see it (the
        # digestion copy; charged when the log fills)
        if self.track_data:
            self._store_data(inode, offset, data)
        if self._log_bytes[cpu] >= _DIGEST_THRESHOLD:
            self._digest(cpu, ctx)

    def _digest(self, cpu: int, ctx: SimContext) -> None:
        """Copy the private log into the shared area (read + write)."""
        nbytes = self._log_bytes.get(cpu, 0)
        if not nbytes:
            return
        ns = self.machine.pm_read_ns(nbytes) + self.machine.persist_ns(nbytes)
        ctx.charge(ns)
        ctx.counters.copy_ns += ns
        ctx.counters.pm_bytes_read += nbytes
        ctx.counters.pm_bytes_written += nbytes
        self._log_bytes[cpu] = 0
        self.digests += 1
        self.digested_bytes += nbytes

    def unmount(self, ctx: SimContext) -> None:
        # the private logs are durable already (fsync is free); what is
        # left is making them visible in the shared area
        for cpu in list(self._log_bytes):
            self._digest(cpu, ctx)
        super().unmount(ctx)
