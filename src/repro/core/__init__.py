"""WineFS: the paper's contribution.

A hugepage-aware PM file system (SOSP 2021) built from:

* an **alignment-aware allocator** (:class:`~repro.core.filesystem.WineFS`'s
  ``_pool_order`` / ``_pick``): per-CPU pools of aligned 2MB extents and
  unaligned holes; hugepage-sized requests get aligned extents, small
  requests fill holes;
* **per-CPU undo journals** with 64B cacheline entries
  (:mod:`repro.core.journal`) coordinated through VFS inode locks;
* **hybrid data atomicity**: data journaling for aligned extents (layout
  preserved), copy-on-write into fresh holes for unaligned extents;
* **DRAM indexes** for directories and free lists;
* **crash recovery** that rolls back uncommitted transactions across the
  per-CPU journals in global-transaction-ID order and rebuilds DRAM state
  by scanning per-CPU inode tables (``WineFS.mount``);
* **reactive rewriting** of fragmented mmap'ed files
  (:mod:`repro.core.rewrite`) and **alignment xattrs**.

The paper's socket-awareness (§3.6, a home socket for each process's
writes) is not modelled: its §5.1 evaluation runs on one socket with it
disabled, and no experiment here measures it.
"""

from .filesystem import WineFS
from .journal import PerCPUJournal, JournalManager

__all__ = ["WineFS", "PerCPUJournal", "JournalManager"]
