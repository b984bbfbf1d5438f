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
  (:mod:`repro.core.rewrite`) and **alignment xattrs**;
* a **NUMA policy** that keeps writes on a process's home node
  (:mod:`repro.core.numa_policy`).
"""

from .filesystem import WineFS
from .journal import PerCPUJournal, JournalManager
from .numa_policy import NumaPolicy

__all__ = ["WineFS", "PerCPUJournal", "JournalManager", "NumaPolicy"]
