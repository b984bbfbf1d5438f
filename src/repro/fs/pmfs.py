"""PMFS baseline (Dulloor et al., EuroSys 2014) as characterized by the paper.

Decisive properties:

* **single fine-grained undo journal**: metadata transactions persist 64B
  entries under one brief global lock.  The hold time is one entry
  persist, so PMFS still scales reasonably on Fig 10's workload (§5.6:
  "PMFS scales well due to its fine-grained journaling"), unlike JBD2's
  stop-the-world commits.
* **no DRAM indexes**: directory lookups scan entries linearly on PM,
  the metadata-heavy-workload bottleneck of §5.5 (varmail).
* **no alignment awareness at all**: the allocator carves first-fit from a
  data area that starts just past an (unaligned) metadata region, so PMFS
  "does not get hugepages even in a clean file system setup" (§5.4 LMDB,
  footnote 1).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from ..clock import SimContext
from ..structures.extents import Extent
from .common.base import BaseFS
from .common.dirindex import LinearDirIndex
from .common.freespace import FreePool

_JOURNAL_ENTRY_BYTES = 64


class PMFS(BaseFS):
    name = "PMFS"
    data_consistent = False
    fault_zero_fill = False
    dir_index_cls = LinearDirIndex
    alloc_ns = 60.0

    def _metadata_blocks(self) -> int:
        # deliberately NOT rounded to a hugepage boundary: PMFS's data area
        # starts misaligned, so no allocation is ever hugepage-aligned
        return 2049

    def _pick(self, pools: List[FreePool], remaining: int,
              goal: Optional[int], nblocks: int,
              want_aligned: bool) -> Optional[Extent]:
        return pools[0].alloc_first_fit(remaining)

    @contextmanager
    def _meta_txn(self, ctx: SimContext, entries: int,
                  ino: Optional[int] = None) -> Iterator[None]:
        # one global journal, but only the tail *reservation* serializes
        # (an atomic fetch-add); the entry persists happen outside the
        # critical section — fine-grained journaling is why PMFS still
        # scales on Fig 10's workload (§5.6)
        ctx.locks.atomic("pmfs-journal", ctx.cpu, 30.0)  # tail fetch-add
        ns = self.machine.persist_ns(entries * _JOURNAL_ENTRY_BYTES)
        ctx.charge(ns)
        ctx.counters.journal_ns += ns
        try:
            yield
        finally:
            ctx.charge(self.machine.persist_ns(_JOURNAL_ENTRY_BYTES))
