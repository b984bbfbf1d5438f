"""Directory-entry indexes.

The paper distinguishes file systems by how they look up directory entries:
WineFS and NOVA keep DRAM red-black-tree indexes (§3.5: "WineFS uses
red-black trees for traversing directory entries"), while PMFS "does
sequential scanning of directory entries ... causing significant
slowdowns".  Both variants store the same name -> inode dict; they differ
only in the lookup cost charged to the simulated clock (tree depth vs
entries scanned, each a function of the entry count), which is what
limits PMFS on metadata-heavy workloads like varmail (§5.5).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional

from ...clock import SimContext

#: cost of probing one directory entry during a linear PM scan
_SCAN_ENTRY_NS = 60.0
#: cost of one RB-tree node visit in DRAM
_TREE_NODE_NS = 18.0
#: DRAM bytes per hashed directory entry (§5.7: "less than 64B per entry")
DENTRY_DRAM_BYTES = 64


class DirIndex(ABC):
    """Maps child name -> inode number for one directory."""

    def __init__(self) -> None:
        self._entries: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> List[str]:
        return sorted(self._entries)

    def items(self) -> Iterator:
        return iter(sorted(self._entries.items()))

    @abstractmethod
    def _charge_lookup(self, ctx: Optional[SimContext]) -> None: ...

    def lookup(self, name: str, ctx: Optional[SimContext] = None) -> Optional[int]:
        self._charge_lookup(ctx)
        return self._entries.get(name)

    def insert(self, name: str, ino: int, ctx: Optional[SimContext] = None) -> None:
        self._charge_lookup(ctx)
        self._entries[name] = ino

    def remove(self, name: str, ctx: Optional[SimContext] = None) -> int:
        self._charge_lookup(ctx)
        return self._entries.pop(name)

    @property
    def dram_bytes(self) -> int:
        """DRAM footprint of this index (§5.7 memory-usage accounting)."""
        return 0


class RBDirIndex(DirIndex):
    """DRAM red-black-tree index (WineFS, NOVA, ext4 htree stand-in).

    The tree is a cost model, not a structure: nothing observes its shape,
    so the mapping is the base class's dict and a lookup is charged the
    O(log n) node visits a balanced tree over the current entry count
    would cost in DRAM.
    """

    def __init__(self) -> None:
        super().__init__()
        # depth is a pure function of the entry count; cache it so lookups
        # skip the log2 while the directory's size is unchanged
        self._depth_for_size = -1
        self._depth = 1

    def _charge_lookup(self, ctx: Optional[SimContext]) -> None:
        if ctx is None:
            return
        n = len(self._entries)
        if n != self._depth_for_size:
            self._depth_for_size = n
            self._depth = max(1, int(math.log2(n + 1)) + 1)
        # inlined ctx.charge (depth * _TREE_NODE_NS >= 0, single add)
        ctx.clock._cpu_ns[ctx.cpu] += self._depth * _TREE_NODE_NS

    def lookup(self, name: str, ctx: Optional[SimContext] = None) -> Optional[int]:
        # _charge_lookup + dict probe flattened into one frame (path
        # resolution calls this once per component)
        if ctx is not None:
            n = len(self._entries)
            if n != self._depth_for_size:
                self._depth_for_size = n
                self._depth = max(1, int(math.log2(n + 1)) + 1)
            ctx.clock._cpu_ns[ctx.cpu] += self._depth * _TREE_NODE_NS
        return self._entries.get(name)

    @property
    def dram_bytes(self) -> int:
        return len(self._entries) * DENTRY_DRAM_BYTES


class LinearDirIndex(DirIndex):
    """PMFS-style linear scan of on-PM directory entries.

    Every lookup walks, on average, half the entries; inserts walk all of
    them (to find free slots / detect duplicates).  This is the documented
    PMFS bottleneck on varmail-like workloads.
    """

    def _charge_lookup(self, ctx: Optional[SimContext]) -> None:
        if ctx is None:
            return
        n = max(1, len(self._entries))
        ctx.charge((n / 2.0) * _SCAN_ENTRY_NS)

    def insert(self, name: str, ino: int, ctx: Optional[SimContext] = None) -> None:
        if ctx is not None:
            ctx.charge(len(self._entries) * _SCAN_ENTRY_NS)
        self._entries[name] = ino

    @property
    def dram_bytes(self) -> int:
        return 0   # PMFS keeps no DRAM index
