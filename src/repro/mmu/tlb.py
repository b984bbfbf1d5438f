"""TLB model.

A fully-associative-per-size LRU TLB with separate capacity for 4KB and 2MB
entries (modern STLBs share capacity; a split model keeps the reach math
transparent).  The decisive property for the paper's results is *reach*:
1536 4KB entries cover 6MB of address space while 1024 2MB entries cover
2GB, so a large working set thrashes the 4KB TLB but fits entirely in the
2MB TLB.  It holds entries only: lookups are counted where they are
charged (``EventCounters.tlb_hits`` / ``tlb_misses``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from ..errors import SimulationError


#: entry keys pack (region_id, page_no) into one int — ``region << 48 |
#: page`` — because the lookup dicts are the hottest structures in the
#: simulator and int keys hash/compare much faster than tuples.  48 bits
#: of page number cover 2^60 bytes of mapping, far beyond any simulated
#: device.
_KEY_SHIFT = 48


class TLB:
    """LRU TLB keyed by (region id, page number, huge?)."""

    def __init__(self, entries_4k: int, entries_2m: int) -> None:
        if entries_4k < 1 or entries_2m < 1:
            raise SimulationError("TLB needs at least one entry per size")
        self._cap_4k = entries_4k
        self._cap_2m = entries_2m
        # OrderedDict, deliberately: a plain insertion-ordered dict can
        # mimic the LRU (del + reinsert, evict first key) but its
        # eviction scan walks delete tombstones and measures ~5x slower
        # under miss-dominated thrash; popitem(last=False) is O(1)
        self._map_4k: "OrderedDict[int, None]" = OrderedDict()
        self._map_2m: "OrderedDict[int, None]" = OrderedDict()

    def access(self, region_id: int, page_no: int, huge: bool) -> bool:
        """Look up a translation; returns True on hit.

        On a miss the translation is installed (the walk result), evicting
        the LRU entry if at capacity.
        """
        table = self._map_2m if huge else self._map_4k
        cap = self._cap_2m if huge else self._cap_4k
        key = (region_id << _KEY_SHIFT) | page_no
        if key in table:
            table.move_to_end(key)
            return True
        table[key] = None
        if len(table) > cap:
            table.popitem(last=False)
        return False

    def access_run(self, region_id: int, start_page: int, npages: int,
                   huge: bool) -> Tuple[int, int]:
        """*npages* sequential accesses; returns ``(hits, misses)``.

        Table updates (LRU promotion, install, eviction) happen op-for-op
        exactly as *npages* :meth:`access` calls would make them.
        """
        table = self._map_2m if huge else self._map_4k
        cap = self._cap_2m if huge else self._cap_4k
        move_to_end = table.move_to_end
        popitem = table.popitem
        hits = 0
        base_key = region_id << _KEY_SHIFT
        for page_no in range(start_page, start_page + npages):
            key = base_key | page_no
            if key in table:
                move_to_end(key)
                hits += 1
            else:
                table[key] = None
                if len(table) > cap:
                    popitem(last=False)
        return hits, npages - hits

    def invalidate_region(self, region_id: int) -> int:
        """TLB shootdown for one region; returns entries dropped."""
        dropped = 0
        for table in (self._map_4k, self._map_2m):
            stale = [k for k in table if k >> _KEY_SHIFT == region_id]
            for k in stale:
                del table[k]
            dropped += len(stale)
        return dropped

