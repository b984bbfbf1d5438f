"""The per-object free pool: the oracle the array-backed pool is held to.

:class:`ReferenceFreePool` is the original implementation that
:class:`~repro.fs.common.freespace.FreePool`'s ``RunStore`` columns
replaced, kept verbatim: the same policies over four
:class:`~tests.oracles.sortedmap.SortedMap`\\ s (start tree, run index,
two size indexes).  Both make identical allocation decisions — the
derived indexes are canonical functions of the extent set — which is what
keeps ``sim_ns`` bit-identical between them.  Only tests build it:
directly, or for a whole file system through
:func:`tests.oracles.reference_structures`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.errors import SimulationError
from repro.fs.common.freespace import FreePool
from repro.params import BLOCKS_PER_HUGEPAGE
from repro.structures.extents import Extent, align_down, align_up
from repro.structures.runstore import (START_BITS as _START_BITS,
                                       START_MASK as _START_MASK,
                                       runs_in as _runs_in)

from .sortedmap import SortedMap


def _size_key(length: int, start: int) -> int:
    return (length << _START_BITS) | start


class ReferenceFreePool(FreePool):
    """The per-object engine: four ordered maps, kept verbatim.

    This is the original implementation the array engine replaced; the
    equivalence and property-differential suites run whole workloads on
    both and require bit-identical clocks and counters.
    """

    def __init__(self, start: int, length: int) -> None:
        if length < 0:
            raise SimulationError("negative pool length")
        if start + length > _START_MASK:
            raise SimulationError("pool exceeds size-index address range")
        self.range_start = start
        self.range_end = start + length
        # ordered maps (kernel WineFS uses red-black trees; nothing here
        # observes the structure's shape, only its ordered contents)
        self._tree = SortedMap()          # start block -> length
        self._with_runs = SortedMap()     # start block -> run count (>= 1)
        self._by_size = SortedMap()       # (length, start) key -> None
        self._holes_by_size = SortedMap() # same, only runs == 0 extents
        self._total_runs = 0
        self._free_blocks = 0
        if length:
            self._add_run(start, length)

    # -- index maintenance ------------------------------------------------------

    def _add_run(self, start: int, length: int) -> None:
        self._tree.insert(start, length)
        self._by_size.insert(_size_key(length, start), None)
        runs = _runs_in(start, length)
        if runs:
            self._with_runs.insert(start, runs)
            self._total_runs += runs
        else:
            self._holes_by_size.insert(_size_key(length, start), None)
        self._free_blocks += length

    def _del_run(self, start: int, length: int) -> None:
        self._tree.remove(start)
        self._by_size.remove(_size_key(length, start))
        runs = self._with_runs.get(start)
        if runs is not None:
            self._with_runs.remove(start)
            self._total_runs -= runs
        else:
            self._holes_by_size.remove(_size_key(length, start))
        self._free_blocks -= length

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tree)

    def extents(self) -> Iterator[Extent]:
        for start, length in self._tree.items():
            yield Extent(start, length)

    @property
    def free_blocks(self) -> int:
        return self._free_blocks

    def aligned_hugepages(self) -> int:
        """Whole aligned 2MB runs currently free (Fig 3 metric)."""
        return self._total_runs

    def largest(self) -> int:
        if not self._by_size:
            return 0
        key, _ = self._by_size.max_item()
        return key >> _START_BITS

    # -- mutation -----------------------------------------------------------------

    def insert(self, extent: Extent) -> None:
        """Return an extent to the pool, merging with neighbours."""
        if extent.start < self.range_start or extent.end > self.range_end:
            raise SimulationError(f"{extent} outside pool "
                                  f"[{self.range_start}, {self.range_end})")
        start, length = extent.start, extent.length
        prev = self._tree.floor_item(start)
        if prev is not None:
            pstart, plen = prev
            if pstart + plen > start:
                raise SimulationError(f"double free: {extent} overlaps "
                                      f"({pstart}, +{plen})")
            if pstart + plen == start:
                self._del_run(pstart, plen)
                start, length = pstart, plen + length
        nxt = self._tree.ceiling_item(start + length)
        if nxt is not None:
            nstart, nlen = nxt
            if start + length > nstart:
                raise SimulationError(f"double free: {extent} overlaps "
                                      f"({nstart}, +{nlen})")
            if start + length == nstart:
                self._del_run(nstart, nlen)
                length += nlen
        self._add_run(start, length)

    def _carve(self, start: int, length: int, take_start: int,
               take_len: int) -> Extent:
        """Remove [take_start, +take_len) from the free run (start, +length)."""
        self._del_run(start, length)
        if take_start > start:
            self._add_run(start, take_start - start)
        tail = (start + length) - (take_start + take_len)
        if tail > 0:
            self._add_run(take_start + take_len, tail)
        return Extent(take_start, take_len)

    def _smallest_fitting(self, index: SortedMap, nblocks: int
                          ) -> Optional[Tuple[int, int]]:
        """(start, length) of the smallest indexed extent >= nblocks."""
        item = index.ceiling_item(_size_key(nblocks, 0))
        if item is None:
            return None
        key, _ = item
        return key & _START_MASK, key >> _START_BITS

    def alloc_first_fit(self, nblocks: int,
                        goal: Optional[int] = None) -> Optional[Extent]:
        if nblocks <= 0:
            raise SimulationError("allocation must be positive")
        if goal is not None:
            item = self._tree.floor_item(goal)
            if item is not None:
                start, length = item
                if start <= goal < start + length and \
                        (start + length) - goal >= nblocks:
                    return self._carve(start, length, goal, nblocks)
        probes = 0
        for start, length in self._tree.items():
            if length >= nblocks:
                return self._carve(start, length, start, nblocks)
            probes += 1
            if probes >= 64:
                break
        hit = self._smallest_fitting(self._by_size, nblocks)
        if hit is None:
            return None
        start, length = hit
        return self._carve(start, length, start, nblocks)

    def alloc_next_fit(self, nblocks: int) -> Optional[Extent]:
        if nblocks <= 0:
            raise SimulationError("allocation must be positive")
        cursor = getattr(self, "_cursor", self.range_start)
        for wrapped in (False, True):
            probe_from = self.range_start if wrapped else cursor
            item = self._tree.ceiling_item(probe_from)
            probes = 0
            while item is not None and probes < 64:
                start, length = item
                if length >= nblocks:
                    got = self._carve(start, length, start, nblocks)
                    self._cursor = got.end
                    return got
                item = self._tree.ceiling_item(start + length)
                probes += 1
        # bounded probing failed: best-fit fallback
        hit = self._smallest_fitting(self._by_size, nblocks)
        if hit is None:
            return None
        start, length = hit
        got = self._carve(start, length, start, nblocks)
        self._cursor = got.end
        return got

    def alloc_first_fit_aligned_pref(self, nblocks: int,
                                     goal: Optional[int] = None
                                     ) -> Optional[Extent]:
        if goal is not None:
            got = self.alloc_first_fit(nblocks, goal=goal)
            if got is not None:
                return got
        probes = 0
        for start, length in self._tree.items():
            astart = align_up(start)
            if astart + nblocks <= start + length and \
                    astart - start < BLOCKS_PER_HUGEPAGE:
                return self._carve(start, length, astart, nblocks)
            if length >= nblocks:
                return self._carve(start, length, start, nblocks)
            probes += 1
            if probes >= 64:
                break
        return self.alloc_first_fit(nblocks)

    def alloc_aligned_hugepage(self) -> Optional[Extent]:
        if not self._with_runs:
            return None
        start, _runs = self._with_runs.min_item()
        length = self._tree[start]
        astart = align_up(start)
        return self._carve(start, length, astart, BLOCKS_PER_HUGEPAGE)

    def alloc_avoiding_aligned(self, nblocks: int) -> Optional[Extent]:
        if nblocks <= 0:
            raise SimulationError("allocation must be positive")
        # pass 1: smallest pure hole that fits
        hit = self._smallest_fitting(self._holes_by_size, nblocks)
        if hit is not None:
            start, length = hit
            return self._carve(start, length, start, nblocks)
        # pass 2: unaligned slack at the edges of run-bearing extents
        for start, _runs in self._with_runs.items():
            length = self._tree[start]
            astart = align_up(start)
            head = astart - start
            if head >= nblocks:
                return self._carve(start, length, start, nblocks)
            aend = align_down(start + length)
            tail = (start + length) - aend
            if tail >= nblocks:
                return self._carve(start, length,
                                   start + length - nblocks, nblocks)
        # pass 3: break an aligned extent
        hit = self._smallest_fitting(self._by_size, nblocks)
        if hit is None:
            return None
        start, length = hit
        return self._carve(start, length, start, nblocks)

    def alloc_exact(self, start: int, nblocks: int) -> Optional[Extent]:
        item = self._tree.floor_item(start)
        if item is None:
            return None
        fstart, flen = item
        if fstart <= start and start + nblocks <= fstart + flen:
            return self._carve(fstart, flen, start, nblocks)
        return None

    def check_invariants(self) -> None:
        """Verify tree/index consistency (used by property tests)."""
        self._tree.check_invariants()
        self._by_size.check_invariants()
        total = 0
        runs = 0
        prev_end = None
        for start, length in self._tree.items():
            assert length > 0
            if prev_end is not None:
                assert start > prev_end, "adjacent extents not merged"
            prev_end = start + length
            total += length
            r = _runs_in(start, length)
            runs += r
            assert _size_key(length, start) in self._by_size, \
                "size index missing entry"
            if r:
                assert self._with_runs.get(start) == r, "run index drift"
                assert _size_key(length, start) not in self._holes_by_size
            else:
                assert start not in self._with_runs
                assert _size_key(length, start) in self._holes_by_size, \
                    "hole index missing entry"
        assert total == self.free_blocks, "free block accounting drift"
        assert runs == self._total_runs, "aligned-run index drift"
        assert len(self._by_size) == len(self._tree)
