"""Free-space pools.

A :class:`FreePool` tracks the free extents of one region of the partition
(kernel WineFS keeps them in a red-black tree, §3.6; here sorted arrays
give the same ordered contents), merging eagerly on free.  Auxiliary
size/run indexes keep allocation O(log n) under aging churn:

* a run index over extents that contain whole aligned 2MB ranges (for
  aligned allocation and the Fig 3 fragmentation metric);
* size indexes over all extents and over pure holes (extents containing
  no aligned run), for best-fit carving.

All allocators in this repro are built from FreePools; they differ only in
*policy* (what to carve, where), which is the paper's point.

Two interchangeable state engines implement the same policy code:

* :class:`FreePool` — the array-backed engine: one
  :class:`~repro.structures.runstore.RunStore` of sorted start/length
  columns with in-place split/merge (the default);
* :class:`ReferenceFreePool` — the per-object engine over four
  :class:`~repro.structures.sortedmap.SortedMap`\\ s, kept verbatim as
  the reference the equivalence suite compares against.

``FreePool(start, length)`` transparently builds the reference engine
when :func:`repro.engine.reference_state` is set, so the seven FS models
and the allocator never know which one they hold.  Both engines make
identical allocation decisions — the derived indexes are canonical
functions of the extent set — which is what keeps ``sim_ns``
bit-identical between them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional, Tuple

from ... import engine as _engine
from ...errors import SimulationError
from ...params import BLOCKS_PER_HUGEPAGE
from ...structures.extents import Extent, align_down, align_up
from ...structures.runstore import (RunStore, START_BITS as _START_BITS,
                                    START_MASK as _START_MASK, runs_in)
from ...structures.sortedmap import SortedMap


def _size_key(length: int, start: int) -> int:
    return (length << _START_BITS) | start


def _runs_in(start: int, length: int) -> int:
    """Whole aligned hugepage runs inside a free run."""
    return runs_in(start, length)


class FreePool:
    """Free extents of one block range, merged eagerly (array engine)."""

    def __new__(cls, *args, **kwargs):
        # engine dispatch happens only on real construction (the snapshot
        # codec rebuilds instances via cls.__new__(cls) with no arguments
        # and must get exactly the class the snapshot names)
        if (args or kwargs) and cls is FreePool and _engine.reference_state():
            return super().__new__(ReferenceFreePool)
        return super().__new__(cls)

    def __init__(self, start: int, length: int) -> None:
        if length < 0:
            raise SimulationError("negative pool length")
        if start + length > _START_MASK:
            raise SimulationError("pool exceeds size-index address range")
        self.range_start = start
        self.range_end = start + length
        self._rs = RunStore()
        if length:
            self._rs.add(start, length)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rs)

    def extents(self) -> Iterator[Extent]:
        for start, length in self._rs.items():
            yield Extent(start, length)

    @property
    def free_blocks(self) -> int:
        return self._rs.free_blocks

    def aligned_hugepages(self) -> int:
        """Whole aligned 2MB runs currently free (Fig 3 metric)."""
        return self._rs.total_runs

    def largest(self) -> int:
        return self._rs.largest()

    def contains_block(self, block: int) -> bool:
        rs = self._rs
        i = rs.floor_index(block)
        return i >= 0 and block < rs.starts[i] + rs.lens[i]

    # -- mutation -----------------------------------------------------------------

    def insert(self, extent: Extent) -> None:
        """Return an extent to the pool, merging with neighbours.

        Merges are in-place column writes: absorbing the freed extent
        into its predecessor is one :meth:`RunStore.reshape`, never a
        delete/re-insert pair per index.
        """
        if extent.start < self.range_start or extent.end > self.range_end:
            raise SimulationError(f"{extent} outside pool "
                                  f"[{self.range_start}, {self.range_end})")
        rs = self._rs
        starts = rs.starts
        start, length = extent.start, extent.length
        i = bisect_right(starts, start) - 1
        merge_prev = False
        if i >= 0:
            pstart = starts[i]
            plen = rs.lens[i]
            if pstart + plen > start:
                raise SimulationError(f"double free: {extent} overlaps "
                                      f"({pstart}, +{plen})")
            merge_prev = pstart + plen == start
        end = start + length
        j = bisect_left(starts, end)
        merge_next = False
        if j < len(starts):
            nstart = starts[j]
            if end > nstart:
                raise SimulationError(f"double free: {extent} overlaps "
                                      f"({nstart}, +{rs.lens[j]})")
            merge_next = end == nstart
        if merge_prev:
            if merge_next:
                nlen = rs.lens[j]
                rs.remove_at(j)
                rs.reshape(i, starts[i], rs.lens[i] + length + nlen)
            else:
                rs.reshape(i, starts[i], rs.lens[i] + length)
        elif merge_next:
            rs.reshape(j, start, length + rs.lens[j])
        else:
            rs.add(start, length)

    def _carve_at(self, i: int, take_start: int, take_len: int) -> Extent:
        """Remove [take_start, +take_len) from the free extent at column
        index *i* — in-place front/tail trims, one split for the middle."""
        rs = self._rs
        start = rs.starts[i]
        head = take_start - start
        tail = (start + rs.lens[i]) - (take_start + take_len)
        if head > 0:
            rs.reshape(i, start, head)
            if tail > 0:
                rs.add(take_start + take_len, tail)
        elif tail > 0:
            rs.reshape(i, take_start + take_len, tail)
        else:
            rs.remove_at(i)
        return Extent(take_start, take_len)

    def alloc_first_fit(self, nblocks: int,
                        goal: Optional[int] = None) -> Optional[Extent]:
        """Carve *nblocks*; try to extend at *goal* first (the
        contiguity-first policy of ext4/xfs), else best-fit by size.

        Best-fit takes from the extent's *start*, so after churn the start
        is typically unaligned — reproducing the paper's observation that
        contiguity-first allocators use misaligned extents even when
        aligned ones are available (§2.5).
        """
        if nblocks <= 0:
            raise SimulationError("allocation must be positive")
        rs = self._rs
        starts = rs.starts
        lens = rs.lens
        if goal is not None:
            i = bisect_right(starts, goal) - 1
            if i >= 0:
                start = starts[i]
                if start <= goal < start + lens[i] and \
                        (start + lens[i]) - goal >= nblocks:
                    return self._carve_at(i, goal, nblocks)
        # address-ordered first fit: small allocations carve the *front*
        # of the lowest free run — this is precisely what chops up and
        # misaligns large free runs as contiguity-first file systems age.
        # The scan is bounded; past the bound we fall back to the size
        # index (best fit), which real allocators also do via size trees.
        for i in range(min(len(starts), 64)):
            if lens[i] >= nblocks:
                return self._carve_at(i, starts[i], nblocks)
        i = rs.smallest_fitting(nblocks)
        if i is None:
            return None
        return self._carve_at(i, starts[i], nblocks)

    def alloc_next_fit(self, nblocks: int) -> Optional[Extent]:
        """Next-fit: carve from the first fitting extent at or after a
        rotating cursor, wrapping around.

        This is NOVA's per-CPU allocation behaviour (allocation resumes
        where the last one left off), and it is the classic fragmentation
        driver: small allocations (log pages, CoW blocks) march across
        the whole pool, chopping and misaligning every large free run —
        "the log-structured design of NOVA fragments free space" (§6).
        """
        if nblocks <= 0:
            raise SimulationError("allocation must be positive")
        rs = self._rs
        starts = rs.starts
        lens = rs.lens
        cursor = getattr(self, "_cursor", self.range_start)
        for wrapped in (False, True):
            probe_from = self.range_start if wrapped else cursor
            i = bisect_left(starts, probe_from)
            probes = 0
            while i < len(starts) and probes < 64:
                if lens[i] >= nblocks:
                    got = self._carve_at(i, starts[i], nblocks)
                    self._cursor = got.end
                    return got
                i += 1
                probes += 1
        # bounded probing failed: best-fit fallback
        i = rs.smallest_fitting(nblocks)
        if i is None:
            return None
        got = self._carve_at(i, starts[i], nblocks)
        self._cursor = got.end
        return got

    def alloc_first_fit_aligned_pref(self, nblocks: int,
                                     goal: Optional[int] = None
                                     ) -> Optional[Extent]:
        """First-fit, but carve from the next hugepage boundary when the
        chosen run is large enough to afford it.

        This is mballoc's behaviour for normalized large requests: ext4
        aligns power-of-2 chunks to their size boundary when the free run
        allows, which is why a *clean* ext4-DAX produces hugepage-mappable
        files (Fig 1a) — and why an aged one, carving from whatever run
        first fits, usually does not (§2.5: ext4 "ends up using only 3k"
        of the available aligned extents).
        """
        if goal is not None:
            got = self.alloc_first_fit(nblocks, goal=goal)
            if got is not None:
                return got
        rs = self._rs
        starts = rs.starts
        lens = rs.lens
        for i in range(min(len(starts), 64)):
            start = starts[i]
            length = lens[i]
            astart = align_up(start)
            if astart + nblocks <= start + length and \
                    astart - start < BLOCKS_PER_HUGEPAGE:
                return self._carve_at(i, astart, nblocks)
            if length >= nblocks:
                return self._carve_at(i, start, nblocks)
        return self.alloc_first_fit(nblocks)

    def alloc_aligned_hugepage(self) -> Optional[Extent]:
        """Carve one whole aligned 2MB extent, if any exists."""
        rs = self._rs
        if not rs.run_starts:
            return None
        start = rs.run_starts[0]
        i = rs.index_of(start)
        astart = align_up(start)
        return self._carve_at(i, astart, BLOCKS_PER_HUGEPAGE)

    def alloc_avoiding_aligned(self, nblocks: int) -> Optional[Extent]:
        """Carve *nblocks* while spending unaligned slack first.

        WineFS's hole-filling policy: small requests consume the unaligned
        holes so whole aligned hugepages survive (§3.4).  If no run-free
        extent can satisfy the request, unaligned slack at the edges of a
        run-bearing extent is used; only as a last resort is an aligned
        extent broken up (§3.4: "If required, a single aligned extent is
        broken up to satisfy small allocation requests").
        """
        if nblocks <= 0:
            raise SimulationError("allocation must be positive")
        rs = self._rs
        # pass 1: smallest pure hole that fits
        i = rs.smallest_fitting(nblocks, holes_only=True)
        if i is not None:
            return self._carve_at(i, rs.starts[i], nblocks)
        # pass 2: unaligned slack at the edges of run-bearing extents
        lens = rs.lens
        for start in rs.run_starts:
            i = rs.index_of(start)
            length = lens[i]
            astart = align_up(start)
            head = astart - start
            if head >= nblocks:
                return self._carve_at(i, start, nblocks)
            aend = align_down(start + length)
            tail = (start + length) - aend
            if tail >= nblocks:
                return self._carve_at(i, start + length - nblocks, nblocks)
        # pass 3: break an aligned extent
        i = rs.smallest_fitting(nblocks)
        if i is None:
            return None
        return self._carve_at(i, rs.starts[i], nblocks)

    def alloc_exact(self, start: int, nblocks: int) -> Optional[Extent]:
        """Carve exactly [start, +nblocks) if it is entirely free."""
        rs = self._rs
        i = rs.floor_index(start)
        if i < 0:
            return None
        if start + nblocks <= rs.starts[i] + rs.lens[i]:
            return self._carve_at(i, start, nblocks)
        return None

    def check_invariants(self) -> None:
        """Verify column/index consistency (used by property tests)."""
        self._rs.check_invariants()
        for start, length in self._rs.items():
            assert self.range_start <= start
            assert start + length <= self.range_end


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

    def contains_block(self, block: int) -> bool:
        item = self._tree.floor_item(block)
        if item is None:
            return False
        start, length = item
        return start <= block < start + length

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
