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

The state is one :class:`~repro.structures.runstore.RunStore` of sorted
start/length columns with in-place split/merge.  The per-object pool it
replaced (four ordered maps) lives on in ``tests/oracles/`` as the oracle
the equivalence suites hold these columns to, decision for decision.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional

from ...errors import SimulationError
from ...params import BLOCKS_PER_HUGEPAGE
from ...structures.extents import Extent, align_down, align_up
from ...structures.runstore import RunStore, START_MASK as _START_MASK


class FreePool:
    """Free extents of one block range, merged eagerly."""

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
