"""FreePool tests, including hypothesis invariant checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.fs.common.freespace import FreePool
from repro.params import BLOCKS_PER_HUGEPAGE
from repro.structures.extents import Extent

HP = BLOCKS_PER_HUGEPAGE


class TestBasics:
    def test_starts_whole(self):
        pool = FreePool(0, 4 * HP)
        assert pool.free_blocks == 4 * HP
        assert pool.aligned_hugepages() == 4
        assert pool.largest() == 4 * HP

    def test_alloc_reduces_free(self):
        pool = FreePool(0, 4 * HP)
        ext = pool.alloc_first_fit(100)
        assert ext is not None and ext.length == 100
        assert pool.free_blocks == 4 * HP - 100

    def test_alloc_too_big_returns_none(self):
        pool = FreePool(0, 100)
        assert pool.alloc_first_fit(200) is None

    def test_free_merges_back(self):
        pool = FreePool(0, 4 * HP)
        ext = pool.alloc_first_fit(100)
        pool.insert(ext)
        assert pool.free_blocks == 4 * HP
        assert len(pool) == 1
        assert pool.aligned_hugepages() == 4

    def test_double_free_rejected(self):
        pool = FreePool(0, 4 * HP)
        with pytest.raises(SimulationError):
            pool.insert(Extent(0, 10))

    def test_out_of_range_free_rejected(self):
        pool = FreePool(0, HP)
        with pytest.raises(SimulationError):
            pool.insert(Extent(HP, 10))


class TestPolicies:
    def test_first_fit_goal_extension(self):
        pool = FreePool(0, 4 * HP)
        first = pool.alloc_first_fit(100)
        ext = pool.alloc_first_fit(50, goal=first.end)
        assert ext.start == first.end   # contiguity honored

    def test_aligned_hugepage_alloc(self):
        pool = FreePool(0, 4 * HP)
        pool.alloc_exact(0, 3)          # misalign the head
        ext = pool.alloc_aligned_hugepage()
        assert ext.start % HP == 0
        assert ext.length == HP

    def test_aligned_alloc_exhausts(self):
        pool = FreePool(0, 2 * HP)
        assert pool.alloc_aligned_hugepage() is not None
        assert pool.alloc_aligned_hugepage() is not None
        assert pool.alloc_aligned_hugepage() is None

    def test_avoiding_aligned_prefers_holes(self):
        pool = FreePool(0, 4 * HP)
        # create an unaligned hole: allocate [0, HP+5), free [3, HP)
        pool.alloc_exact(0, HP + 5)
        pool.insert(Extent(3, HP - 3))
        runs_before = pool.aligned_hugepages()
        ext = pool.alloc_avoiding_aligned(10)
        assert ext.start == 3           # took the hole, not an aligned run
        assert pool.aligned_hugepages() == runs_before

    def test_avoiding_aligned_breaks_as_last_resort(self):
        pool = FreePool(0, 2 * HP)      # everything aligned
        runs_before = pool.aligned_hugepages()
        ext = pool.alloc_avoiding_aligned(10)
        assert ext is not None
        assert pool.aligned_hugepages() == runs_before - 1

    def test_next_fit_cursor_advances(self):
        pool = FreePool(0, 4 * HP)
        a = pool.alloc_next_fit(10)
        b = pool.alloc_next_fit(10)
        assert b.start == a.end         # marches forward, no reuse of head

    def test_next_fit_wraps(self):
        pool = FreePool(0, HP)
        a = pool.alloc_next_fit(HP - 5)
        pool.insert(a)                  # free the front again
        b = pool.alloc_next_fit(10)     # cursor at HP-5; wraps to 0
        assert b.start == 0

    def test_aligned_pref_takes_boundary(self):
        pool = FreePool(0, 4 * HP)
        pool.alloc_exact(0, 3)          # head misaligned, big run remains
        ext = pool.alloc_first_fit_aligned_pref(HP)
        assert ext.start % HP == 0

    def test_alloc_exact(self):
        pool = FreePool(0, HP)
        assert pool.alloc_exact(10, 5) == Extent(10, 5)
        assert pool.alloc_exact(10, 5) is None   # already taken


class TestInvariants:
    @given(st.lists(
        st.tuples(st.sampled_from(["ff", "hole", "aligned", "next"]),
                  st.integers(1, 600)),
        min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_random_alloc_free_cycles(self, ops):
        pool = FreePool(0, 8 * HP)
        live = []
        for i, (kind, size) in enumerate(ops):
            if i % 3 == 2 and live:
                pool.insert(live.pop(0))
            ext = None
            if kind == "ff":
                ext = pool.alloc_first_fit(size)
            elif kind == "hole":
                ext = pool.alloc_avoiding_aligned(size)
            elif kind == "next":
                ext = pool.alloc_next_fit(size)
            else:
                ext = pool.alloc_aligned_hugepage()
            if ext is not None:
                live.append(ext)
        for ext in live:
            pool.insert(ext)
        pool.check_invariants()
        assert pool.free_blocks == 8 * HP
        assert pool.aligned_hugepages() == 8

    @given(st.lists(st.integers(1, HP), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        pool = FreePool(0, 8 * HP)
        seen = set()
        for size in sizes:
            ext = pool.alloc_first_fit(size)
            if ext is None:
                continue
            blocks = set(range(ext.start, ext.end))
            assert not (blocks & seen)
            seen |= blocks
        pool.check_invariants()
