"""Extent and ExtentList tests, including hypothesis property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.params import BLOCKS_PER_HUGEPAGE
from repro.structures.extents import (Extent, ExtentList, align_down,
                                      align_up, is_aligned_extent)

HP = BLOCKS_PER_HUGEPAGE


class TestAlignHelpers:
    def test_align_down(self):
        assert align_down(0) == 0
        assert align_down(HP - 1) == 0
        assert align_down(HP) == HP
        assert align_down(HP + 1) == HP

    def test_align_up(self):
        assert align_up(0) == 0
        assert align_up(1) == HP
        assert align_up(HP) == HP

    def test_is_aligned_extent(self):
        assert is_aligned_extent(0, HP)
        assert is_aligned_extent(HP, HP + 3)
        assert not is_aligned_extent(1, HP)
        assert not is_aligned_extent(0, HP - 1)


class TestExtent:
    def test_basic_fields(self):
        e = Extent(10, 5)
        assert e.end == 15

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Extent(-1, 5)
        with pytest.raises(ValueError):
            Extent(0, 0)

    def test_take_from_front_and_back(self):
        taken, rest = Extent(0, 10).take(3)
        assert taken == Extent(0, 3) and rest == Extent(3, 7)
        taken, rest = Extent(0, 10).take(3, from_end=True)
        assert taken == Extent(7, 3) and rest == Extent(0, 7)

    def test_take_all(self):
        taken, rest = Extent(0, 10).take(10)
        assert taken == Extent(0, 10) and rest is None


class TestExtentList:
    def test_append_coalesces(self):
        el = ExtentList()
        el.append(Extent(0, 5))
        el.append(Extent(5, 5))
        assert len(el) == 1
        assert el.total_blocks == 10

    def test_append_non_adjacent(self):
        el = ExtentList([Extent(0, 5), Extent(10, 5)])
        assert len(el) == 2

    def test_physical_block_mapping(self):
        el = ExtentList([Extent(100, 3), Extent(200, 2)])
        assert el.physical_block(0) == 100
        assert el.physical_block(2) == 102
        assert el.physical_block(3) == 200
        assert el.physical_block(4) == 201
        with pytest.raises(IndexError):
            el.physical_block(5)

    def test_slice_logical(self):
        el = ExtentList([Extent(100, 3), Extent(200, 2)])
        assert el.slice_logical(1, 3) == [Extent(101, 2), Extent(200, 1)]
        with pytest.raises(IndexError):
            el.slice_logical(3, 5)

    def test_truncate_blocks(self):
        el = ExtentList([Extent(100, 3), Extent(200, 2)])
        freed = el.truncate_blocks(2)
        assert freed == [Extent(102, 1), Extent(200, 2)]
        assert el.total_blocks == 2

    def test_truncate_noop(self):
        el = ExtentList([Extent(0, 2)])
        assert el.truncate_blocks(5) == []
        assert el.total_blocks == 2

    def test_replace_logical_middle(self):
        el = ExtentList([Extent(100, 10)])
        old = el.replace_logical(3, [Extent(500, 4)])
        assert old == [Extent(103, 4)]
        assert el.physical_block(2) == 102
        assert el.physical_block(3) == 500
        assert el.physical_block(6) == 503
        assert el.physical_block(7) == 107
        assert el.total_blocks == 10

    def test_replace_logical_spanning_extents(self):
        el = ExtentList([Extent(100, 4), Extent(200, 4)])
        old = el.replace_logical(2, [Extent(500, 4)])
        assert old == [Extent(102, 2), Extent(200, 2)]
        assert el.physical_block(1) == 101
        assert el.physical_block(2) == 500
        assert el.physical_block(5) == 503
        assert el.physical_block(6) == 202

    def test_mappable_hugepages_aligned(self):
        el = ExtentList([Extent(0, 2 * HP)])
        assert el.mappable_hugepages() == 2
        assert el.fragmentation_score() == 0.0

    def test_mappable_hugepages_misaligned(self):
        el = ExtentList([Extent(1, 2 * HP)])
        # physically aligned boundary exists inside, but logical offset
        # does not coincide -> nothing is mappable
        assert el.mappable_hugepages() == 0
        assert el.fragmentation_score() == 1.0

    def test_mappable_small_file_not_fragmented(self):
        el = ExtentList([Extent(3, 10)])
        assert el.fragmentation_score() == 0.0   # too small to matter

    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 600)),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_physical_block_consistent_with_slices(self, raw):
        # build non-overlapping extents by spacing them out
        extents = []
        base = 0
        for start, length in raw:
            extents.append(Extent(base + start, length))
            base += start + length + 1
        el = ExtentList(extents)
        total = el.total_blocks
        for logical in range(0, total, max(1, total // 10)):
            expected = el.physical_block(logical)
            got = el.slice_logical(logical, 1)
            assert got == [Extent(expected, 1)]
