"""MMU tests: page tables, TLB, cache model, mapped regions."""

from dataclasses import replace

import pytest

from repro.clock import make_context
from repro.errors import InvalidArgumentError, SimulationError
from repro.faults import FaultPlan, FaultSpec
from repro.mmu.cache import CacheModel
from repro.mmu.mmap_region import MappedRegion
from repro.mmu.page_table import PageTable
from repro.mmu.tlb import _KEY_SHIFT, TLB
from repro.params import (BASE_PAGE, BLOCKS_PER_HUGEPAGE, DEFAULT_MACHINE,
                          HUGE_PAGE, MIB)
from repro.pm.device import PMDevice
from repro.structures.extents import Extent, ExtentList

from tests.oracles.store_log import in_flight_stores

PPH = HUGE_PAGE // BASE_PAGE


def _phys(pt, virt_addr):
    """The PM address *virt_addr* maps to in *pt*, or None: the lookup
    the region's walk makes inline."""
    virt_page = virt_addr // BASE_PAGE
    huge = pt._huge.get(virt_page // PPH)
    if huge is not None:
        return huge + virt_addr % HUGE_PAGE
    base = pt._base.get(virt_page)
    return None if base is None else base + virt_addr % BASE_PAGE


def _occupancy(tlb):
    """``(4 KiB entries, 2 MiB entries)`` held by *tlb*."""
    return len(tlb._map_4k), len(tlb._map_2m)


class TestPageTable:
    def test_base_mapping(self):
        pt = PageTable()
        pt.install_base(3, 3 * BASE_PAGE)
        assert _phys(pt, 3 * BASE_PAGE + 17) == 3 * BASE_PAGE + 17

    def test_huge_mapping_covers_512_pages(self):
        pt = PageTable()
        pt.install_huge(0, 0)
        for page in (0, 1, 511):
            assert _phys(pt, page * BASE_PAGE) == page * BASE_PAGE
        assert _phys(pt, HUGE_PAGE) is None
        assert _phys(pt, HUGE_PAGE - 1) == HUGE_PAGE - 1

    def test_huge_requires_alignment(self):
        pt = PageTable()
        with pytest.raises(SimulationError):
            pt.install_huge(3, 0)            # virtual misaligned
        with pytest.raises(SimulationError):
            pt.install_huge(0, BASE_PAGE)    # physical misaligned

    def test_double_map_rejected(self):
        pt = PageTable()
        pt.install_base(0, 0)
        with pytest.raises(SimulationError):
            pt.install_base(0, BASE_PAGE)
        with pytest.raises(SimulationError):
            pt.install_huge(0, HUGE_PAGE)

    @pytest.mark.parametrize("count", [1, 3])
    def test_base_run_covers_its_hugepage_range(self, count):
        pt = PageTable()
        pt.install_base_run(PPH + 5, count, 7 * BASE_PAGE)
        last = PPH + 4 + count
        assert _phys(pt, last * BASE_PAGE) == (6 + count) * BASE_PAGE
        assert _phys(pt, (last + 1) * BASE_PAGE) is None
        assert pt.covered(PPH) and not pt.covered(0)
        # even a one-page run keeps a huge mapping off its range
        with pytest.raises(SimulationError):
            pt.install_huge(PPH, HUGE_PAGE)

    def test_hugepage_fraction(self):
        pt = PageTable()
        pt.install_huge(0, 0)
        pt.install_base(512, HUGE_PAGE + 0)
        assert pt.hugepage_fraction(1024) == 0.5


class TestTLB:
    def test_hit_after_install(self):
        tlb = TLB(entries_4k=4, entries_2m=4)
        assert not tlb.access(1, 0, huge=False)   # cold miss
        assert tlb.access(1, 0, huge=False)       # now hits

    def test_lru_eviction(self):
        tlb = TLB(entries_4k=2, entries_2m=2)
        tlb.access(1, 0, False)
        tlb.access(1, 1, False)
        tlb.access(1, 2, False)   # evicts page 0
        assert not tlb.access(1, 0, False)

    def test_sizes_are_separate(self):
        tlb = TLB(entries_4k=1, entries_2m=1)
        tlb.access(1, 0, False)
        tlb.access(1, 0, True)
        assert tlb.access(1, 0, False)
        assert tlb.access(1, 0, True)

    def test_invalidate_region(self):
        tlb = TLB(4, 4)
        tlb.access(1, 0, False)
        tlb.access(2, 0, False)
        dropped = tlb.invalidate_region(1)
        assert dropped == 1
        assert not tlb.access(1, 0, False)
        assert tlb.access(2, 0, False)

    def test_access_run_counts_like_access(self):
        tlb = TLB(2, 2)
        tlb.access(1, 1, False)
        # page 1 hits; pages 0 and 2 miss, and page 2 evicts page 0,
        # the least recently used once page 1 was promoted
        assert tlb.access_run(1, 0, 3, False) == (1, 2)
        assert _occupancy(tlb) == (2, 0)
        assert tlb.access(1, 1, False)
        assert not tlb.access(1, 0, False)


class TestCacheModel:
    def test_small_hot_set_hits(self):
        cache = CacheModel(DEFAULT_MACHINE, hot_set_bytes=1024, seed=1)
        hits = sum(cache.access_hot_line() for _ in range(100))
        assert hits == 100

    def test_pollution_causes_misses(self):
        cache = CacheModel(DEFAULT_MACHINE, hot_set_bytes=1024, seed=1)
        misses = 0
        for _ in range(200):
            cache.pollute()
            if not cache.access_hot_line():
                misses += 1
        assert misses > 100   # pte_pollution = 0.9

    def test_latencies(self):
        cache = CacheModel(DEFAULT_MACHINE, hot_set_bytes=0, seed=0)
        assert cache.access_latency_ns(True) == DEFAULT_MACHINE.llc_hit_ns
        assert cache.access_latency_ns(False) == DEFAULT_MACHINE.pm_load_ns


def _region(extent_start_blocks, length=4 * MIB, track_data=True,
            zero_fill=False):
    dev = PMDevice(64 * MIB)
    extents = ExtentList([Extent(s, n) for s, n in extent_start_blocks])
    return MappedRegion(dev, DEFAULT_MACHINE, extents, length, 4096,
                        fault_zero_fill=zero_fill, track_data=track_data)


class TestMappedRegion:
    def test_aligned_extent_maps_huge(self):
        region = _region([(0, 2 * BLOCKS_PER_HUGEPAGE)])
        ctx = make_context(1)
        region.prefault(ctx)
        assert ctx.counters.page_faults_2m == 2
        assert ctx.counters.page_faults_4k == 0
        assert region.hugepage_fraction == 1.0

    def test_misaligned_extent_maps_base(self):
        region = _region([(1, 2 * BLOCKS_PER_HUGEPAGE)])
        ctx = make_context(1)
        region.prefault(ctx)
        assert ctx.counters.page_faults_2m == 0
        assert ctx.counters.page_faults_4k == 1024

    def test_fragmented_extents_map_base(self):
        half = BLOCKS_PER_HUGEPAGE // 2
        region = _region([(0, half), (BLOCKS_PER_HUGEPAGE, half),
                          (3 * BLOCKS_PER_HUGEPAGE, BLOCKS_PER_HUGEPAGE)],
                         length=2 * MIB)
        ctx = make_context(1)
        region.prefault(ctx)
        assert ctx.counters.page_faults_2m == 0

    def test_write_then_read_roundtrip(self):
        region = _region([(0, BLOCKS_PER_HUGEPAGE)], length=2 * MIB)
        ctx = make_context(1)
        region.write(100, b"payload", ctx)
        assert region.read(100, 7, ctx) == b"payload"

    def test_write_spanning_extents(self):
        region = _region([(0, 1), (10, 1)], length=8192)
        ctx = make_context(1)
        data = bytes(range(100)) * 50   # 5000 bytes, crosses the boundary
        region.write(2000, data, ctx)
        assert region.read(2000, len(data), ctx) == data

    def test_faults_only_once(self):
        region = _region([(0, BLOCKS_PER_HUGEPAGE)], length=2 * MIB)
        ctx = make_context(1)
        region.read(0, 4096, ctx)
        faults = ctx.counters.page_faults
        region.read(0, 4096, ctx)
        assert ctx.counters.page_faults == faults

    def test_out_of_range_rejected(self):
        region = _region([(0, BLOCKS_PER_HUGEPAGE)], length=2 * MIB)
        ctx = make_context(1)
        with pytest.raises(InvalidArgumentError):
            region.read(2 * MIB - 2, 4, ctx)

    def test_zero_fill_charged_for_unwritten(self):
        ctx_zero = make_context(1)
        region = _region([(0, BLOCKS_PER_HUGEPAGE)], length=2 * MIB,
                         zero_fill=True)
        region.prefault(ctx_zero)
        ctx_plain = make_context(1)
        region2 = _region([(0, BLOCKS_PER_HUGEPAGE)], length=2 * MIB,
                          zero_fill=False)
        region2.prefault(ctx_plain)
        assert ctx_zero.now > ctx_plain.now

    def test_unmap_invalidates_tlb(self):
        region = _region([(0, BLOCKS_PER_HUGEPAGE)], length=2 * MIB)
        ctx = make_context(1)
        region.read(0, 4096, ctx)
        assert region.unmap() >= 1
        assert _phys(region.page_table, 0) is None

    def test_unmap_of_an_untouched_region_drops_nothing(self):
        assert _region([(0, BLOCKS_PER_HUGEPAGE)], length=2 * MIB).unmap() == 0

    def test_read_element_returns_latency(self):
        region = _region([(0, BLOCKS_PER_HUGEPAGE)], length=2 * MIB)
        ctx = make_context(1)
        region.prefault(ctx)
        lat = region.read_element(64, ctx)
        assert lat > 0


def _entries(tlb, region):
    """Entries of *region* in *tlb*, both sizes."""
    return [key for table in (tlb._map_4k, tlb._map_2m) for key in table
            if key >> _KEY_SHIFT == region.region_id]


class TestPerCpuTLB:
    """One TLB per simulated CPU, held by the clock and shared by every
    mapping touched on that CPU."""

    def test_one_mapping_misses_once_on_each_cpus_tlb(self):
        region = _region([(1, BLOCKS_PER_HUGEPAGE)], length=2 * MIB)
        ctx = make_context(2)
        other = ctx.on_cpu(1)
        for view in (ctx, other, ctx, other):
            region.read(0, 64, view)
        counters = ctx.counters
        assert (counters.page_faults, counters.tlb_misses,
                counters.tlb_hits) == (1, 2, 2)
        assert [_occupancy(tlb) for tlb in ctx.clock.tlbs] == [(1, 0)] * 2
        assert other.clock.tlbs is ctx.clock.tlbs

    def test_mappings_on_one_cpu_share_its_capacity(self):
        machine = replace(DEFAULT_MACHINE, tlb_4k_entries=2)
        dev = PMDevice(64 * MIB)
        a, b = (MappedRegion(dev, machine, ExtentList([Extent(start, 2)]),
                             2 * BASE_PAGE, 4096) for start in (1, 3))
        ctx = make_context(1)
        for region in (a, b, a):
            region.read(0, 2 * BASE_PAGE, ctx)
        # a private TLB per mapping would have hit on a's second pass
        assert (ctx.counters.tlb_misses, ctx.counters.tlb_hits) == (6, 0)
        assert _occupancy(ctx.clock.tlbs[0]) == (2, 0)

    def test_unmap_leaves_no_entry_of_the_region_on_any_cpu(self):
        huge = _region([(0, BLOCKS_PER_HUGEPAGE)], length=2 * MIB)
        base = _region([(BLOCKS_PER_HUGEPAGE + 1, 4)], length=4 * BASE_PAGE)
        ctx = make_context(3)
        for cpu in (0, 1):
            huge.read(0, 64, ctx.on_cpu(cpu))
            base.read(0, 4 * BASE_PAGE, ctx.on_cpu(cpu))
        tlbs = ctx.clock.tlbs
        assert tlbs[2] is None
        assert base.unmap() == 8
        assert not any(_entries(tlb, base) for tlb in tlbs[:2])
        assert [len(_entries(tlb, huge)) for tlb in tlbs[:2]] == [1, 1]
        assert huge.unmap() == 2
        assert [_occupancy(tlb) for tlb in tlbs[:2]] == [(0, 0)] * 2

    def test_part_miss_rate_is_its_counters_ratio(self):
        from repro.harness import fresh_fs
        from repro.workloads import run_part_lookups

        fs, ctx = fresh_fs("ext4-DAX", size_gib=0.125)
        counters = ctx.counters
        hits, misses = counters.tlb_hits, counters.tlb_misses
        result = run_part_lookups(fs, ctx, lookups=3000, pool_bytes=16 * MIB,
                                  hot_keys=2000, seed=5)
        hits = counters.tlb_hits - hits
        misses = counters.tlb_misses - misses
        assert hits + misses == 3000 and hits and misses
        assert result.tlb_miss_rate == misses / (hits + misses)


def _logging(dev):
    """Record every device store as (addr, bytes) in call order."""
    log = []
    store = dev.store

    def logged(addr, data, ctx=None):
        log.append((addr, bytes(data)))
        return store(addr, data, ctx)
    dev.store = logged
    return log


class TestGatheredWrite:
    """``MappedRegion.write`` of a tuple of parts: charged as the joined
    write; parts reach an untracked device as the caller's objects."""

    HEAD = b"h" * 40
    BODY = bytes(i % 251 for i in range(3 * BASE_PAGE + 123))
    TAIL = bytes(5) + b"trailer!"
    OFFSET = 2 * BASE_PAGE + 8

    def _write(self, extents, gathered, track_stores=False, faults=False):
        dev = PMDevice(64 * MIB, track_stores=track_stores)
        if faults:
            dev.set_fault_plan(FaultPlan(7, [FaultSpec(
                "latency", at_op=0, count=2, latency_mult=3.0)]))
        region = MappedRegion(dev, DEFAULT_MACHINE, ExtentList(
            [Extent(s, n) for s, n in extents]), 2 * MIB, 4096)
        log = _logging(dev)
        ctx = make_context(1)
        parts = (self.HEAD, self.BODY, self.TAIL)
        region.write(self.OFFSET, parts if gathered else b"".join(parts),
                     ctx)
        return dev, region, ctx, log

    def _same_charges(self, a, b):
        (_, _, ctx_a, _), (_, _, ctx_b, _) = a, b
        assert repr(ctx_a.clock.snapshot()) == repr(ctx_b.clock.snapshot())
        assert ctx_a.counters.as_dict() == ctx_b.counters.as_dict()

    @pytest.mark.parametrize("extents", [[(0, BLOCKS_PER_HUGEPAGE)],
                                         [(0, 3), (700, 509)]],
                             ids=["one-run", "two-runs"])
    def test_tracked_device_sees_the_joined_write(self, extents):
        joined = self._write(extents, False, track_stores=True)
        gathered = self._write(extents, True, track_stores=True)
        self._same_charges(joined, gathered)
        assert gathered[3] == joined[3]             # the same store log
        assert in_flight_stores(gathered[0]) == []
        assert gathered[0].crash_image().load(0, 4 * MIB) \
            == joined[0].crash_image().load(0, 4 * MIB)

    def test_fault_plan_sees_the_joined_write(self):
        joined = self._write([(0, BLOCKS_PER_HUGEPAGE)], False, faults=True)
        gathered = self._write([(0, BLOCKS_PER_HUGEPAGE)], True, faults=True)
        self._same_charges(joined, gathered)
        assert gathered[3] == joined[3]
        assert gathered[0].faults.device_ops == joined[0].faults.device_ops

    @pytest.mark.parametrize("extents", [[(0, BLOCKS_PER_HUGEPAGE)],
                                         [(0, 3), (700, 509)]],
                             ids=["one-run", "two-runs"])
    def test_untracked_device_holds_the_callers_payload(self, extents):
        joined = self._write(extents, False)
        dev, region, ctx, log = self._write(extents, True)
        self._same_charges(joined, (dev, region, ctx, log))
        start = self.OFFSET + len(self.HEAD)
        got = region.read(start, len(self.BODY), ctx)
        assert got == self.BODY
        whole = self.HEAD + self.BODY + self.TAIL
        assert region.read(self.OFFSET, len(whole), ctx) == whole
        # one physical run: the parts are stored as given, so the payload
        # pages reference the caller's object and read back as it
        assert (got is self.BODY) == (len(extents) == 1)
        assert (len(log) == 3) == (len(extents) == 1)
