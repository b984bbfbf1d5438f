"""Batched walk vs the per-event reference walk: bit-identical results.

Production carries one MMU walk, which charges TLB events per mapping
*run*.  The per-event walk it replaced lives in ``tests/oracles/walk.py``,
and :func:`tests.oracles.reference_walk` patches it onto ``MappedRegion``
for a block.  The two must produce *exactly* the same simulated time —
bit-identical floats, not approximately equal — and the same
observability counters.  These tests run identical scenarios on both
walks and compare clock snapshots, counter dicts and the device's byte
totals.  Every scenario drives each walk entry point, and every
reference run ends in :func:`tests.oracles.assert_reference_walk`.

CI treats a skip of this module as a failure: equivalence is the safety
argument for every perf optimisation in the batched engine.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager

import pytest

from repro.clock import make_context
from repro.harness.setup import fresh_fs
from repro.mmu.mmap_region import MappedRegion
from repro.obs.export import chrome_trace
from repro.obs.trace import Tracer
from repro.params import BASE_PAGE, BLOCKS_PER_HUGEPAGE, DEFAULT_MACHINE, KIB, MIB
from repro.pm.device import PMDevice
from repro.structures.extents import Extent, ExtentList
from tests.oracles import assert_reference_walk, reference_walk


@contextmanager
def _walk(reference: bool):
    """The per-event walk when *reference* (checked on exit to have taken
    every entry point), else the production walk."""
    if not reference:
        yield
        return
    with reference_walk() as calls:
        yield
    assert_reference_walk(calls)


def _read_element_and_prefault(region, ctx, out):
    """The entry points a read-only scenario does not reach by itself:
    one dependent load, then a prefault of whatever is still unmapped."""
    out.append(region.read_element(0, ctx))
    region.prefault(ctx)


def _device_state(dev):
    """The device's byte totals and materialized store size."""
    return dev.bytes_read, dev.bytes_written, dev.materialized_bytes


def _run_region_scenario(reference: bool, seed: int, *, extent_layout,
                         track_data: bool, zero_fill: bool,
                         length: int = 4 * MIB):
    """One deterministic mixed workload against a raw MappedRegion."""
    with _walk(reference):
        dev = PMDevice(64 * MIB)
        extents = ExtentList([Extent(s, n) for s, n in extent_layout])
        region = MappedRegion(dev, DEFAULT_MACHINE, extents, length, 4096,
                              fault_zero_fill=zero_fill,
                              track_data=track_data)
        ctx = make_context(2)
        rng = random.Random(seed)
        reads = []
        # large sequential writes crossing huge/base boundaries
        for off in range(0, length, 2 * MIB):
            region.write_zeros(off, min(2 * MIB, length - off), ctx)
        # random small ops
        for _ in range(120):
            op = rng.randrange(4)
            off = rng.randrange(0, length - 64 * KIB)
            if op == 0:
                reads.append(region.read(off, rng.choice([64, 4096, 64 * KIB]),
                                         ctx))
            elif op == 1:
                region.write(off, bytes([rng.randrange(256)]) * 512, ctx)
            elif op == 2:
                reads.append(region.read_element(off & ~7, ctx))
            else:
                region.write_zeros(off, 4096, ctx)
        # a big strided read sweep (exercises the run memo)
        sweep = range(0, length - 64 * KIB, 256 * KIB)
        for off in sweep:
            reads.append(region.read(off, 64 * KIB, ctx))
        region.prefault(ctx)
        pages = region.unmap()
        # the region touched again after munmap, last span first: every
        # page faults anew, so no run the walk remembered may count
        for off in reversed(sweep):
            reads.append(region.read(off, 64 * KIB, ctx))
    return (ctx.clock.snapshot(), ctx.counters.as_dict(),
            _device_state(dev), reads, pages)


def _run_fs_scenario(reference: bool, seed: int, fs_name: str, *,
                     track_data: bool):
    """File-system level workload: files, mmap, journal, truncate."""
    with _walk(reference):
        fs, ctx = fresh_fs(fs_name, size_gib=0.125, num_cpus=2,
                           track_data=track_data)
        rng = random.Random(seed)
        reads = []
        f = fs.create("/eq", ctx)
        f.append_zeros(4 * MIB, ctx)
        f.fsync(ctx)
        region = f.mmap(ctx, length=8 * MIB)
        for _ in range(80):
            op = rng.randrange(5)
            off = rng.randrange(0, 8 * MIB - 64 * KIB)
            if op == 0:
                reads.append(region.read(off, 4096, ctx))
            elif op == 1:
                region.write(off, b"\xaa" * 4096, ctx)
            elif op == 2:
                region.write_zeros(off, 64 * KIB, ctx)
            elif op == 3:
                reads.append(region.read_element(off & ~7, ctx))
            else:
                region.read(off, 64 * KIB, ctx)
        region.unmap()
        # journal-heavy path: creates, appends, fsyncs, unlink
        for i in range(30):
            g = fs.create(f"/j{i}", ctx)
            g.append(b"\xcd" * (4 * KIB), ctx)
            g.pwrite_zeros(0, 2 * KIB, ctx)
            g.fsync(ctx)
            g.close()
        for i in range(0, 30, 2):
            fs.unlink(f"/j{i}", ctx)
        # truncate + remap: the run memo must not survive the remap stale
        f.ftruncate(1 * MIB, ctx)
        f.fallocate(0, 4 * MIB, ctx)
        region2 = f.mmap(ctx, length=4 * MIB)
        region2.prefault(ctx)
        reads.append(region2.read(0, 1 * MIB, ctx))
        region2.unmap()
        reads.append(fs.read(f.ino, 0, 2 * MIB, ctx))
        f.close()
    return (ctx.clock.snapshot(), ctx.counters.as_dict(),
            _device_state(fs.device), reads)


def _run_rand_read_scenario(reference: bool, seed: int, *, prefault: bool,
                            track_data: bool = False):
    """Byte-granular random small reads: the ``mmap_rand`` hot-loop shape."""
    with _walk(reference):
        dev = PMDevice(64 * MIB)
        length = 4 * MIB
        region = MappedRegion(dev, DEFAULT_MACHINE,
                              ExtentList([Extent(s, n) for s, n in MISALIGNED]),
                              length, 4096, fault_zero_fill=True,
                              track_data=track_data)
        ctx = make_context(2)
        if prefault:
            region.prefault(ctx)
        rng = random.Random(seed)
        reads = []
        for _ in range(600):
            off = rng.randrange(0, length - 4096)
            reads.append(region.read(off, 4096, ctx))
        _read_element_and_prefault(region, ctx, reads)
        region.unmap()
    return (ctx.clock.snapshot(), ctx.counters.as_dict(),
            _device_state(dev), reads)


def _assert_identical(fast, ref):
    """Clock floats must be bit-identical, counters exactly equal."""
    fast_clock, ref_clock = fast[0], ref[0]
    assert len(fast_clock) == len(ref_clock)
    for a, b in zip(fast_clock, ref_clock):
        # == on floats after identical op sequences; repr disambiguates ULPs
        assert a == b and repr(a) == repr(b)
    assert fast[1] == ref[1]
    assert fast[2] == ref[2]
    assert fast[3] == ref[3]


ALIGNED = [(0, 2 * BLOCKS_PER_HUGEPAGE)]
MISALIGNED = [(3, BLOCKS_PER_HUGEPAGE + 7), (2048, BLOCKS_PER_HUGEPAGE)]
MIXED = [(0, BLOCKS_PER_HUGEPAGE), (BLOCKS_PER_HUGEPAGE + 5,
                                    BLOCKS_PER_HUGEPAGE + 5)]


class TestRegionEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("layout", [ALIGNED, MISALIGNED, MIXED],
                             ids=["aligned", "misaligned", "mixed"])
    def test_untracked(self, seed, layout):
        fast = _run_region_scenario(False, seed, extent_layout=layout,
                                    track_data=False, zero_fill=False)
        ref = _run_region_scenario(True, seed, extent_layout=layout,
                                   track_data=False, zero_fill=False)
        _assert_identical(fast, ref)
        assert fast[4] == ref[4]  # unmapped page count

    @pytest.mark.parametrize("seed", [2, 11])
    def test_tracked_data_and_zero_fill(self, seed):
        fast = _run_region_scenario(False, seed, extent_layout=MIXED,
                                    track_data=True, zero_fill=True,
                                    length=4 * MIB)
        ref = _run_region_scenario(True, seed, extent_layout=MIXED,
                                   track_data=True, zero_fill=True,
                                   length=4 * MIB)
        _assert_identical(fast, ref)

    def test_sub_page_and_boundary_ops(self):
        """Accesses that straddle exactly one page / one hugepage edge."""
        def scenario(reference):
            with _walk(reference):
                dev = PMDevice(32 * MIB)
                region = MappedRegion(
                    dev, DEFAULT_MACHINE,
                    ExtentList([Extent(0, 2 * BLOCKS_PER_HUGEPAGE)]),
                    4 * MIB, 4096, fault_zero_fill=False, track_data=False)
                ctx = make_context(1)
                out = []
                hp = 2 * MIB
                for off in (0, 1, BASE_PAGE - 1, BASE_PAGE, hp - 8, hp,
                            hp + BASE_PAGE - 1):
                    out.append(region.read(off, 16, ctx))
                    region.write(off, b"\x55" * 16, ctx)
                out.append(region.read(hp - BASE_PAGE, 2 * BASE_PAGE, ctx))
                _read_element_and_prefault(region, ctx, out)
            return ctx.clock.snapshot(), ctx.counters.as_dict(), out

        fast, ref = scenario(False), scenario(True)
        assert fast[0] == ref[0]
        assert fast[1] == ref[1]
        assert fast[2] == ref[2]


class TestFilesystemEquivalence:
    @pytest.mark.parametrize("fs_name", ["WineFS", "PMFS"])
    @pytest.mark.parametrize("seed", [3, 13])
    def test_untracked(self, fs_name, seed):
        fast = _run_fs_scenario(False, seed, fs_name, track_data=False)
        ref = _run_fs_scenario(True, seed, fs_name, track_data=False)
        _assert_identical(fast, ref)

    def test_tracked(self):
        fast = _run_fs_scenario(False, 5, "WineFS", track_data=True)
        ref = _run_fs_scenario(True, 5, "WineFS", track_data=True)
        _assert_identical(fast, ref)


class TestRandReadFastPath:
    """The small-read fast path (all pages base-mapped, short span) and
    its fall-through (cold pages still faulting) must both match the
    reference walk bit-for-bit."""

    @pytest.mark.parametrize("seed", [4, 9])
    @pytest.mark.parametrize("prefault", [False, True], ids=["cold", "warm"])
    def test_region(self, seed, prefault):
        fast = _run_rand_read_scenario(False, seed, prefault=prefault)
        ref = _run_rand_read_scenario(True, seed, prefault=prefault)
        _assert_identical(fast, ref)

    def test_region_tracked(self):
        fast = _run_rand_read_scenario(False, 6, prefault=True,
                                       track_data=True)
        ref = _run_rand_read_scenario(True, 6, prefault=True,
                                      track_data=True)
        _assert_identical(fast, ref)

    @pytest.mark.parametrize("fs_name", ["PMFS", "WineFS"])
    def test_fs_mmap_rand(self, fs_name):
        def scenario(reference):
            with _walk(reference):
                fs, ctx = fresh_fs(fs_name, size_gib=0.125, num_cpus=2)
                f = fs.create("/rand", ctx)
                f.append_zeros(8 * MIB, ctx)
                region = f.mmap(ctx, length=8 * MIB)
                rng = random.Random(17)
                reads = []
                for _ in range(400):
                    off = rng.randrange(0, 8 * MIB - 4096)
                    reads.append(region.read(off, 4096, ctx))
                _read_element_and_prefault(region, ctx, reads)
                region.unmap()
                f.close()
            return (ctx.clock.snapshot(), ctx.counters.as_dict(),
                    _device_state(fs.device), reads)

        _assert_identical(scenario(False), scenario(True))

    def test_traced_read_phase_takes_the_fast_path_with_identical_output(self):
        """Tracing no longer diverts a small read of mapped pages to the
        general walk.  The goldens are that walk's output: recorded at the
        commit where ``read`` still tested ``not ctx.trace.enabled``, when
        all 600 reads of the phase went through ``_walk_pages``; the
        chrome digest since gained the one ``alloc`` span of the file's
        allocation (every model's allocation loop records one), and its
        ``otherData.metrics`` became the counters' ``as_dict`` (the span
        events kept their bytes)."""
        tracer = Tracer(capacity=65536)
        fs, ctx = fresh_fs("PMFS", size_gib=0.125, num_cpus=2, trace=tracer)
        f = fs.create("/rand", ctx)
        f.append_zeros(4 * MIB, ctx)
        region = f.mmap(ctx, length=4 * MIB)
        for off in range(0, 4 * MIB, BASE_PAGE):     # every page faults once
            region.read(off, 64, ctx)
        walks = []
        inner = region._walk_pages
        region._walk_pages = lambda *a: (walks.append(a), inner(*a))[1]
        rng = random.Random(17)
        for _ in range(600):                         # 1-2 mapped pages an op
            region.read(rng.randrange(0, 4 * MIB - 4096), 4096, ctx)
        del region._walk_pages
        region.unmap()
        f.close()

        def digest(doc):
            return hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()).hexdigest()

        assert walks == []
        assert (len(tracer), tracer.dropped) == (1028, 0)
        assert digest(chrome_trace(tracer)) == \
            "d1acea5dc8895f0a82e19872ce4850a7" \
            "bb60648147180ff106166debb62d3c47"
        assert digest(chrome_trace(tracer, ctx.counters)) == \
            "ff62de514b307f264a12c25e33a8ba49" \
            "d088d1f17fa0f0044738ce18a29aebac"
        assert repr(ctx.clock.snapshot()) == "[2152788.018380208, 0.0]"
        assert digest(ctx.counters.as_dict()) == \
            "f582afd2706eee07ace970d6695c3277" \
            "3c5f3214181089a779519703bc8c4b3f"
