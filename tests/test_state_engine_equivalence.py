"""Array-backed state engine vs per-object reference engine: bit-identical.

The structure-of-arrays kernels (``RunStore``-backed free pools, flat
page tables, SoA device store log, the flat slot-vector clock, the
slot-buffer inode packer, and the fused persist charge kernel)
must reproduce the per-object reference engine's simulated time
*bit-for-bit*.  Every test here runs one deterministic scenario twice —
once on the array structures ``src/`` builds, once under
:func:`tests.oracles.reference_structures` (every free pool and page
table built from the per-object oracles, which the run then checks) —
and compares clocks (by ``repr``, so ULP drift fails), counters, the
device's byte totals, the fault ledger and degrade, op outcomes and
statfs.

Also here: the RunStore invariant property sweep and the inode-packer
differential against :func:`tests.oracles.pack_inode`.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.core.layout import INODE_SLOT_BYTES, InodeRecord, InodeSlot
from repro.errors import FSError
from repro.faults import FaultPlan, FaultSpec
from repro.fs.common.freespace import FreePool
from repro.harness import SPECS_BY_NAME, fresh_fs
from repro.params import BLOCK_SIZE, BLOCKS_PER_HUGEPAGE, KIB, MIB
from repro.structures.extents import Extent
from repro.structures.runstore import RunStore, runs_in
from tests.oracles import (ReferenceFreePool, assert_reference_built,
                           pack_inode, reference_structures)

ALL_MODELS = sorted(SPECS_BY_NAME)


# ---------------------------------------------------------------------------
# full-model differential


def _seeded_ops(fs, ctx, rng, outcomes, steps=25):
    names = ["/a0", "/a1", "/a2", "/a3"]
    for step in range(steps):
        op = rng.randrange(8)
        name = rng.choice(names)
        try:
            if op == 0:
                size = rng.randrange(1, 3 * BLOCK_SIZE)
                f = fs.create(name, ctx)
                f.append(bytes([rng.randrange(1, 256)]) * size, ctx)
                f.close()
                outcomes.append((step, "create", size))
            elif op == 1:
                size = rng.randrange(1, 2 * BLOCK_SIZE)
                f = fs.open(name, ctx)
                f.append(bytes([rng.randrange(1, 256)]) * size, ctx)
                f.fsync(ctx)
                f.close()
                outcomes.append((step, "append", size))
            elif op == 2:
                f = fs.open(name, ctx)
                off = rng.randrange(0, max(fs.getattr(name).size, 1))
                size = rng.randrange(1, BLOCK_SIZE)
                f.pwrite(off, bytes([rng.randrange(1, 256)]) * size, ctx)
                f.close()
                outcomes.append((step, "pwrite", off, size))
            elif op == 3:
                newsize = rng.randrange(0, 4 * BLOCK_SIZE)
                fs.truncate(fs.getattr(name).ino, newsize, ctx)
                outcomes.append((step, "truncate", newsize))
            elif op == 4:
                dst = rng.choice(names)
                fs.rename(name, dst, ctx)
                outcomes.append((step, "rename", name, dst))
            elif op == 5:
                fs.unlink(name, ctx)
                outcomes.append((step, "unlink", name))
            elif op == 6:
                length = rng.randrange(1, 8) * BLOCK_SIZE
                f = fs.open(name, ctx)
                f.fallocate(0, length, ctx)
                f.close()
                outcomes.append((step, "fallocate", length))
            else:
                data = fs.read_file(name, ctx)
                outcomes.append((step, "read", len(data), zlib.crc32(data)))
        except FSError as exc:
            outcomes.append((step, op, "err", exc.errno_name))


def _mmap_ops(fs, ctx, rng, outcomes):
    f = fs.create("/mm", ctx)
    f.append_zeros(1 * MIB, ctx)
    f.fsync(ctx)
    region = f.mmap(ctx, length=1 * MIB)
    for step in range(12):
        op = rng.randrange(4)
        off = rng.randrange(0, 1 * MIB - 64 * KIB)
        if op == 0:
            outcomes.append(("mm", step,
                             zlib.crc32(region.read(off, 4096, ctx))))
        elif op == 1:
            region.write(off, bytes([rng.randrange(1, 256)]) * 512, ctx)
        elif op == 2:
            region.write_zeros(off, 16 * KIB, ctx)
        else:
            outcomes.append(("mm", step,
                             region.read_element(off & ~7, ctx)))
    outcomes.append(("mm", "pages", region.unmap()))
    f.close()
    return region


def _run_model(fs_name: str, seed: int, reference: bool, plan=None):
    def build():
        fs, ctx = fresh_fs(fs_name, size_gib=0.125, num_cpus=2,
                           track_data=True)
        live = None
        if plan is not None:
            # fresh plan per run: plans accumulate op counters
            live = FaultPlan.from_json(plan.to_json())
            fs.attach_fault_plan(live)
        rng = random.Random(seed)
        outcomes = []
        _seeded_ops(fs, ctx, rng, outcomes)
        region = _mmap_ops(fs, ctx, rng, outcomes)
        stats = fs.statfs()
        device = fs.device
        side = (device.bytes_read, device.bytes_written,
                device.materialized_bytes,
                None if live is None else live.counts, fs.degraded_reason)
        return fs, region, (ctx.clock.snapshot(), ctx.counters.as_dict(),
                            side, outcomes, stats)
    if not reference:
        return build()[2]
    with reference_structures():
        fs, region, result = build()
    assert_reference_built(fs, [region])
    return result


def _assert_engines_identical(fast, ref, label=""):
    for a, b in zip(fast[0], ref[0]):
        assert repr(a) == repr(b), f"{label}: clock diverged"
    assert fast[1] == ref[1], f"{label}: counters diverged"
    assert fast[2] == ref[2], f"{label}: device or fault ledger diverged"
    assert fast[3] == ref[3], f"{label}: outcomes diverged"
    assert fast[4] == ref[4], f"{label}: statfs diverged"


@pytest.mark.parametrize("fs_name", ALL_MODELS)
def test_state_engines_identical_per_model(fs_name):
    for seed in (3, 21):
        fast = _run_model(fs_name, seed, reference=False)
        ref = _run_model(fs_name, seed, reference=True)
        _assert_engines_identical(fast, ref, f"{fs_name} seed {seed}")


@pytest.mark.parametrize("fs_name", ["WineFS", "NOVA", "PMFS"])
def test_state_engines_identical_under_faults(fs_name):
    """Fault-plan runs: ENOSPC blips, write-error relocation and a data
    poison must take identical paths — including quarantine/relocation
    decisions made against the array-backed free pool."""
    plan = FaultPlan(seed=5, specs=[
        FaultSpec("enospc", at_op=6, count=1),
        FaultSpec("write_error", blocks=(), count=1),
        FaultSpec("poison", addr=640 * KIB, length=64),
    ])
    for seed in (5, 17):
        fast = _run_model(fs_name, seed, reference=False, plan=plan)
        ref = _run_model(fs_name, seed, reference=True, plan=plan)
        _assert_engines_identical(fast, ref,
                                  f"{fs_name} seed {seed} (faulted)")


# ---------------------------------------------------------------------------
# RunStore / FreePool structure properties


def test_runstore_invariants_random_ops():
    rng = random.Random(42)
    rs = RunStore()
    mirror = {}  # start -> length, the naive truth
    for step in range(3000):
        op = rng.randrange(3)
        if op == 0 or not mirror:
            # add a fresh extent in an unused gap
            start = rng.randrange(0, 1 << 20)
            length = rng.randrange(1, 4 * BLOCKS_PER_HUGEPAGE)
            end = start + length
            # keep a gap: the store never holds adjacent extents
            if any(s <= end and start <= s + ln
                   for s, ln in mirror.items()):
                continue
            rs.add(start, length)
            mirror[start] = length
        elif op == 1:
            start = rng.choice(sorted(mirror))
            rs.remove_at(rs.index_of(start))
            del mirror[start]
        else:
            start = rng.choice(sorted(mirror))
            length = mirror[start]
            if length < 2:
                continue
            take = rng.randrange(1, length)
            # shrink from the front, as a carve does
            rs.reshape(rs.index_of(start), start + take, length - take)
            del mirror[start]
            mirror[start + take] = length - take
        if step % 200 == 0:
            rs.check_invariants()
    rs.check_invariants()
    assert dict(rs.items()) == mirror
    assert rs.free_blocks == sum(mirror.values())
    assert rs.total_runs == sum(runs_in(s, ln) for s, ln in mirror.items())


def test_freepool_engines_agree_on_random_alloc_free():
    """Every allocation policy returns the same extent from both pool
    engines across a random alloc/free interleaving."""
    total = 64 * BLOCKS_PER_HUGEPAGE

    def drive(pool):
        rng = random.Random(7)
        held = []
        decisions = []
        for _ in range(800):
            op = rng.randrange(6)
            if op == 0:
                got = pool.alloc_first_fit(rng.randrange(1, 1200))
            elif op == 1:
                got = pool.alloc_next_fit(rng.randrange(1, 600))
            elif op == 2:
                got = pool.alloc_first_fit_aligned_pref(
                    rng.randrange(1, 1200))
            elif op == 3:
                got = pool.alloc_aligned_hugepage()
            elif op == 4:
                got = pool.alloc_avoiding_aligned(rng.randrange(1, 600))
            else:
                got = None
                if held:
                    ext = held.pop(rng.randrange(len(held)))
                    pool.insert(ext)
                    decisions.append(("free", ext.start, ext.length))
            if got is not None:
                held.append(got)
                decisions.append((got.start, got.length))
            decisions.append((pool.free_blocks, pool.aligned_hugepages(),
                              pool.largest(), len(pool)))
        pool.check_invariants()
        return decisions

    assert drive(FreePool(0, total)) == drive(ReferenceFreePool(0, total))


# ---------------------------------------------------------------------------
# inode-packer differential


class _FakeInode:
    def __init__(self, ino):
        self.ino = ino
        self.is_dir = False
        self.aligned_hint = False
        self.nlink = 1
        self.size = 0
        self.parent_ino = 0
        self.name = f"f{ino}"


def test_inode_packer_matches_pack_inode():
    """The slot record's buffer packer must emit byte-identical 128B slots
    across randomized head/extents/name mutations, including shrink paths
    that must zero stale tails."""
    rng = random.Random(11)
    slots = {}
    inodes = {i: _FakeInode(i) for i in range(6)}
    extents = {i: () for i in inodes}
    indirect = {i: 0 for i in inodes}
    for step in range(4000):
        ino = rng.randrange(6)
        inode = inodes[ino]
        mut = rng.randrange(6)
        if mut == 0:
            inode.size = rng.randrange(0, 1 << 40)
        elif mut == 1:
            n = rng.randrange(0, 7)
            extents[ino] = tuple(
                Extent(rng.randrange(0, 1 << 30), rng.randrange(1, 4096))
                for _ in range(n))
            indirect[ino] = rng.randrange(0, 1 << 20) if n > 4 else 0
        elif mut == 2:
            inode.name = "n" * rng.randrange(1, 36)
        elif mut == 3:
            inode.is_dir = rng.random() < 0.5
            inode.aligned_hint = rng.random() < 0.5
            inode.nlink = rng.randrange(1, 5)
        elif mut == 4:
            inode.parent_ino = rng.randrange(0, 100)
        else:
            slots.pop(ino, None)
        slot = slots.setdefault(ino, InodeSlot(0))
        got = bytes(slot.pack(inode, extents[ino], indirect[ino]))
        rec = InodeRecord(
            ino=ino, valid=True, is_dir=inode.is_dir,
            aligned_hint=inode.aligned_hint, nlink=inode.nlink,
            size=inode.size, parent_ino=inode.parent_ino,
            name=inode.name, extents=list(extents[ino]))
        want = pack_inode(rec, indirect[ino])
        assert len(got) == INODE_SLOT_BYTES
        assert got == want, f"step {step} ino {ino}"
