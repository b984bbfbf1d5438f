"""WineFS's per-inode PM record and the journal cost on both devices.

The record (:class:`repro.core.layout.InodeSlot`) only caches what is on
PM; a tracked device only adds the bytes a crash image needs, never
simulated time; and a mount erases only the journal slots that hold
something.
"""

import random

import pytest

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.core.journal import ENTRY_BYTES
from repro.core.layout import unpack_inode
from repro.fs.common.inode import INODE_BYTES
from repro.params import BLOCK_SIZE, KIB, MIB
from repro.pm.device import PMDevice


def _op_mix(fs, ctx, seed, files=50):
    """A seeded mix of create, append, fsync, unlink and rename."""
    rng = random.Random(seed)
    live = []
    for i in range(files):
        ctx = ctx.on_cpu(i % 2)
        path = f"/f{i}"
        fh = fs.create(path, ctx)
        live.append(path)
        for _ in range(rng.randrange(1, 4)):
            fh.append(b"a" * rng.randrange(1, 3 * BLOCK_SIZE), ctx)
        if rng.random() < 0.5:
            fh.fsync(ctx)
        roll = rng.random()
        if roll < 0.2 and len(live) > 1:
            fs.unlink(live.pop(rng.randrange(len(live) - 1)), ctx)
        elif roll < 0.4:
            old = live.pop(rng.randrange(len(live)))
            new = f"/r{i}"
            fs.rename(old, new, ctx)
            live.append(new)


def test_store_tracking_leaves_simulated_time_unchanged():
    """Crash states are enumerated on tracked devices and benchmarks time
    fast ones: the same operations must cost the same on both, to the
    last bit of every clock and counter."""
    results = []
    for tracked in (False, True):
        fs = WineFS(PMDevice(64 * MIB, track_stores=tracked), num_cpus=2)
        ctx = make_context(2)
        fs.mkfs(ctx)
        _op_mix(fs, ctx, seed=3)
        results.append((ctx.clock.snapshot(), ctx.counters.as_dict()))
    assert results[0] == results[1]


def _assert_records_match_pm(fs):
    """Every live inode has a record, and its slot on PM unpacks to the
    record's chain and name (and its extents, when it has a diff base);
    the record's slot image is the slot's bytes."""
    device = fs.device
    live = {inode.ino for inode in fs._itable.live_inodes()}
    assert set(fs._slots) == live
    for ino, slot in fs._slots.items():
        raw = device.load(slot.addr, INODE_BYTES)
        rec = unpack_inode(
            ino, raw, lambda b: device.load(b * BLOCK_SIZE, BLOCK_SIZE),
            fs.layout.data_blocks)
        assert rec is not None, ino
        assert rec.chain == slot.chain, ino
        assert rec.name == slot.name, ino
        if slot.extents is not None:
            assert rec.extents == list(slot.extents), ino
        assert bytes(slot.buf) == raw, ino


@pytest.mark.parametrize("seed", [1, 2])
def test_records_only_cache_pm(seed):
    rng = random.Random(seed)
    device = PMDevice(64 * MIB, track_stores=True)
    fs = WineFS(device, num_cpus=2)
    ctx = make_context(2)
    fs.mkfs(ctx)
    names = [f"/n{i}" for i in range(6)]
    for path in names:
        fs.create(path, ctx)
        _assert_records_match_pm(fs)

    def remount(crash):
        nonlocal fs, ctx
        if crash:
            image = fs.device.crash_image()
        else:
            fs.unmount(ctx)
            image = fs.device
        fs = WineFS(image, num_cpus=2)
        ctx = make_context(2)
        fs.mount(ctx)

    for step in range(120):
        live = sorted(fs.readdir("/", ctx))
        path = "/" + rng.choice(live) if live else None
        op = rng.randrange(8)
        if path is None or op == 0:
            fs.create(f"/c{step}", ctx)
        elif op <= 2:
            # interleaved appends fragment the map past the inline extents
            fh = fs.open(path, ctx)
            fh.append(b"x" * rng.randrange(1, 12) * 4 * KIB, ctx)
        elif op == 3:
            size = fs.getattr(path, ctx).size
            if size:
                fs.open(path, ctx).pwrite(rng.randrange(size), b"o" * 5000,
                                          ctx)
        elif op == 4:
            size = fs.getattr(path, ctx).size
            fs.open(path, ctx).ftruncate(rng.randrange(size + 1), ctx)
        elif op == 5:
            fs.rename(path, "/" + rng.choice(["a", "bb", "x" * 30,
                                              f"m{step}"]), ctx)
        elif op == 6:
            fs.unlink(path, ctx)
        else:
            remount(crash=rng.random() < 0.5)
        _assert_records_match_pm(fs)


def test_clean_mount_erases_only_the_journal_slots_in_use():
    """A mount zeroes the journal slots its scan found holding anything
    (live, stale or unreadable) and writes nothing else."""
    device = PMDevice(64 * MIB, track_stores=True)
    fs = WineFS(device, num_cpus=2)
    ctx = make_context(2)
    fs.mkfs(ctx)
    _op_mix(fs, ctx, seed=5, files=20)
    fs.unmount(ctx)
    in_use = [[j.base + s * ENTRY_BYTES for s in j.scan()[2]]
              for j in fs.journal.journals]
    assert all(in_use)
    persisted = []
    real_persist = device.persist

    def counting_persist(addr, data, ctx=None):
        persisted.append((addr, len(data)))
        real_persist(addr, data, ctx)

    device.persist = counting_persist
    fs2 = WineFS(device, num_cpus=2)
    fs2.mount(make_context(2))
    assert sorted(persisted) == sorted(
        (addr, ENTRY_BYTES) for addrs in in_use for addr in addrs)
    assert [j.scan() for j in fs2.journal.journals] == [([], 0, [])] * 2
