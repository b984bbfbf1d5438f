"""Property-based differential testing: random syscall sequences, two walks.

Each seed drives one randomized syscall sequence (creates, writes, renames,
truncates, unlinks, fallocates, plus an mmap phase) executed twice — once
on the production (batched) MMU walk and once under
:func:`tests.oracles.reference_walk`, the per-event walk — and the two
runs must agree on

* per-CPU clocks (bit-identical floats, compared by ``repr``),
* event counters and the device's byte totals,
* every operation outcome (success digest or errno), and
* the recovered namespace after an unmount/remount cycle.

The default sweep is 200 seeds; widen it with ``REPRO_PROPERTY_SEEDS``
(e.g. ``REPRO_PROPERTY_SEEDS=2000`` for a nightly run).  Seeds are grouped
into chunks so a failure names a small reproducible range.
"""

from __future__ import annotations

import os
import random
import zlib
from contextlib import ExitStack

import pytest

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.crashmon.checker import capture_state
from repro.errors import FSError
from repro.params import BLOCK_SIZE, KIB, MIB
from repro.pm.device import PMDevice
from tests.oracles import (assert_reference_built, assert_reference_walk,
                           reference_structures, reference_walk)

SEEDS = int(os.environ.get("REPRO_PROPERTY_SEEDS", "200"))
CHUNK = 25
OPS_PER_SEED = 25

NAME_POOL = ["/f0", "/f1", "/f2", "/f3", "/f4", "/f5"]


def _apply_random_ops(fs, ctx, rng, outcomes):
    """One seeded syscall sequence; every result lands in *outcomes*.

    The rng stream depends only on the seed and on which operations
    raise, so two engines with identical semantics stay in lockstep;
    the first behavioural divergence shows up as a differing outcome.
    """
    for step in range(OPS_PER_SEED):
        op = rng.randrange(8)
        name = rng.choice(NAME_POOL)
        try:
            if op == 0:                                     # create + write
                size = rng.randrange(1, 3 * BLOCK_SIZE)
                f = fs.create(name, ctx)
                f.append(bytes([rng.randrange(1, 256)]) * size, ctx)
                f.close()
                outcomes.append((step, "create", size))
            elif op == 1:                                   # append
                size = rng.randrange(1, 2 * BLOCK_SIZE)
                f = fs.open(name, ctx)
                f.append(bytes([rng.randrange(1, 256)]) * size, ctx)
                f.close()
                outcomes.append((step, "append", size))
            elif op == 2:                                   # overwrite
                f = fs.open(name, ctx)
                off = rng.randrange(0, max(fs.getattr(name).size, 1))
                size = rng.randrange(1, BLOCK_SIZE)
                f.pwrite(off, bytes([rng.randrange(1, 256)]) * size, ctx)
                f.close()
                outcomes.append((step, "pwrite", off, size))
            elif op == 3:                                   # truncate
                newsize = rng.randrange(0, 4 * BLOCK_SIZE)
                fs.truncate(fs.getattr(name).ino, newsize, ctx)
                outcomes.append((step, "truncate", newsize))
            elif op == 4:                                   # rename
                dst = rng.choice(NAME_POOL)
                fs.rename(name, dst, ctx)
                outcomes.append((step, "rename", name, dst))
            elif op == 5:                                   # unlink
                fs.unlink(name, ctx)
                outcomes.append((step, "unlink", name))
            elif op == 6:                                   # fallocate
                length = rng.randrange(1, 8) * BLOCK_SIZE
                f = fs.open(name, ctx)
                f.fallocate(0, length, ctx)
                f.close()
                outcomes.append((step, "fallocate", length))
            else:                                           # read
                data = fs.read_file(name, ctx)
                outcomes.append((step, "read", len(data),
                                 zlib.crc32(data)))
        except FSError as exc:
            outcomes.append((step, op, "err", exc.errno_name))


def _mmap_phase(fs, ctx, rng, outcomes):
    """Exercise the mmap fast path: the batched engine's home turf."""
    f = fs.create("/mm", ctx)
    f.append_zeros(1 * MIB, ctx)
    f.fsync(ctx)
    # map exactly the file: stores past EOF would not survive a remount
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
            outcomes.append(("mm", step, region.read_element(off & ~7,
                                                             ctx)))
    # every walk entry point at least once, whatever the seed drew
    outcomes.append(("mm", "probe", zlib.crc32(region.read(0, 4096, ctx)),
                     region.read_element(0, ctx)))
    region.prefault(ctx)
    outcomes.append(("mm", "pages", region.unmap()))
    f.close()
    return region


def _run_sequence(seed: int, walk_oracle: bool = False,
                  state_oracle: bool = False):
    """One seeded sequence on the production walk and state structures,
    or with the per-event walk and/or the per-object structures of
    ``tests.oracles`` standing in."""
    with ExitStack() as stack:
        if walk_oracle:
            calls = stack.enter_context(reference_walk())
        if state_oracle:
            stack.enter_context(reference_structures())
        device = PMDevice(64 * MIB, track_stores=True)
        fs = WineFS(device, num_cpus=2, track_data=True)
        ctx = make_context(2)
        fs.mkfs(ctx)
        rng = random.Random(seed)
        outcomes = []
        _apply_random_ops(fs, ctx, rng, outcomes)
        region = _mmap_phase(fs, ctx, rng, outcomes)
        pre = capture_state(fs)
        fs.unmount(ctx)
        fs2 = WineFS(device, num_cpus=2, track_data=True)
        fs2.mount(make_context(2))
        post = capture_state(fs2)
    if walk_oracle:
        assert_reference_walk(calls)
    if state_oracle:
        assert_reference_built(fs, [region])
        assert_reference_built(fs2)
    return (ctx.clock.snapshot(), ctx.counters.as_dict(),
            (device.bytes_read, device.bytes_written,
             device.materialized_bytes), outcomes, pre, post)


def _chunks():
    return [range(lo, min(lo + CHUNK, SEEDS))
            for lo in range(0, SEEDS, CHUNK)]


@pytest.mark.parametrize("seeds", _chunks(),
                         ids=lambda r: f"seeds{r.start}-{r.stop - 1}")
def test_batched_vs_reference(seeds):
    for seed in seeds:
        fast = _run_sequence(seed)
        ref = _run_sequence(seed, walk_oracle=True)
        for a, b in zip(fast[0], ref[0]):
            assert repr(a) == repr(b), f"seed {seed}: clock diverged"
        assert fast[1] == ref[1], f"seed {seed}: counters diverged"
        assert fast[2] == ref[2], f"seed {seed}: device bytes diverged"
        assert fast[3] == ref[3], f"seed {seed}: outcomes diverged"
        assert fast[4] == ref[4], f"seed {seed}: namespace diverged"
        # and within each walk, remount must recover the exact state
        assert fast[4] == fast[5], f"seed {seed}: remount lost state"
        assert ref[4] == ref[5], f"seed {seed}: remount lost state (ref)"


def test_sequence_is_deterministic():
    """Same seed, same walk: byte-for-byte identical runs."""
    assert _run_sequence(99) == _run_sequence(99)


STATE_SEEDS = range(0, 32)


@pytest.mark.parametrize("seeds", [STATE_SEEDS],
                         ids=lambda r: f"seeds{r.start}-{r.stop - 1}")
def test_array_state_vs_reference_state(seeds):
    """Same sweep, but crossing the *state* structures: the flat page
    table and run-store free pool against the per-object oracles of
    :func:`tests.oracles.reference_structures`.  Dense model/fault
    coverage lives in test_state_engine_equivalence.py; this is the
    random-syscall angle."""
    for seed in seeds:
        fast = _run_sequence(seed)
        ref = _run_sequence(seed, state_oracle=True)
        for a, b in zip(fast[0], ref[0]):
            assert repr(a) == repr(b), f"seed {seed}: clock diverged"
        assert fast[1:] == ref[1:], f"seed {seed}: state engines diverged"
