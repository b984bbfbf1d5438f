"""Property-based crash recovery: random op sequences, random crashes.

For any sequence of WineFS operations and a crash at any point with any
subset of in-flight stores surviving, the remounted file system must be
structurally sound: parseable metadata, no shared blocks, no free-list
overlap.  (Exact pre/post state matching per syscall is the explorer's
job; this test hammers arbitrary histories.)
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.crashmon.checker import capture_state, check_invariants
from repro.errors import FSError, ReproError
from repro.params import KIB, MIB
from repro.pm.device import PMDevice

from tests.oracles.store_log import in_flight_stores

_OPS = st.lists(
    st.tuples(st.sampled_from(["create", "append", "overwrite", "unlink",
                               "mkdir", "rename", "truncate"]),
              st.integers(0, 3),
              st.integers(1, 12 * KIB)),
    min_size=2, max_size=15)


def _apply(fs, ctx, op, slot, size):
    path = f"/p{slot}"
    try:
        if op == "create":
            fs.create(path, ctx).close()
        elif op == "append":
            fs.open(path, ctx).append(b"A" * size, ctx)
        elif op == "overwrite":
            fs.open(path, ctx).pwrite(0, b"B" * size, ctx)
        elif op == "unlink":
            fs.unlink(path, ctx)
        elif op == "mkdir":
            fs.mkdir(f"/d{slot}", ctx)
        elif op == "rename":
            fs.rename(path, f"/p{(slot + 1) % 4}", ctx)
        elif op == "truncate":
            fs.open(path, ctx).ftruncate(size, ctx)
    except ReproError:
        pass    # invalid op for the current state: fine, keep going


class TestCrashAnywhere:
    @given(_OPS, st.integers(0, 10_000), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_remount_always_sound(self, ops, crash_seed, survivors_bias):
        device = PMDevice(64 * MIB, track_stores=True)
        fs = WineFS(device, num_cpus=2)
        ctx = make_context(2)
        fs.mkfs(ctx)
        cut = crash_seed % (len(ops) + 1)
        for op, slot, size in ops[:cut]:
            _apply(fs, ctx, op, slot, size)
        # crash now, with a pseudo-random subset of in-flight stores
        flights = in_flight_stores(device)
        surviving = [rec.seq for i, rec in enumerate(flights)
                     if (crash_seed >> (i % 16)) & 1 == survivors_bias]
        image = device.crash_image(surviving)

        recovered = WineFS(image, num_cpus=2)
        rctx = make_context(2)
        recovered.mount(rctx)            # must not raise
        check_invariants(recovered)      # no shared/leaked blocks
        # the recovered FS must also be fully *usable*
        recovered.create("/post-crash-probe", rctx).append(b"ok", rctx)
        assert recovered.read_file("/post-crash-probe", rctx) == b"ok"

    @given(_OPS)
    @settings(max_examples=15, deadline=None)
    def test_fenced_history_fully_survives(self, ops):
        """With everything drained before the crash, nothing is lost."""
        device = PMDevice(64 * MIB, track_stores=True)
        fs = WineFS(device, num_cpus=2)
        ctx = make_context(2)
        fs.mkfs(ctx)
        for op, slot, size in ops:
            _apply(fs, ctx, op, slot, size)
        device.drain()
        expected = capture_state(fs)
        recovered = WineFS(device.crash_image(), num_cpus=2)
        rctx = make_context(2)
        recovered.mount(rctx)
        assert capture_state(recovered).entries == expected.entries
