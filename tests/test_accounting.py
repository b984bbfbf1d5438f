"""Accounting invariants across every file system.

After arbitrary mixed usage, block accounting must balance: the blocks
the allocator says are free plus the blocks owned by live files (and any
FS-internal metadata pages, e.g. NOVA's per-inode log pages) must equal
the data area.  Counters must never go negative, and statfs must agree
with the free pools.
"""

import random

import pytest

from repro.params import KIB, MIB


def _mixed_usage(fs, ctx, seed=0, rounds=60):
    rng = random.Random(seed)
    live = []
    for i in range(rounds):
        action = rng.random()
        if action < 0.45 or not live:
            path = f"/mix{i}"
            f = fs.create(path, ctx)
            f.append(b"\x00" * rng.randrange(1 * KIB, 3 * MIB), ctx)
            f.close()
            live.append(path)
        elif action < 0.65:
            path = rng.choice(live)
            f = fs.open(path, ctx)
            size = fs.getattr_ino(f.ino).size
            if size > 4096:
                f.pwrite(rng.randrange(size - 4096), b"\x01" * 4096, ctx)
            f.close()
        elif action < 0.8:
            path = rng.choice(live)
            f = fs.open(path, ctx)
            f.ftruncate(rng.randrange(0, 64 * KIB), ctx)
            f.close()
        else:
            path = live.pop(rng.randrange(len(live)))
            fs.unlink(path, ctx)
    return live


class TestAccounting:
    def test_block_accounting_balances(self, any_fs, ctx):
        fs = any_fs
        stats0 = fs.statfs()
        _mixed_usage(fs, ctx, seed=3)
        stats = fs.statfs()
        used_by_files = 0
        for inode in fs._itable.live_inodes():
            if not inode.is_dir:
                used_by_files += inode.extents.total_blocks
        internal = 0
        if hasattr(fs, "_log_pages"):              # NOVA per-inode logs
            internal += sum(len(p) for p in fs._log_pages.values())
        if hasattr(fs, "_slots"):                  # WineFS extent chains
            internal += sum(len(s.chain) for s in fs._slots.values())
        assert stats.free_blocks + used_by_files + internal == \
            stats0.total_blocks

    def test_no_negative_or_overfull_stats(self, any_fs, ctx):
        fs = any_fs
        _mixed_usage(fs, ctx, seed=5)
        stats = fs.statfs()
        assert 0 <= stats.free_blocks <= stats.total_blocks
        assert 0.0 <= stats.utilization <= 1.0
        assert stats.free_aligned_hugepages >= 0
        assert 0.0 <= stats.free_space_aligned_fraction <= 1.0

    def test_delete_everything_restores_free_space(self, any_fs, ctx):
        fs = any_fs
        free0 = fs.statfs().free_blocks
        live = _mixed_usage(fs, ctx, seed=8)
        for path in live:
            fs.unlink(path, ctx)
        # log-structured designs keep a few directory/namespace log pages
        # alive (NOVA: root-dir + namespace logs); nothing else may leak
        assert fs.statfs().free_blocks >= free0 - 4

    def test_counters_monotone(self, any_fs, ctx):
        fs = any_fs
        _mixed_usage(fs, ctx, seed=9, rounds=20)
        c = ctx.counters
        for field in ("page_faults_4k", "page_faults_2m", "tlb_misses",
                      "pm_bytes_read", "pm_bytes_written", "syscalls"):
            assert getattr(c, field) >= 0
        assert c.fault_ns >= 0 and c.journal_ns >= 0

    def test_no_block_shared_between_files(self, any_fs, ctx):
        fs = any_fs
        _mixed_usage(fs, ctx, seed=12)
        seen = {}
        for inode in fs._itable.live_inodes():
            if inode.is_dir:
                continue
            for ext in inode.extents:
                for block in range(ext.start, ext.end):
                    assert block not in seen, \
                        f"block {block} in inodes {seen[block]} and " \
                        f"{inode.ino}"
                    seen[block] = inode.ino
