"""Baseline-file-system-specific behaviour: the design properties the
paper credits/blames in each comparator must actually hold in our
re-implementations."""

import pytest

from repro.clock import make_context
from repro.fs import Ext4DAX, NovaFS, PMFS, SplitFS, StrataFS, XfsDAX
from repro.params import BLOCKS_PER_HUGEPAGE, KIB, MIB
from repro.pm.device import PMDevice

HP = BLOCKS_PER_HUGEPAGE
SIZE = 256 * MIB


def _fs(cls, **kw):
    device = PMDevice(SIZE)
    fs = cls(device, num_cpus=4, **kw)
    ctx = make_context(4)
    fs.mkfs(ctx)
    return fs, ctx


class TestExt4DAX:
    def test_clean_large_alloc_is_aligned(self):
        fs, ctx = _fs(Ext4DAX)
        f = fs.create("/big", ctx)
        f.fallocate(0, 8 * MIB, ctx)
        assert fs.file_extents(f.ino).mappable_hugepages() == 4

    def test_goal_allocation_keeps_contiguity(self):
        fs, ctx = _fs(Ext4DAX)
        f = fs.create("/grow", ctx)
        for _ in range(10):
            f.append(b"x" * 64 * KIB, ctx)
        assert len(fs.file_extents(f.ino)) == 1

    def test_fsync_commits_jbd2(self):
        fs, ctx = _fs(Ext4DAX)
        f = fs.create("/f", ctx)
        f.append(b"x", ctx)
        before = fs.log_forces
        f.fsync(ctx)
        assert fs.log_forces == before + 1

    def test_fsync_is_expensive(self):
        fs, ctx = _fs(Ext4DAX)
        f = fs.create("/f", ctx)
        f.append(b"x" * 4096, ctx)
        t0 = ctx.now
        f.fsync(ctx)
        assert ctx.now - t0 > fs.machine.jbd2_commit_ns

    def test_zeroes_at_fault_not_fallocate(self):
        fs, ctx = _fs(Ext4DAX)
        assert fs.fault_zero_fill
        assert not fs._zero_on_fallocate()


class TestNova:
    def test_log_page_allocated_per_inode(self):
        fs, ctx = _fs(NovaFS)
        fs.create("/warm", ctx)    # gives the root dir its log page
        before = fs.log_pages_allocated
        fs.create("/f", ctx)
        assert fs.log_pages_allocated == before + 1

    def test_log_pages_freed_with_inode(self):
        fs, ctx = _fs(NovaFS)
        fs.create("/warm", ctx)    # root's log page, persists
        free = fs.statfs().free_blocks
        fs.create("/f", ctx).close()
        assert fs.statfs().free_blocks == free - 1   # the file's log page
        fs.unlink("/f", ctx)
        assert fs.statfs().free_blocks == free

    def test_overwrite_is_cow(self):
        fs, ctx = _fs(NovaFS)
        f = fs.create("/f", ctx)
        f.append(b"a" * 16 * KIB, ctx)
        phys = fs.file_extents(f.ino).physical_block(0)
        f.pwrite(0, b"b" * 4096, ctx)
        assert fs.file_extents(f.ino).physical_block(0) != phys
        data = fs.read_file("/f", ctx)
        assert data == b"b" * 4096 + b"a" * 12 * KIB

    def test_unaligned_append_copies_partial_block(self):
        """The WiredTiger effect (§5.5): appends into a partially-filled
        block relocate the block, preserving the old bytes."""
        fs, ctx = _fs(NovaFS)
        f = fs.create("/f", ctx)
        f.append(b"A" * 1000, ctx)
        phys = fs.file_extents(f.ino).physical_block(0)
        f.append(b"B" * 1000, ctx)
        assert fs.file_extents(f.ino).physical_block(0) != phys
        assert fs.read_file("/f", ctx) == b"A" * 1000 + b"B" * 1000

    def test_relaxed_mode_in_place(self):
        fs, ctx = _fs(NovaFS, mode="relaxed")
        f = fs.create("/f", ctx)
        f.append(b"a" * 16 * KIB, ctx)
        phys = fs.file_extents(f.ino).physical_block(0)
        f.pwrite(0, b"b" * 4096, ctx)
        assert fs.file_extents(f.ino).physical_block(0) == phys

    def test_exact_hugepage_multiple_gets_aligned(self):
        fs, ctx = _fs(NovaFS)
        f = fs.create("/exact", ctx)
        f.fallocate(0, 4 * MIB, ctx)
        assert fs.file_extents(f.ino).mappable_hugepages() == 2

    def test_zeroes_at_fallocate(self):
        fs, ctx = _fs(NovaFS)
        assert not fs.fault_zero_fill
        assert fs._zero_on_fallocate()


class TestPMFS:
    def test_never_aligned_even_clean(self):
        fs, ctx = _fs(PMFS)
        f = fs.create("/big", ctx)
        f.fallocate(0, 8 * MIB, ctx)
        assert fs.file_extents(f.ino).mappable_hugepages() == 0

    def test_linear_directory_scan_cost(self):
        fs, ctx = _fs(PMFS)
        fs.mkdir("/d", ctx)
        for i in range(200):
            fs.create(f"/d/f{i}", ctx).close()
        t0 = ctx.now
        fs.getattr("/d/f199", ctx)
        slow = ctx.now - t0
        fs.mkdir("/small", ctx)
        fs.create("/small/one", ctx).close()
        t0 = ctx.now
        fs.getattr("/small/one", ctx)
        fast = ctx.now - t0
        assert slow > 2 * fast


class TestXfsDAX:
    def test_never_aligned_even_clean(self):
        fs, ctx = _fs(XfsDAX)
        f = fs.create("/big", ctx)
        f.fallocate(0, 8 * MIB, ctx)
        assert fs.file_extents(f.ino).mappable_hugepages() == 0

    def test_log_force_on_fsync(self):
        fs, ctx = _fs(XfsDAX)
        f = fs.create("/f", ctx)
        f.append(b"x", ctx)
        before = fs.log_forces
        f.fsync(ctx)
        assert fs.log_forces == before + 1


class TestSplitFS:
    def test_append_avoids_syscall(self):
        fs, ctx = _fs(SplitFS)
        f = fs.create("/f", ctx)
        syscalls = ctx.counters.syscalls
        f.append(b"staged", ctx)
        assert ctx.counters.syscalls == syscalls   # user-space path

    def test_append_data_readable(self):
        fs, ctx = _fs(SplitFS)
        f = fs.create("/f", ctx)
        f.append(b"one", ctx)
        f.append(b" two", ctx)
        assert fs.read_file("/f", ctx) == b"one two"

    def test_fsync_relinks(self):
        fs, ctx = _fs(SplitFS)
        f = fs.create("/f", ctx)
        f.append(b"staged", ctx)
        before = fs.relinks
        f.fsync(ctx)
        assert fs.relinks == before + 1

    def test_overwrite_goes_through_kernel(self):
        fs, ctx = _fs(SplitFS)
        f = fs.create("/f", ctx)
        f.append(b"x" * 8192, ctx)
        syscalls = ctx.counters.syscalls
        f.pwrite(0, b"y" * 100, ctx)
        assert ctx.counters.syscalls == syscalls + 1


class TestStrata:
    def test_digest_triggered_by_log_fill(self):
        fs, ctx = _fs(StrataFS)
        f = fs.create("/f", ctx)
        before = fs.digests
        f.append(b"x" * (5 * MIB), ctx)   # exceeds the 4MB digest threshold
        assert fs.digests > before

    def test_digest_costs_copy(self):
        fs, ctx = _fs(StrataFS)
        f = fs.create("/f", ctx)
        f.append(b"x" * (3 * MIB), ctx)
        t0 = ctx.now
        f2 = fs.create("/g", ctx)
        f2.append(b"y" * (2 * MIB), ctx)   # crosses threshold -> digest
        assert fs.digested_bytes >= 4 * MIB

    def test_unmount_digests_remainder(self):
        fs, ctx = _fs(StrataFS)
        f = fs.create("/f", ctx)
        f.append(b"x" * MIB, ctx)
        fs.unmount(ctx)
        assert fs.digested_bytes >= MIB

    def test_data_consistent_flag(self):
        fs, ctx = _fs(StrataFS)
        assert fs.data_consistent
