"""WineFS mount/unmount and crash recovery (paper §3.6, §5.2)."""

import signal
import struct

import pytest

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.core.journal import JournalManager
from repro.core.layout import _EXT, _INODE_HEAD, Layout, read_superblock
from repro.errors import CorruptionError
from repro.params import BLOCK_SIZE, KIB, MIB
from repro.pm.device import PMDevice


def _tracked_fs(num_cpus=2, size=128 * MIB):
    device = PMDevice(size, track_stores=True)
    fs = WineFS(device, num_cpus=num_cpus)
    ctx = make_context(num_cpus)
    fs.mkfs(ctx)
    return fs, ctx, device


def _remount(device, num_cpus=2):
    fs = WineFS(device, num_cpus=num_cpus)
    ctx = make_context(num_cpus)
    fs.mount(ctx)
    return fs, ctx


class TestCleanRemount:
    def test_namespace_survives_unmount(self):
        fs, ctx, device = _tracked_fs()
        fs.mkdir("/docs", ctx)
        f = fs.create("/docs/report", ctx)
        f.append(b"quarterly numbers", ctx)
        fs.unmount(ctx)
        fs2, ctx2 = _remount(device)
        assert fs2.readdir("/docs", ctx2) == ["report"]
        assert fs2.read_file("/docs/report", ctx2) == b"quarterly numbers"

    def test_clean_flag_set_and_cleared(self):
        fs, ctx, device = _tracked_fs()
        _, clean = read_superblock(device)
        assert not clean          # mounted => dirty
        fs.unmount(ctx)
        _, clean = read_superblock(device)
        assert clean
        fs2, ctx2 = _remount(device)
        _, clean = read_superblock(device)
        assert not clean

    def test_deep_tree_survives(self):
        fs, ctx, device = _tracked_fs()
        fs.mkdir("/a", ctx)
        fs.mkdir("/a/b", ctx)
        fs.mkdir("/a/b/c", ctx)
        fs.create("/a/b/c/leaf", ctx).append(b"deep", ctx)
        fs.unmount(ctx)
        fs2, ctx2 = _remount(device)
        assert fs2.read_file("/a/b/c/leaf", ctx2) == b"deep"

    def test_large_file_extent_chain_survives(self):
        fs, ctx, device = _tracked_fs()
        f = fs.create("/many-extents", ctx)
        # many small interleaved appends -> extents spill into the chain
        g = fs.create("/other", ctx)
        for _ in range(30):
            f.append(b"x" * 16 * KIB, ctx)
            g.append(b"y" * 16 * KIB, ctx)
        assert len(fs.file_extents(f.ino)) > 4   # beyond inline capacity
        expected = fs.read_file("/many-extents", ctx)
        fs.unmount(ctx)
        fs2, ctx2 = _remount(device)
        assert fs2.read_file("/many-extents", ctx2) == expected

    def test_allocator_rebuild_matches(self):
        fs, ctx, device = _tracked_fs()
        f = fs.create("/data", ctx)
        f.fallocate(0, 8 * MIB, ctx)
        free_before = fs.statfs().free_blocks
        aligned_before = fs.statfs().free_aligned_hugepages
        fs.unmount(ctx)
        fs2, ctx2 = _remount(device)
        assert fs2.statfs().free_blocks == free_before
        assert fs2.statfs().free_aligned_hugepages == aligned_before

    def test_xattr_hint_survives(self):
        from repro.core.filesystem import XATTR_ALIGNED
        fs, ctx, device = _tracked_fs()
        fs.create("/f", ctx)
        fs.setxattr("/f", XATTR_ALIGNED, b"1", ctx)
        fs.unmount(ctx)
        fs2, ctx2 = _remount(device)
        assert fs2.getxattr("/f", XATTR_ALIGNED, ctx2) == b"1"

    def test_write_after_remount(self):
        fs, ctx, device = _tracked_fs()
        fs.create("/f", ctx).append(b"one", ctx)
        fs.unmount(ctx)
        fs2, ctx2 = _remount(device)
        f = fs2.open("/f", ctx2)
        f.append(b" two", ctx2)
        assert fs2.read_file("/f", ctx2) == b"one two"


class TestCrashRecovery:
    def test_crash_without_unmount_recovers(self):
        fs, ctx, device = _tracked_fs()
        fs.mkdir("/d", ctx)
        fs.create("/d/file", ctx).append(b"committed", ctx)
        img = device.crash_image()              # power cut, nothing in flight
        fs2, ctx2 = _remount(img)
        assert fs2.read_file("/d/file", ctx2) == b"committed"

    def test_uncommitted_txn_rolls_back(self):
        fs, ctx, device = _tracked_fs()
        fs.create("/before", ctx)
        device.drain()
        # start an operation and crash with only its journal START durable
        device.start_capture()
        fs.create("/during", ctx)
        groups = device.end_capture()
        # crash right before the first fence retired: nothing of the op
        img = device.capture_crash_image(groups[0][0], [])
        fs2, ctx2 = _remount(img)
        assert fs2.exists("/before")
        assert not fs2.exists("/during")

    def test_recovery_is_idempotent(self):
        fs, ctx, device = _tracked_fs()
        fs.create("/a", ctx)
        img = device.crash_image()
        fs2, ctx2 = _remount(img)
        fs3, ctx3 = _remount(img)        # second recovery of the same image
        assert fs3.exists("/a")

    def test_geometry_mismatch_rejected(self):
        fs, ctx, device = _tracked_fs(num_cpus=2)
        fs.unmount(ctx)
        bad = WineFS(device, num_cpus=4)
        with pytest.raises(CorruptionError):
            bad.mount(make_context(4))

    @pytest.mark.parametrize("claim", ["metadata area", "past the device",
                                       "another inode's block"])
    def test_corrupt_extent_map_rejected(self, claim):
        """An inode slot whose extent names a block no pool owns, or one
        another inode already holds, fails the mount closed."""
        fs, ctx, device = _tracked_fs()
        held = fs.create("/held", ctx)
        held.append(b"h" * 4 * KIB, ctx)
        victim = fs.create("/victim", ctx)
        victim.append(b"v" * 4 * KIB, ctx)
        block = {"metadata area": 3,
                 "past the device": fs.total_blocks + 8,
                 "another inode's block":
                     fs.file_extents(held.ino)[0].start}[claim]
        fs.unmount(ctx)
        # the victim's first inline extent now claims that one block
        device.persist(fs.layout.inode_addr(victim.ino) + _INODE_HEAD.size,
                       _EXT.pack(block, 1))
        with pytest.raises(CorruptionError):
            _remount(device)

    @pytest.mark.parametrize("target", ["itself", "past the device",
                                        "slot head past the device"])
    def test_corrupt_indirect_chain_rejected_in_bounded_time(self, target):
        """An indirect block whose next pointer names itself or a block
        past the device, or an inode slot whose head pointer names a
        block past the device, fails the mount closed within a second."""
        fs, ctx, device = _tracked_fs(size=64 * MIB)
        f = fs.create("/chained", ctx)
        g = fs.create("/interleaved", ctx)
        for _ in range(8):       # interleaved appends spill the inline map
            f.append(b"c" * 16 * KIB, ctx)
            g.append(b"i" * 16 * KIB, ctx)
        fs.unmount(ctx)
        raw = device.load(fs.layout.inode_addr(f.ino), _INODE_HEAD.size)
        head = list(_INODE_HEAD.unpack(raw))
        indirect = head[6]
        assert indirect, "the file must own an indirect block"
        if target == "slot head past the device":
            head[6] = 2 ** 40
            device.persist(fs.layout.inode_addr(f.ino),
                           _INODE_HEAD.pack(*head))
        else:
            nxt = {"itself": indirect, "past the device": 2 ** 40}[target]
            device.persist(indirect * BLOCK_SIZE, struct.pack("<Q", nxt))

        def expire(signum, frame):
            raise TimeoutError("mount did not finish within 1 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(CorruptionError):
                _remount(device)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_unformatted_device_rejected(self):
        device = PMDevice(64 * MIB, track_stores=True)
        fs = WineFS(device, num_cpus=2)
        with pytest.raises(CorruptionError):
            fs.mount(make_context(2))

    def test_watermark_bounds_recovery_scan(self):
        fs, ctx, device = _tracked_fs()
        for i in range(10):
            fs.create(f"/f{i}", ctx)
        fs.unmount(ctx)
        fs2 = WineFS(device, num_cpus=2)
        ctx2 = make_context(2)
        fs2.mount(ctx2)
        # the scan reads at most (files + root) slots per CPU, far fewer
        # than the table capacity — recovery time follows file count (§5.2)
        bytes_read = ctx2.counters.pm_bytes_read
        assert bytes_read < fs2.layout.inodes_per_cpu * 128

    def test_recovery_scales_with_files_not_bytes(self):
        # one big file vs many small files, same data volume
        fs_a, ctx_a, dev_a = _tracked_fs()
        f = fs_a.create("/big", ctx_a)
        f.fallocate(0, 16 * MIB, ctx_a)
        fs_a.unmount(ctx_a)
        fs_b, ctx_b, dev_b = _tracked_fs()
        for i in range(64):
            f = fs_b.create(f"/small{i}", ctx_b)
            f.fallocate(0, 256 * KIB, ctx_b)
        fs_b.unmount(ctx_b)

        ra = make_context(2)
        WineFS(dev_a, num_cpus=2).mount(ra)
        rb = make_context(2)
        WineFS(dev_b, num_cpus=2).mount(rb)
        assert rb.clock.elapsed > ra.clock.elapsed


class TestJournalUnit:
    def test_recover_empty_journal(self):
        device = PMDevice(64 * MIB, track_stores=True)
        layout = Layout(num_cpus=2, total_blocks=device.size // 4096)
        mgr = JournalManager(device, layout)
        committed, rolled = mgr.recover()
        assert committed == 0 and rolled == 0

    def test_committed_txn_not_rolled_back(self):
        device = PMDevice(64 * MIB, track_stores=True)
        layout = Layout(num_cpus=2, total_blocks=device.size // 4096)
        mgr = JournalManager(device, layout)
        ctx = make_context(2)
        target = layout.data_start_block * 4096
        device.persist(target, b"OLD!")
        txn = mgr.begin(ctx)
        txn.log_undo(target, ctx)
        device.persist(target, b"NEW!")
        txn.commit(ctx)
        committed, rolled = JournalManager(device, layout).recover()
        assert committed == 1 and rolled == 0
        assert device.load(target, 4) == b"NEW!"

    def test_uncommitted_txn_rolled_back(self):
        device = PMDevice(64 * MIB, track_stores=True)
        layout = Layout(num_cpus=2, total_blocks=device.size // 4096)
        mgr = JournalManager(device, layout)
        ctx = make_context(2)
        target = layout.data_start_block * 4096
        device.persist(target, b"OLD!")
        txn = mgr.begin(ctx)
        txn.log_undo(target, ctx)
        device.persist(target, b"NEW!")
        # no commit -> crash
        committed, rolled = JournalManager(device, layout).recover()
        assert rolled == 1
        assert device.load(target, 4) == b"OLD!"

    def test_rollback_ordered_across_cpus(self):
        """Two uncommitted txns on different CPUs touching the same area
        roll back in reverse global-ID order (§3.6)."""
        device = PMDevice(64 * MIB, track_stores=True)
        layout = Layout(num_cpus=2, total_blocks=device.size // 4096)
        mgr = JournalManager(device, layout)
        ctx = make_context(2)
        target = layout.data_start_block * 4096
        device.persist(target, b"V0")
        t1 = mgr.begin(ctx.on_cpu(0))          # global id 1
        t1.log_undo(target, ctx)
        device.persist(target, b"V1")
        t2 = mgr.begin(ctx.on_cpu(1))          # global id 2
        t2.log_undo(target, ctx)
        device.persist(target, b"V2")
        JournalManager(device, layout).recover()
        # reverse order: undo t2 (-> V1) then t1 (-> V0)
        assert device.load(target, 2) == b"V0"

    def test_undo_dedupe_within_txn(self):
        device = PMDevice(64 * MIB, track_stores=True)
        layout = Layout(num_cpus=2, total_blocks=device.size // 4096)
        mgr = JournalManager(device, layout)
        ctx = make_context(2)
        txn = mgr.begin(ctx)
        head_before = txn.journal.head
        txn.log_undo(4096 * layout.data_start_block, ctx)
        txn.log_undo(4096 * layout.data_start_block, ctx)   # deduped
        assert txn.journal.head == head_before + 1
