"""WineFS mount/unmount and crash recovery (paper §3.6, §5.2)."""

import contextlib
import signal
import struct

import pytest

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.core.journal import (ENTRY_BYTES, TYPE_COMMIT, TYPE_DATA,
                                 TYPE_START, JournalEntry, JournalManager)
from repro.core.layout import (_EXT, _INODE_HEAD, MAX_FILE_SIZE, Layout,
                                walk_chain)
from repro.crashmon.checker import ConsistencyError, check_invariants
from repro.errors import CorruptionError, InvalidArgumentError
from repro.faults import FaultPlan, FaultSpec
from repro.fs.common.inode import INODE_BYTES
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


@contextlib.contextmanager
def _within_one_second():
    def expire(signum, frame):
        raise TimeoutError("mount did not finish within 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cycle_image():
    """An unmounted image holding ``/a/b/f`` and ``/kept`` whose on-PM
    parent pointer of ``/a`` names ``/a/b``: every parent exists and is
    a directory, but ``a`` and ``b`` (and ``f`` below) hang off nothing."""
    fs, ctx, device = _tracked_fs(size=64 * MIB)
    fs.mkdir("/a", ctx)
    fs.mkdir("/a/b", ctx)
    fs.write_file("/a/b/f", b"f" * 4 * KIB, ctx)
    kept = fs.write_file("/kept", b"k" * 4 * KIB, ctx).ino
    a, b = fs.getattr("/a").ino, fs.getattr("/a/b").ino
    fs.unmount(ctx)
    head = list(_INODE_HEAD.unpack(
        device.load(fs.layout.inode_addr(a), _INODE_HEAD.size)))
    head[5] = b                                   # parent_ino
    device.persist(fs.layout.inode_addr(a), _INODE_HEAD.pack(*head))
    return device, fs.layout, kept


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

    def test_mount_after_unmount_erases_journals_and_continues_ids(self):
        """A mount after a clean unmount replays the journal like any
        other: it erases the records, so a crash in the first
        transactions afterwards cannot meet a stale COMMIT of the same
        id, and new ids continue above every committed one."""
        fs, ctx, device = _tracked_fs()
        fs.mkdir("/d", ctx)
        fs.write_file("/d/f", b"f" * 4 * KIB, ctx)
        committed = {e.txn_id for j in fs.journal.journals
                     for e in j.scan()[0] if e.etype == TYPE_COMMIT}
        assert committed
        fs.unmount(ctx)
        fs2, ctx2 = _remount(device)
        assert [j.scan() for j in fs2.journal.journals] == \
            [([], 0, [])] * len(fs2.journal.journals)
        fs2.create("/after", ctx2)
        started = [e.txn_id for j in fs2.journal.journals
                   for e in j.scan()[0] if e.etype == TYPE_START]
        assert started and min(started) > max(committed)

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

    def test_largest_file_remounts_and_nothing_passes_it(self):
        """A sparse file of exactly the maximum size remounts; truncate,
        write and fallocate refuse one byte more and change nothing."""
        fs, ctx, device = _tracked_fs()
        f = fs.create("/sparse", ctx)
        f.ftruncate(MAX_FILE_SIZE, ctx)
        for refused in (lambda: f.ftruncate(MAX_FILE_SIZE + 1, ctx),
                        lambda: fs.write(f.ino, MAX_FILE_SIZE, b"x", ctx),
                        lambda: f.fallocate(MAX_FILE_SIZE, 1, ctx)):
            with pytest.raises(InvalidArgumentError):
                refused()
        fs.unmount(ctx)
        fs2, _ctx2 = _remount(device)
        assert fs2.getattr("/sparse").size == MAX_FILE_SIZE


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
        with _within_one_second(), pytest.raises(CorruptionError):
            _remount(device)

    def test_walk_chain_stops_at_a_block_naming_itself(self):
        """The chain walk's own bound, with no mount and no timer: a
        block whose next pointer names itself fails closed before it is
        loaded a second time."""
        blob = struct.pack("<Q", 7).ljust(BLOCK_SIZE, b"\0")
        loads = []

        def load(block):
            loads.append(block)
            if len(loads) > 1:
                raise AssertionError(f"a one-block chain loaded {loads}")
            return blob

        with pytest.raises(CorruptionError, match="revisits block 7"):
            list(walk_chain(3, 7, range(1, 16), load))
        assert loads == [7]

    def test_inode_size_past_the_maximum_rejected(self):
        """A live slot whose size was flipped past the largest file
        WineFS stores fails the mount closed within a second, instead of
        mounting a file no reader could hold."""
        fs, ctx, device = _tracked_fs(size=64 * MIB)
        ino = fs.write_file("/sized", b"s" * 4 * KIB, ctx).ino
        fs.unmount(ctx)
        addr = fs.layout.inode_addr(ino)
        head = list(_INODE_HEAD.unpack(device.load(addr, _INODE_HEAD.size)))
        head[4] |= 1 << 62                            # size
        device.persist(addr, _INODE_HEAD.pack(*head))
        with _within_one_second(), pytest.raises(CorruptionError):
            _remount(device)

    def test_parent_pointer_cycle_rejected_in_bounded_time(self):
        """Two directories whose parent pointers name each other pass a
        dangling-parent check; the mount still fails closed, within a
        second, instead of mounting them unreachable."""
        device, _layout, _kept = _cycle_image()
        with _within_one_second(), pytest.raises(CorruptionError):
            _remount(device)

    def test_degraded_mount_drops_a_parent_pointer_cycle(self):
        """A mount already degraded (here by a poisoned inode slot)
        drops the unreachable subtree, as it drops a lost parent's
        children, and what is left passes the invariants."""
        device, layout, kept = _cycle_image()
        device.set_fault_plan(FaultPlan(specs=[FaultSpec(
            "poison", addr=layout.inode_addr(kept), length=INODE_BYTES)]))
        fs, ctx = _remount(device)
        assert fs.read_only
        assert fs.readdir("/", ctx) == []
        assert fs.statfs().files == 1
        check_invariants(fs)

    def test_invariants_require_every_live_inode_reachable(self):
        fs, ctx, _device = _tracked_fs()
        fs.mkdir("/a", ctx)
        fs.write_file("/a/f", b"f", ctx)
        check_invariants(fs)
        fs._dirs[fs.getattr("/").ino].remove("a")   # noqa: SLF001
        with pytest.raises(ConsistencyError, match="reachable"):
            check_invariants(fs)

    def test_journal_undo_outside_the_device_rejected(self):
        """A CRC-valid undo record whose target lies past the device
        fails the mount closed, before any undo record is applied."""
        fs, ctx, device = _tracked_fs(size=64 * MIB)
        f = fs.create("/kept", ctx)
        f.append(b"k" * 4 * KIB, ctx)          # no unmount: recovery runs
        target = fs.file_extents(f.ino)[0].start * BLOCK_SIZE
        journal = fs.journal.journals[0]
        # txn 1000 rolls back first and in range; txn 999 points past
        for slot, (etype, txn, addr, undo) in enumerate([
                (TYPE_START, 999, 0, b""),
                (TYPE_DATA, 999, device.size + 4096, b"\xff" * 4),
                (TYPE_START, 1000, 0, b""),
                (TYPE_DATA, 1000, target, b"undo")], start=journal.head):
            device.persist(journal.base + slot * ENTRY_BYTES, JournalEntry(
                etype, journal.wraparound, txn, addr, undo).pack())
        with pytest.raises(CorruptionError):
            _remount(device)
        assert device.load(target, 4) == b"kkkk"

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
