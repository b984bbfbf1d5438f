"""WineFS-specific behaviour: the paper's §3 design choices."""

import pytest

from repro.clock import make_context
from repro.core.filesystem import WineFS, XATTR_ALIGNED
from repro.core.layout import (EXTENTS_PER_INDIRECT, INLINE_EXTENTS,
                               InodeRecord, Layout, pack_indirect,
                               unpack_inode)
from repro.errors import (CorruptionError, NoSpaceError, NotFoundError,
                          ReadOnlyError)
from repro.obs.trace import Tracer
from repro.params import BLOCK_SIZE, BLOCKS_PER_HUGEPAGE, KIB, MIB
from repro.pm.device import PMDevice
from repro.structures.extents import Extent, is_aligned_extent

from tests.oracles import pack_inode

HP = BLOCKS_PER_HUGEPAGE


class TestAlignmentAwareAllocation:
    def test_large_requests_get_aligned_extents(self, winefs, ctx):
        f = winefs.create("/big", ctx)
        f.fallocate(0, 8 * MIB, ctx)
        extents = winefs.file_extents(f.ino)
        assert extents.mappable_hugepages() == 4

    def test_small_requests_fill_holes(self, winefs, ctx):
        aligned_before = winefs.statfs().free_aligned_hugepages
        for i in range(20):
            f = winefs.create(f"/small{i}", ctx)
            f.fallocate(0, 64 * KIB, ctx)
        # 20 * 64KB fits inside one broken hugepage's worth of holes
        assert winefs.statfs().free_aligned_hugepages >= \
            aligned_before - 1

    def test_mixed_request_splits(self, winefs, ctx):
        f = winefs.create("/mixed", ctx)
        f.fallocate(0, 2 * MIB + 64 * KIB, ctx)
        extents = winefs.file_extents(f.ino)
        assert extents.mappable_hugepages() >= 1

    def test_freed_aligned_extents_return_to_pool(self, winefs, ctx):
        before = winefs.statfs().free_aligned_hugepages
        f = winefs.create("/tmp", ctx)
        f.fallocate(0, 8 * MIB, ctx)
        assert winefs.statfs().free_aligned_hugepages == before - 4
        winefs.unlink("/tmp", ctx)
        assert winefs.statfs().free_aligned_hugepages == before

    def test_holes_merge_back_into_aligned(self, winefs, ctx):
        before = winefs.statfs().free_aligned_hugepages
        paths = []
        for i in range(32):
            f = winefs.create(f"/h{i}", ctx)
            f.fallocate(0, 64 * KIB, ctx)
            paths.append(f"/h{i}")
        for p in paths:
            winefs.unlink(p, ctx)
        assert winefs.statfs().free_aligned_hugepages == before

    def test_provenance_tracking(self, winefs, ctx):
        f = winefs.create("/big", ctx)
        f.fallocate(0, 2 * MIB, ctx)
        ext = winefs.file_extents(f.ino)[0]
        assert ext.start // HP in winefs.aligned_out
        winefs.unlink("/big", ctx)
        assert ext.start // HP not in winefs.aligned_out

    def test_large_spill_takes_the_pool_richest_in_aligned_hugepages(
            self, ctx):
        """§3.4: an aligned extent the home pool cannot give comes from
        the remote pool with the most free aligned hugepages, not from
        the next pool in address order."""
        fs = WineFS(PMDevice(256 * MIB), num_cpus=4)
        fs.mkfs(ctx)
        home, near, rich, far = fs._pools
        for pool, keep in ((home, 0), (near, 1), (far, 2)):
            while pool.aligned_hugepages() > keep:
                pool.alloc_aligned_hugepage()
        assert rich.aligned_hugepages() > 2
        f = fs.create("/big", ctx)
        f.fallocate(0, 2 * MIB, ctx)
        (ext,) = fs.file_extents(f.ino)
        assert rich.range_start <= ext.start < rich.range_end
        assert ext.start // HP in fs.aligned_out

    def test_exhaustion_raises_enospc(self, ctx):
        device = PMDevice(64 * MIB)
        fs = WineFS(device, num_cpus=2)
        fs.mkfs(ctx)
        f = fs.create("/fill", ctx)
        with pytest.raises(NoSpaceError):
            f.fallocate(0, 128 * MIB, ctx)

    def test_cross_cpu_spill(self, ctx):
        device = PMDevice(64 * MIB)
        fs = WineFS(device, num_cpus=4)
        fs.mkfs(ctx)
        # one CPU's pool is ~12MB; a 24MB file must borrow from others
        f = fs.create("/spill", ctx)
        f.fallocate(0, 24 * MIB, ctx)
        assert fs.getattr_ino(f.ino).blocks == 24 * MIB // 4096


class TestFaultAllocation:
    def test_sparse_fault_gets_aligned_hugepage(self, winefs, ctx):
        f = winefs.create("/lmdb", ctx)
        f.ftruncate(8 * MIB, ctx)
        region = f.mmap(ctx, length=8 * MIB)
        region.write(0, b"x" * 4096, ctx)
        assert ctx.counters.page_faults_2m == 1
        assert ctx.counters.page_faults_4k == 0
        region.unmap()

    def test_sparse_fault_falls_back_to_holes(self, ctx):
        device = PMDevice(64 * MIB)
        fs = WineFS(device, num_cpus=2)
        fs.mkfs(ctx)
        # exhaust aligned extents but leave hole space: the final 1MB of
        # the request breaks the last aligned extent into holes
        filler = fs.create("/filler", ctx)
        aligned = fs.statfs().free_aligned_hugepages
        filler.fallocate(0, aligned * 2 * MIB - 1 * MIB, ctx)
        assert fs.statfs().free_aligned_hugepages == 0
        f = fs.create("/sparse", ctx)
        f.ftruncate(2 * MIB, ctx)
        region = f.mmap(ctx, length=2 * MIB)
        region.write(0, b"x", ctx)    # must not crash; uses holes
        assert ctx.counters.page_faults_4k >= 1


class TestHybridAtomicity:
    def test_aligned_overwrite_is_journaled(self, winefs, ctx):
        f = winefs.create("/a", ctx)
        f.fallocate(0, 2 * MIB, ctx)
        extents_before = list(winefs.file_extents(f.ino))
        j0 = ctx.counters.journal_ns
        f.pwrite(4096, b"y" * 4096, ctx)
        # layout preserved (no CoW) and journal traffic observed
        assert list(winefs.file_extents(f.ino)) == extents_before
        assert ctx.counters.journal_ns > j0

    def test_hole_overwrite_is_cow(self, winefs, ctx):
        f = winefs.create("/h", ctx)
        f.append(b"z" * 64 * KIB, ctx)   # hole-backed small file
        phys_before = winefs.file_extents(f.ino).physical_block(0)
        f.pwrite(0, b"w" * 4096, ctx)
        phys_after = winefs.file_extents(f.ino).physical_block(0)
        assert phys_after != phys_before   # relocated into a fresh hole

    def test_cow_preserves_unwritten_neighbors(self, winefs, ctx):
        f = winefs.create("/h", ctx)
        f.append(b"A" * 16384, ctx)
        f.pwrite(4096, b"B" * 4096, ctx)
        data = winefs.read_file("/h", ctx)
        assert data == b"A" * 4096 + b"B" * 4096 + b"A" * 8192

    def test_partial_block_cow_merges_old_bytes(self, winefs, ctx):
        f = winefs.create("/h", ctx)
        f.append(b"A" * 8192, ctx)
        f.pwrite(1000, b"B" * 100, ctx)
        data = winefs.read_file("/h", ctx)
        assert data[:1000] == b"A" * 1000
        assert data[1000:1100] == b"B" * 100
        assert data[1100:] == b"A" * 7092

    def test_relaxed_mode_writes_in_place(self, ctx):
        device = PMDevice(128 * MIB)
        fs = WineFS(device, num_cpus=2, mode="relaxed")
        fs.mkfs(ctx)
        f = fs.create("/r", ctx)
        f.append(b"z" * 64 * KIB, ctx)
        phys_before = fs.file_extents(f.ino).physical_block(0)
        f.pwrite(0, b"w" * 4096, ctx)
        assert fs.file_extents(f.ino).physical_block(0) == phys_before


class TestXattrs:
    def test_alignment_xattr_roundtrip(self, winefs, ctx):
        winefs.create("/f", ctx)
        winefs.setxattr("/f", XATTR_ALIGNED, b"1", ctx)
        assert winefs.getxattr("/f", XATTR_ALIGNED, ctx) == b"1"

    def test_missing_xattr_raises(self, winefs, ctx):
        winefs.create("/f", ctx)
        with pytest.raises(NotFoundError):
            winefs.getxattr("/f", "user.other", ctx)

    def test_aligned_hint_forces_aligned_allocation(self, winefs, ctx):
        winefs.create("/f", ctx)
        winefs.setxattr("/f", XATTR_ALIGNED, b"1", ctx)
        f = winefs.open("/f", ctx)
        f.append(b"x" * 64 * KIB, ctx)   # small write, but hint set
        first = winefs.file_extents(f.ino)[0]
        assert is_aligned_extent(first.start, first.length)

    def test_directory_inheritance(self, winefs, ctx):
        winefs.mkdir("/aligned_dir", ctx)
        winefs.setxattr("/aligned_dir", XATTR_ALIGNED, b"1", ctx)
        f = winefs.create("/aligned_dir/child", ctx)
        f.append(b"x" * 64 * KIB, ctx)
        first = winefs.file_extents(f.ino)[0]
        assert is_aligned_extent(first.start, first.length)
        # the child reports the hint through getxattr, as rsync would read
        assert winefs.getxattr("/aligned_dir/child", XATTR_ALIGNED,
                               ctx) == b"1"

    def test_plain_file_has_no_hint(self, winefs, ctx):
        f = winefs.create("/plain", ctx)
        f.append(b"x" * 64 * KIB, ctx)
        first = winefs.file_extents(f.ino)[0]
        assert not is_aligned_extent(first.start, first.length)


class TestReactiveRewrite:
    def test_fragmented_mmap_queues_rewrite(self, winefs, ctx):
        # build a fragmented multi-MB file from tiny interleaved appends
        f = winefs.create("/frag", ctx)
        g = winefs.create("/interleave", ctx)
        for _ in range(80):
            f.append(b"x" * 64 * KIB, ctx)
            g.append(b"y" * 64 * KIB, ctx)
        assert winefs.file_extents(f.ino).fragmentation_score() > 0.5
        f.mmap(ctx).unmap()
        assert len(winefs.rewrite_queue) == 1

    def test_rewrite_restores_hugepages(self, winefs, ctx):
        f = winefs.create("/frag", ctx)
        g = winefs.create("/interleave", ctx)
        for _ in range(80):
            f.append(b"x" * 64 * KIB, ctx)
            g.append(b"y" * 64 * KIB, ctx)
        f.mmap(ctx).unmap()
        content = winefs.read_file("/frag", ctx)
        done = winefs.rewrite_queue.run_pending(ctx)
        assert done == 1
        extents = winefs.file_extents(f.ino)
        assert extents.fragmentation_score() == 0.0
        assert winefs.read_file("/frag", ctx) == content

    def test_well_laid_file_not_queued(self, winefs, ctx):
        f = winefs.create("/good", ctx)
        f.fallocate(0, 8 * MIB, ctx)
        f.mmap(ctx).unmap()
        assert len(winefs.rewrite_queue) == 0

    def test_unlinked_file_skipped(self, winefs, ctx):
        f = winefs.create("/frag", ctx)
        g = winefs.create("/i", ctx)
        for _ in range(80):
            f.append(b"x" * 64 * KIB, ctx)
            g.append(b"y" * 64 * KIB, ctx)
        f.mmap(ctx).unmap()
        winefs.unlink("/frag", ctx)
        assert winefs.rewrite_queue.run_pending(ctx) == 0

    @staticmethod
    def _queued_fragmented(winefs, ctx):
        f = winefs.create("/frag", ctx)
        g = winefs.create("/i", ctx)
        for _ in range(80):
            f.append(b"x" * 64 * KIB, ctx)
            g.append(b"y" * 64 * KIB, ctx)
        f.mmap(ctx).unmap()
        assert len(winefs.rewrite_queue) == 1
        return f

    def test_rewritten_copy_is_durable_when_run_pending_returns(
            self, winefs_tracked, ctx):
        fs = winefs_tracked
        f = self._queued_fragmented(fs, ctx)
        content = fs.read_file("/frag", ctx)
        assert fs.rewrite_queue.run_pending(ctx) == 1
        # the journal swap points the inode at the new extents, so their
        # copy must already be on the media, not only in the cache
        image = fs.device.crash_image()
        bs = fs.block_size
        assert b"".join(image.load(ext.start * bs, ext.length * bs)
                        for ext in fs.file_extents(f.ino)) == content

    def test_rewrite_without_aligned_space_swaps_nothing(self, winefs, ctx):
        f = self._queued_fragmented(winefs, ctx)
        # take every aligned hugepage, then give half of each back: the
        # free space is holes only, and plenty of them
        hogs = []
        while winefs.statfs().free_aligned_hugepages:
            hog = winefs.create(f"/hog{len(hogs)}", ctx)
            hog.fallocate(0, 2 * MIB, ctx)
            hogs.append(hog)
        for hog in hogs:
            hog.ftruncate(MIB, ctx)
        nblocks = winefs.file_extents(f.ino).total_blocks
        assert winefs.statfs().free_aligned_hugepages == 0
        assert winefs.statfs().free_blocks >= nblocks
        before = list(winefs.file_extents(f.ino))
        free = winefs.statfs().free_blocks
        written = ctx.counters.pm_bytes_written
        assert winefs.rewrite_queue.run_pending(ctx) == 0
        assert winefs.rewrite_queue.rewrites_done == 0
        assert list(winefs.file_extents(f.ino)) == before
        assert winefs.statfs().free_blocks == free       # holes given back
        assert ctx.counters.pm_bytes_written == written  # no copy charged

    def test_no_space_gives_up_and_any_other_error_escapes(
            self, winefs, ctx, monkeypatch):
        f = self._queued_fragmented(winefs, ctx)
        before = list(winefs.file_extents(f.ino))

        def full(*_args, **_kwargs):
            raise NoSpaceError("no aligned space")
        monkeypatch.setattr(winefs, "_alloc", full)
        assert winefs.rewrite_queue.run_pending(ctx) == 0
        assert list(winefs.file_extents(f.ino)) == before

        def broken(*_args, **_kwargs):
            raise RuntimeError("a bug, not a full device")
        monkeypatch.setattr(winefs, "_alloc", broken)
        winefs.rewrite_queue.note_fragmented(f.ino)
        with pytest.raises(RuntimeError):
            winefs.rewrite_queue.run_pending(ctx)

    def test_read_only_mount_rewrites_nothing(self, winefs, ctx):
        f = self._queued_fragmented(winefs, ctx)
        before = list(winefs.file_extents(f.ino))
        free = winefs.statfs().free_blocks
        written = winefs.device.bytes_written
        winefs.remount_read_only("injected corruption", ctx)
        with pytest.raises(ReadOnlyError):
            winefs.rewrite_queue.run_pending(ctx)
        assert winefs.device.bytes_written == written
        assert winefs.statfs().free_blocks == free
        assert list(winefs.file_extents(f.ino)) == before


class TestLayoutSerialization:
    def test_inode_record_roundtrip(self):
        rec = InodeRecord(ino=7, valid=True, is_dir=False,
                          aligned_hint=True, nlink=1, size=12345,
                          parent_ino=1, name="hello.txt",
                          extents=[Extent(10, 5), Extent(99, 1)])
        raw = pack_inode(rec)
        assert len(raw) == 128
        back = unpack_inode(7, raw, lambda b: b"", data_blocks=range(0))
        assert back.name == "hello.txt"
        assert back.size == 12345
        assert back.aligned_hint
        assert back.extents == [Extent(10, 5), Extent(99, 1)]

    def test_empty_slot_unpacks_none(self):
        assert unpack_inode(1, b"\x00" * 128, lambda b: b"", range(0)) is None

    @staticmethod
    def _chained_slot(chain, tail=0,
                      n_extents=INLINE_EXTENTS + EXTENTS_PER_INDIRECT + 3):
        """A slot of *n_extents* one-block extents whose overflow fills
        the indirect *chain* in order, the last block's next pointer
        *tail*; returns the slot, a block -> bytes map and the extents."""
        extents = [Extent(1000 + 2 * i, 1) for i in range(n_extents)]
        rec = InodeRecord(ino=7, valid=True, is_dir=False,
                          aligned_hint=False, nlink=1,
                          size=n_extents * BLOCK_SIZE, parent_ino=1,
                          name="chained", extents=extents)
        overflow = extents[INLINE_EXTENTS:]
        blobs = {}
        for i, block in enumerate(chain):
            nxt = chain[i + 1] if i + 1 < len(chain) else tail
            blobs[block] = pack_indirect(
                nxt, overflow[i * EXTENTS_PER_INDIRECT:
                              (i + 1) * EXTENTS_PER_INDIRECT])
        return pack_inode(rec, chain[0] if chain else 0), blobs, extents

    @pytest.mark.parametrize("chain", [[], [50, 40], [50, 40, 60]],
                             ids=["inline", "needed", "surplus block"])
    def test_unpack_reports_exactly_the_chain(self, chain):
        """One walk parses the map and reports every chain block, each
        loaded once, including one past the blocks the map needs (a
        rolled-back append leaves it linked; it still holds PM space)."""
        n = INLINE_EXTENTS if not chain else \
            INLINE_EXTENTS + EXTENTS_PER_INDIRECT + 3
        raw, blobs, extents = self._chained_slot(chain, n_extents=n)
        loaded = []

        def load(block):
            loaded.append(block)
            return blobs[block]

        rec = unpack_inode(7, raw, load, range(10, 5000))
        assert rec.chain == chain
        assert loaded == chain
        assert rec.extents == extents

    @pytest.mark.parametrize("tail", [50, 40, 10 ** 6, 3],
                             ids=["back to the head", "to itself",
                                  "past the data area", "into metadata"])
    def test_surplus_chain_pointer_fails_closed(self, tail):
        """The block the map ends on may still point on; a pointer there
        that revisits the chain or leaves the data area is corrupt."""
        raw, blobs, _ = self._chained_slot([50, 40], tail=tail)
        with pytest.raises(CorruptionError):
            unpack_inode(7, raw, blobs.__getitem__, range(10, 5000))

    def test_layout_pools_are_aligned_and_disjoint(self):
        layout = Layout(num_cpus=4, total_blocks=65536)
        prev_end = layout.data_start_block
        assert prev_end % HP == 0
        for cpu in range(4):
            start, length = layout.data_pool_range(cpu)
            assert start == prev_end
            assert start % HP == 0
            prev_end = start + length
        assert prev_end <= 65536

    def test_inode_addresses_unique(self):
        layout = Layout(num_cpus=2, total_blocks=65536)
        addrs = {layout.inode_addr(ino) for ino in range(1, 200)}
        assert len(addrs) == 199


class TestPerCPUJournalCoordination:
    def test_transactions_have_global_ids(self, winefs, ctx):
        winefs.create("/a", ctx)
        other = ctx.on_cpu(1)
        winefs.create("/b", other)
        assert winefs.journal.transactions_started >= 2
        # the shared counter keeps IDs unique across per-CPU journals
        assert winefs.journal._next_txn_id == \
            winefs.journal.transactions_started + 1

    def test_ops_use_their_cpus_journal(self, winefs, ctx):
        j_heads = [j.head for j in winefs.journal.journals]
        winefs.create("/cpu0file", ctx.on_cpu(0))
        winefs.create("/cpu1file", ctx.on_cpu(1))
        assert winefs.journal.journals[0].head > j_heads[0]
        assert winefs.journal.journals[1].head > j_heads[1]

    def test_shared_journal_serialises_every_transaction(self):
        """Four CPUs on a two-journal WineFS: CPUs 1 and 3 share journal
        1, so a transaction on CPU 3 waits for the journal lock CPU 1
        released, and the reactive rewrite's transaction is no exception
        (§3.6: the swap is a journal transaction like any other)."""
        trace = Tracer()
        ctx = make_context(4, trace=trace)
        fs = WineFS(PMDevice(128 * MIB), num_cpus=2)
        fs.mkfs(ctx)
        TestReactiveRewrite._queued_fragmented(fs, ctx)
        fs.mkdir("/cpu3", ctx)    # CPU 3's own parent: no shared dir lock
        cpu1, cpu3 = ctx.on_cpu(1), ctx.on_cpu(3)

        def waits_for_journal_1(name, op):
            # CPU 1 commits in journal 1 about 1 ms after every other CPU
            ctx.clock.advance_to(1, ctx.clock.elapsed + 1e6)
            fs.create(f"/late-{name}", cpu1)
            released = cpu1.now
            waited = ctx.counters.lock_wait_ns
            trace.clear()
            op()
            assert [s.attrs["lock"] for s in trace.spans()
                    if s.name == "lock.wait" and s.cpu == 3] == \
                ["winefs-journal:1"], name
            assert ctx.counters.lock_wait_ns > waited, name
            assert cpu3.now > released, name

        waits_for_journal_1("create", lambda: fs.create("/cpu3/a", cpu3))
        waits_for_journal_1(
            "rewrite", lambda: fs.rewrite_queue.run_pending(cpu3))
        assert fs.rewrite_queue.rewrites_done == 1


def test_remount_never_hands_out_a_chain_block():
    """After a remount the allocator is rebuilt from the inode scan: every
    block of a chained file's indirect chain stays held, so filling the
    file system hands none of them out again."""
    device = PMDevice(64 * MIB)
    fs = WineFS(device, num_cpus=2)
    ctx = make_context(2)
    fs.mkfs(ctx)
    f = fs.create("/chained", ctx)
    g = fs.create("/gap", ctx)
    for _ in range(8):          # interleaved appends spill the inline map
        f.append(b"c" * 16 * KIB, ctx)
        g.append(b"g" * 16 * KIB, ctx)
    chain = list(fs._slots[f.ino].chain)
    assert chain
    fs.unmount(ctx)
    fs2 = WineFS(device, num_cpus=2)
    ctx2 = make_context(2)
    fs2.mount(ctx2)
    assert fs2._slots[f.ino].chain == chain
    fs2.create("/hog", ctx2).fallocate(
        0, (fs2.statfs().free_blocks - 16) * BLOCK_SIZE, ctx2)
    with pytest.raises(NoSpaceError):
        for i in range(32):
            fs2.write_file(f"/crumb{i}", b"x" * BLOCK_SIZE, ctx2)
    held = []
    for inode in fs2._itable.live_inodes():
        held += [b for e in fs2.file_extents(inode.ino)
                 for b in range(e.start, e.end)]
        held += fs2._slots[inode.ino].chain
    assert len(held) == len(set(held))
    assert set(chain) <= set(held)
    assert fs2.read_file("/chained", ctx2) == b"c" * 8 * 16 * KIB
