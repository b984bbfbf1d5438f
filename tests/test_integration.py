"""Cross-module integration tests.

Scenario-level exercises that tie the file systems, the aging engine, the
MMU, and the crash machinery together — including the paper's rsync/xattr
story (§3.6) and a model-based random-operation test against an in-memory
reference file system.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import make_context
from repro.core.filesystem import WineFS, XATTR_ALIGNED
from repro.errors import FSError, ReproError
from repro.params import KIB, MIB
from repro.pm.device import PMDevice


def _winefs(size=256 * MIB, num_cpus=4, track=False):
    device = PMDevice(size, track_stores=track)
    fs = WineFS(device, num_cpus=num_cpus)
    ctx = make_context(num_cpus)
    fs.mkfs(ctx)
    return fs, ctx, device


class TestRsyncAlignmentTransfer:
    """§3.6: alignment survives an rsync-style copy between partitions.

    rsync copies data with *small* writes but preserves extended
    attributes; the receiving WineFS reads the xattr and allocates aligned
    extents anyway.
    """

    def _rsync(self, src_fs, src_ctx, dst_fs, dst_ctx, path):
        """Copy file + xattrs using small (128KB) writes, as rsync does."""
        size = src_fs.getattr(path, src_ctx).size
        dst = dst_fs.create(path, dst_ctx)
        # rsync applies xattrs before/while writing data
        try:
            hint = src_fs.getxattr(path, XATTR_ALIGNED, src_ctx)
            dst_fs.setxattr(path, XATTR_ALIGNED, hint, dst_ctx)
        except ReproError:
            pass
        pos = 0
        while pos < size:
            take = min(128 * KIB, size - pos)
            chunk = src_fs.open(path, src_ctx).pread(pos, take, src_ctx)
            dst.pwrite(pos, chunk, dst_ctx)
            pos += take
        return dst

    def test_aligned_file_stays_aligned_across_partitions(self):
        src_fs, src_ctx, _ = _winefs()
        dst_fs, dst_ctx, _ = _winefs()
        f = src_fs.create("/db.pool", src_ctx)
        f.fallocate(0, 8 * MIB, src_ctx)
        src_fs.setxattr("/db.pool", XATTR_ALIGNED, b"1", src_ctx)

        dst = self._rsync(src_fs, src_ctx, dst_fs, dst_ctx, "/db.pool")
        extents = dst_fs.file_extents(dst.ino)
        assert extents.mappable_hugepages() == 4, \
            "the receiving partition must honor the alignment xattr"

    def test_without_xattr_small_writes_land_in_holes(self):
        src_fs, src_ctx, _ = _winefs()
        dst_fs, dst_ctx, _ = _winefs()
        f = src_fs.create("/plain", src_ctx)
        f.fallocate(0, 8 * MIB, src_ctx)
        dst = self._rsync(src_fs, src_ctx, dst_fs, dst_ctx, "/plain")
        # on a *clean* destination the small writes still merge into
        # physically aligned runs, but they came from the hole pool — the
        # receiving FS did not reserve aligned extents for this file
        extents = dst_fs.file_extents(dst.ino)
        from repro.params import BLOCKS_PER_HUGEPAGE
        assert not any(ext.start // BLOCKS_PER_HUGEPAGE in dst_fs.aligned_out
                       for ext in extents)

    def test_directory_xattr_covers_rsynced_tree(self):
        dst_fs, dst_ctx, _ = _winefs()
        dst_fs.mkdir("/pools", dst_ctx)
        dst_fs.setxattr("/pools", XATTR_ALIGNED, b"1", dst_ctx)
        f = dst_fs.create("/pools/a", dst_ctx)
        for _ in range(32):
            f.append(b"\x00" * 128 * KIB, dst_ctx)   # 4MB of small writes
        assert dst_fs.file_extents(f.ino).mappable_hugepages() == 2


class TestThreadMigration:
    """§3.6: a transaction stays in the journal it started in even if the
    thread migrates mid-operation."""

    def test_txn_completes_in_origin_journal(self):
        fs, ctx, _ = _winefs(num_cpus=4)
        heads0 = [j.head for j in fs.journal.journals]
        # open a transaction on cpu 2 directly and commit from cpu 2's
        # handle after 'migrating' the python-level caller
        txn = fs.journal.begin(ctx.on_cpu(2))
        migrated = ctx.on_cpu(3)
        txn.log_undo(fs.layout.inode_addr(1), migrated)
        txn.commit(migrated)
        heads1 = [j.head for j in fs.journal.journals]
        assert heads1[2] > heads0[2]       # entries landed in journal 2
        assert heads1[3] == heads0[3]      # not in the migrated CPU's


class TestEndToEndScenario:
    def test_age_crash_recover_verify(self):
        """The full lifecycle: use, age lightly, crash, recover, verify."""
        from repro.aging import AGRAWAL, Geriatrix
        from repro.crashmon.checker import check_invariants

        fs, ctx, device = _winefs(size=128 * MIB, num_cpus=2, track=True)
        fs.mkdir("/app", ctx)
        f = fs.create("/app/config", ctx)
        f.append(b"setting=1\n" * 100, ctx)
        ager = Geriatrix(fs, AGRAWAL, target_utilization=0.4, seed=9)
        ager.fill(ctx)
        expected = fs.read_file("/app/config", ctx)

        img = device.crash_image()
        fs2 = WineFS(img, num_cpus=2)
        ctx2 = make_context(2)
        fs2.mount(ctx2)
        assert fs2.read_file("/app/config", ctx2) == expected
        check_invariants(fs2)

    def test_mmap_survives_across_workload_phases(self):
        fs, ctx, _ = _winefs()
        f = fs.create("/steady", ctx)
        f.fallocate(0, 4 * MIB, ctx)
        region = f.mmap(ctx)
        region.write(0, b"phase-1", ctx)
        # namespace churn around the mapping
        for i in range(50):
            g = fs.create(f"/churn{i}", ctx)
            g.append(b"\x00" * 8 * KIB, ctx)
            if i % 2:
                fs.unlink(f"/churn{i}", ctx)
        assert region.read(0, 7, ctx) == b"phase-1"
        region.unmap()


# -- model-based random operations -----------------------------------------------

_OPS = st.lists(
    st.tuples(st.sampled_from(["create", "write", "append", "truncate",
                               "unlink", "rename"]),
              st.integers(0, 4),            # file slot
              st.integers(0, 64 * KIB)),    # size/offset material
    min_size=1, max_size=40)


class TestModelBased:
    @given(_OPS)
    @settings(max_examples=25, deadline=None)
    def test_winefs_matches_dict_model(self, ops):
        """Random op sequences must leave WineFS agreeing with a trivial
        in-memory reference model (sizes + contents)."""
        fs, ctx, _ = _winefs(size=128 * MIB, num_cpus=2)
        model = {}
        for op, slot, arg in ops:
            path = f"/file{slot}"
            if op == "create":
                if path not in model:
                    fs.create(path, ctx).close()
                    model[path] = bytearray()
            elif op == "write" and path in model:
                offset = arg % max(1, len(model[path]) + 1)
                payload = bytes([slot + 65]) * 257
                fs.open(path, ctx).pwrite(offset, payload, ctx)
                buf = model[path]
                if len(buf) < offset + len(payload):
                    buf.extend(b"\x00" * (offset + len(payload) - len(buf)))
                buf[offset:offset + len(payload)] = payload
            elif op == "append" and path in model:
                payload = bytes([slot + 97]) * (arg % 9000 + 1)
                fs.open(path, ctx).append(payload, ctx)
                model[path].extend(payload)
            elif op == "truncate" and path in model:
                new_size = arg % (len(model[path]) + 2)
                fs.open(path, ctx).ftruncate(new_size, ctx)
                buf = model[path]
                if new_size <= len(buf):
                    del buf[new_size:]
                else:
                    buf.extend(b"\x00" * (new_size - len(buf)))
            elif op == "unlink" and path in model:
                fs.unlink(path, ctx)
                del model[path]
            elif op == "rename" and path in model:
                target = f"/file{(slot + 1) % 5}"
                if target != path:
                    fs.rename(path, target, ctx)
                    model[target] = model.pop(path)
        for path, buf in model.items():
            assert fs.read_file(path, ctx) == bytes(buf), path
        live = {p for p in model}
        names = {f"/{n}" for n in fs.readdir("/", ctx)}
        assert live == names
