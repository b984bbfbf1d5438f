"""Lower-level file-system internals: directory indexes, inode tables,
open-file handles, and the WineFS journal region mechanics."""

import dataclasses
import json
import math
import os
import random

import pytest

from repro.clock import make_context
from repro.core.journal import (ENTRY_BYTES, JournalEntry, JournalManager,
                                MAX_TXN_ENTRIES, TYPE_COMMIT, TYPE_DATA,
                                TYPE_START)
from repro.core.layout import Layout
from repro.errors import (BadFileError, CorruptionError, FSError,
                          NotFoundError)
from repro.fs.common.dirindex import LinearDirIndex, RBDirIndex
from repro.fs.common.inode import Inode, InodeTable
from repro.params import MIB
from repro.pm.device import PMDevice
from repro.core.filesystem import WineFS
from repro.harness import SPECS_BY_NAME, fresh_fs


class TestDirIndexes:
    @pytest.mark.parametrize("cls", [RBDirIndex, LinearDirIndex])
    def test_insert_lookup_remove(self, cls):
        idx = cls()
        idx.insert("alpha", 10)
        idx.insert("beta", 20)
        assert idx.lookup("alpha") == 10
        assert "beta" in idx
        assert idx.names() == ["alpha", "beta"]
        assert idx.remove("alpha") == 10
        assert idx.lookup("alpha") is None
        assert len(idx) == 1

    def test_rb_index_charges_log_cost(self):
        idx = RBDirIndex()
        for i in range(1000):
            idx.insert(f"entry{i}", i)
        ctx = make_context(1)
        idx.lookup("entry500", ctx)
        log_cost = ctx.now
        ctx2 = make_context(1)
        small = RBDirIndex()
        small.insert("one", 1)
        small.lookup("one", ctx2)
        assert log_cost < 20 * ctx2.now   # logarithmic, not linear

    def test_rb_index_charge_is_closed_form_of_entry_count(self):
        """Every insert/lookup/remove charges max(1, int(log2(n+1))+1)
        node visits, n being the entry count *before* the mutation."""
        def expect(n):
            return max(1, int(math.log2(n + 1)) + 1) * 18.0

        def charged(op, *args):
            ctx = make_context(1)
            op(*args, ctx)
            return ctx.now

        idx = RBDirIndex()
        for n in range(301):
            assert charged(idx.lookup, "absent") == expect(n)
            assert charged(idx.insert, f"e{n}", n) == expect(n)
        # re-inserting an existing name replaces it: the count stays put
        assert charged(idx.insert, "e7", 7000) == expect(301)
        assert len(idx) == 301 and idx.lookup("e7") == 7000
        for n in range(301, 0, -1):
            assert charged(idx.lookup, f"e{n - 1}") == expect(n)
            assert charged(idx.remove, f"e{n - 1}") == expect(n)
        assert charged(idx.lookup, "e0") == expect(0)

    def test_linear_index_charges_linear_cost(self):
        big = LinearDirIndex()
        for i in range(1000):
            big._entries[f"e{i}"] = i
        ctx_big = make_context(1)
        big.lookup("e999", ctx_big)
        small = LinearDirIndex()
        small._entries["e"] = 1
        ctx_small = make_context(1)
        small.lookup("e", ctx_small)
        assert ctx_big.now > 100 * ctx_small.now

    def test_rb_index_dram_accounting(self):
        idx = RBDirIndex()
        assert idx.dram_bytes == 0
        idx.insert("x", 1)
        assert idx.dram_bytes == 64
        assert LinearDirIndex().dram_bytes == 0   # PMFS keeps no index


_DIRINDEX_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                                "dirindex_golden.json")


def _dirindex_namespace_mix(fs_name):
    """Seeded create/mkdir/rename/unlink mix whose directories grow and
    shrink across the 2^k - 1 depth boundaries of the directory-index
    cost model; returns what the committed golden records.

    The golden was recorded at the parent of the commit that removed the
    shadow red-black tree from ``RBDirIndex``, so it pins the charges the
    tree's size used to produce.  Regenerate (only when the cost model
    intentionally changes) with ``json.dump({n: _dirindex_namespace_mix(n)
    for n in sorted(SPECS_BY_NAME)}, open(_DIRINDEX_GOLDEN, "w"), indent=1,
    sort_keys=True)``.
    """
    rng = random.Random(0xD1E)
    fs, ctx = fresh_fs(fs_name, size_gib=0.25, num_cpus=4)
    fs.mkdir("/grow", ctx)
    fs.mkdir("/side", ctx)
    live = []
    # grow one directory past 255 entries, probing present and absent
    # names as it crosses each boundary
    for i in range(300):
        path = f"/grow/f{i:03d}"
        fs.create(path, ctx)
        live.append(path)
        fs.getattr(rng.choice(live), ctx)
        with pytest.raises(NotFoundError):
            fs.getattr(f"/grow/absent{i}", ctx)
        if i % 37 == 0:
            fs.mkdir(f"/grow/d{i:03d}", ctx)
            fs.create(f"/grow/d{i:03d}/leaf", ctx)
    # an existing name entered again: straight at the index (entry count
    # unchanged), by unlink + create, and by rename onto a live name
    grow = fs._dirs[fs.getattr("/grow").ino]
    grow.insert("f007", grow.lookup("f007", ctx), ctx)
    fs.unlink("/grow/f008", ctx)
    fs.create("/grow/f008", ctx)
    fs.rename("/grow/f009", "/grow/f010", ctx)
    live.remove("/grow/f009")
    # seeded mix biased towards shrinking, across both directories
    serial = 0
    while len(live) > 40:
        roll = rng.random()
        if roll < 0.55:
            fs.unlink(live.pop(rng.randrange(len(live))), ctx)
        elif roll < 0.80:
            old = live.pop(rng.randrange(len(live)))
            new = f"/{rng.choice(('grow', 'side'))}/r{serial:04d}"
            fs.rename(old, new, ctx)
            live.append(new)
        elif roll < 0.90:
            path = f"/side/c{serial:04d}"
            fs.create(path, ctx)
            live.append(path)
        else:
            fs.mkdir(f"/side/m{serial:04d}", ctx)
            fs.rmdir(f"/side/m{serial:04d}", ctx)
        fs.readdir("/side", ctx.on_cpu(serial % 4))
        serial += 1
    # empty both directories entirely, then remove what can be removed
    for path in live:
        fs.unlink(path, ctx)
    for i in range(0, 300, 37):
        fs.unlink(f"/grow/d{i:03d}/leaf", ctx)
        fs.rmdir(f"/grow/d{i:03d}", ctx)
    assert fs.readdir("/grow", ctx) == [] and fs.readdir("/side", ctx) == []
    fs.rmdir("/grow", ctx)
    fs.create("/side/last", ctx)
    return {"clock": repr(ctx.clock.snapshot()),
            "counters": ctx.counters.as_dict(),
            "statfs": dataclasses.asdict(fs.statfs())}


@pytest.mark.parametrize("fs_name", sorted(SPECS_BY_NAME))
def test_dirindex_namespace_mix_matches_golden(fs_name):
    with open(_DIRINDEX_GOLDEN) as fh:
        golden = json.load(fh)
    assert _dirindex_namespace_mix(fs_name) == golden[fs_name]


class TestInodeTable:
    def test_allocate_sequential(self):
        table = InodeTable(first_ino=1, capacity=10)
        inos = [table.allocate().ino for _ in range(3)]
        assert inos == [1, 2, 3]
        assert len(table) == 3

    def test_free_and_recycle(self):
        table = InodeTable(first_ino=1, capacity=10)
        a = table.allocate()
        table.free(a.ino)
        b = table.allocate()
        assert b.ino == a.ino
        assert b.gen != a.gen      # recycled number, fresh identity

    def test_double_free_rejected(self):
        table = InodeTable(first_ino=1, capacity=10)
        a = table.allocate()
        table.free(a.ino)
        with pytest.raises(FSError):
            table.free(a.ino)

    def test_exhaustion(self):
        table = InodeTable(first_ino=1, capacity=2)
        table.allocate()
        table.allocate()
        with pytest.raises(FSError):
            table.allocate()

    def test_adopt_out_of_order(self):
        table = InodeTable(first_ino=1, capacity=10)
        table.adopt(Inode(ino=5))
        assert table.get(5) is not None
        # skipped slots become allocatable
        inos = {table.allocate().ino for _ in range(4)}
        assert inos == {1, 2, 3, 4}

    def test_adopt_outside_range_rejected(self):
        table = InodeTable(first_ino=1, capacity=4)
        with pytest.raises(FSError):
            table.adopt(Inode(ino=99))

    def test_free_count(self):
        table = InodeTable(first_ino=1, capacity=5)
        assert table.free_count == 5
        a = table.allocate()
        assert table.free_count == 4
        table.free(a.ino)
        assert table.free_count == 5


class TestOpenFileHandles:
    def test_closed_handle_rejected(self):
        device = PMDevice(64 * MIB)
        fs = WineFS(device, num_cpus=2)
        ctx = make_context(2)
        fs.mkfs(ctx)
        f = fs.create("/f", ctx)
        f.close()
        with pytest.raises(BadFileError):
            f.append(b"x", ctx)
        with pytest.raises(BadFileError):
            f.pread(0, 1, ctx)
        with pytest.raises(BadFileError):
            f.fsync(ctx)

    def test_handle_offset_tracking(self):
        device = PMDevice(64 * MIB)
        fs = WineFS(device, num_cpus=2)
        ctx = make_context(2)
        fs.mkfs(ctx)
        f = fs.create("/f", ctx)
        f.write(b"abc", ctx)
        f.write(b"def", ctx)
        assert f.offset == 6
        assert fs.read_file("/f", ctx) == b"abcdef"


class TestJournalRegion:
    def _mgr(self):
        device = PMDevice(64 * MIB, track_stores=True)
        layout = Layout(num_cpus=2, total_blocks=device.size // 4096)
        return JournalManager(device, layout), device, layout

    def test_entry_pack_unpack(self):
        e = JournalEntry(TYPE_DATA, wraparound=3, txn_id=42, addr=0x1000,
                         undo=b"old-bytes")
        raw = e.pack()
        assert len(raw) == ENTRY_BYTES
        back = JournalEntry.unpack(raw)
        assert back.txn_id == 42
        assert back.undo == b"old-bytes"
        assert back.wraparound == 3

    def test_zero_entry_unpacks_none(self):
        assert JournalEntry.unpack(b"\x00" * ENTRY_BYTES) is None

    @pytest.mark.parametrize("raw, expect", [
        (b"", CorruptionError),
        (b"\x01" * 10, CorruptionError),
        (b"\x01" * 27, CorruptionError),
        (b"\x01" * 28, CorruptionError),
        (b"\x01" * (ENTRY_BYTES - 1), CorruptionError),
        (b"\x01" * (ENTRY_BYTES + 1), CorruptionError),
        (JournalEntry(TYPE_DATA, 1, 7, 0x2000, b"undo").pack(), JournalEntry),
        (bytes(ENTRY_BYTES), None),
    ], ids=["0", "10", "27", "28", "63", "65", "valid", "zeros"])
    def test_unpack_fails_closed_on_any_other_length(self, raw, expect):
        """A record is exactly one entry long: anything else raises the
        typed error before a field is read, never ``struct.error``."""
        if expect is CorruptionError:
            with pytest.raises(CorruptionError, match="bytes, not"):
                JournalEntry.unpack(raw)
        elif expect is None:
            assert JournalEntry.unpack(raw) is None
        else:
            assert JournalEntry.unpack(raw).txn_id == 7

    def test_garbage_type_rejected(self):
        raw = bytearray(ENTRY_BYTES)
        raw[0] = 0x7F
        with pytest.raises(CorruptionError):
            JournalEntry.unpack(bytes(raw))

    def test_oversized_undo_rejected(self):
        with pytest.raises(FSError):
            JournalEntry(TYPE_DATA, 0, 1, 0, b"x" * 60).pack()

    def test_txn_lifecycle(self):
        mgr, device, layout = self._mgr()
        ctx = make_context(2)
        txn = mgr.begin(ctx)
        assert not txn.committed
        txn.commit(ctx)
        assert txn.committed
        with pytest.raises(FSError):
            txn.commit(ctx)

    def test_reserve_bounds_txn_size(self):
        mgr, device, layout = self._mgr()
        ctx = make_context(2)
        with pytest.raises(FSError):
            mgr.journals[0].reserve(MAX_TXN_ENTRIES + 1, ctx)

    def test_wraparound_counter_increments(self):
        mgr, device, layout = self._mgr()
        ctx = make_context(2)
        journal = mgr.journals[0]
        start_wrap = journal.wraparound
        for _ in range(journal.capacity + 2):
            journal.append(TYPE_START, 1, ctx)
        assert journal.wraparound > start_wrap

    def test_scan_orders_by_generation(self):
        """After a wraparound, scan returns entries oldest-first."""
        mgr, device, layout = self._mgr()
        ctx = make_context(2)
        journal = mgr.journals[0]
        total = journal.capacity + 4
        for i in range(total):
            journal.append(TYPE_DATA, i + 1, ctx)
        entries, skipped, _dirty = journal.scan()
        assert skipped == 0
        ids = [e.txn_id for e in entries]
        assert ids == sorted(ids)
        assert ids[-1] == total
