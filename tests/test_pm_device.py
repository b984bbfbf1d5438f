"""PM device tests: data path, persistence semantics, crash images."""

import random

import pytest

from repro.aging import AGRAWAL, Geriatrix
from repro.clock import make_context
from repro.errors import PMError
from repro.harness import ALL_SPECS
from repro.params import BASE_PAGE, BLOCK_SIZE, MIB
from repro.pm.device import _MAX_SEGMENTS, PMDevice, _SparsePages
from repro.snapshot.codec import encode
from repro.workloads.microbench import mmap_rw_benchmark

from .oracles import ReferenceSparsePages
from .oracles.store_log import in_flight_stores


class TestDataPath:
    def test_store_load_roundtrip(self):
        dev = PMDevice(1 * MIB)
        dev.store(100, b"hello")
        assert dev.load(100, 5) == b"hello"

    def test_unwritten_reads_zero(self):
        dev = PMDevice(1 * MIB)
        assert dev.load(0, 8) == b"\x00" * 8

    def test_cross_page_write(self):
        dev = PMDevice(1 * MIB)
        data = bytes(range(256)) * 40
        dev.store(4096 - 100, data)
        assert dev.load(4096 - 100, len(data)) == data

    def test_out_of_range_rejected(self):
        dev = PMDevice(1 * MIB)
        with pytest.raises(PMError):
            dev.load(1 * MIB - 2, 4)
        with pytest.raises(PMError):
            dev.store(-1, b"x")

    def test_bad_size_rejected(self):
        with pytest.raises(PMError):
            PMDevice(1000)    # not a page multiple
        with pytest.raises(PMError):
            PMDevice(0)

    def test_costs_charged(self):
        dev = PMDevice(1 * MIB)
        ctx = make_context(1)
        dev.store(0, b"x" * 1024, ctx)
        assert ctx.now > 0
        assert ctx.counters.pm_bytes_written == 1024
        before = ctx.now
        dev.load(0, 1024, ctx)
        assert ctx.now > before
        assert ctx.counters.pm_bytes_read == 1024

    def test_sparse_materialization(self):
        dev = PMDevice(64 * MIB)
        assert dev.materialized_bytes == 0
        dev.store(0, b"x")
        assert dev.materialized_bytes == 4096


class TestPersistence:
    def test_unfenced_store_is_in_flight(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.store(0, b"abc")
        assert len(in_flight_stores(dev)) == 1

    def test_fence_without_flush_leaves_in_flight(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.store(0, b"abc")
        dev.sfence()
        assert len(in_flight_stores(dev)) == 1

    def test_flush_plus_fence_makes_durable(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.store(0, b"abc")
        dev.clwb(0, 3)
        dev.sfence()
        assert in_flight_stores(dev) == []

    def test_persist_shorthand(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.persist(64, b"durable")
        assert in_flight_stores(dev) == []

    def test_crash_image_drops_unfenced(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.persist(0, b"old")
        dev.store(0, b"new")
        img = dev.crash_image()
        assert img.load(0, 3) == b"old"

    def test_crash_image_subset_survives(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.persist(0, b"AAAA")
        dev.store(0, b"B")       # seq n
        dev.store(2, b"C")       # seq n+1
        flights = in_flight_stores(dev)
        img = dev.crash_image([flights[1].seq])
        assert img.load(0, 4) == b"AACA"

    def test_crash_image_unknown_seq_rejected(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        with pytest.raises(PMError):
            dev.crash_image([12345])

    def test_crash_image_requires_tracking(self):
        dev = PMDevice(1 * MIB)
        with pytest.raises(PMError):
            dev.crash_image()

    def test_drain_makes_everything_durable(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.store(0, b"x" * 200)
        dev.drain()
        assert in_flight_stores(dev) == []
        assert dev.crash_image().load(0, 200) == b"x" * 200

    def test_crash_image_after_drain_equals_the_volatile_image(self):
        """drain() writes back exactly the records no clwb has covered:
        whatever state a store was left in, it is durable afterwards."""
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.persist(0, b"f" * 100)                  # already fenced
        dev.store(4096, b"u" * 300)                 # never flushed
        dev.store(8192, b"p" * 300)                 # partly flushed: one of
        dev.clwb(8192, 64)                          # its five lines
        dev.store(12288, b"w" * 70)                 # flushed, never fenced
        dev.clwb(12288, 70)
        dev.store(4096 + 64, b"o" * 64)             # overlaps an older store
        assert len(in_flight_stores(dev)) == 4
        assert dev.crash_image().load(4096, 300) == bytes(300)
        dev.drain()
        assert in_flight_stores(dev) == []
        assert dev.crash_image().load(0, 16384) == dev.load(0, 16384)
        assert dev.load(4096, 300) == b"u" * 64 + b"o" * 64 + b"u" * 172
        # and a later store starts from a clean log
        dev.store(0, b"z")
        assert [r.addr for r in in_flight_stores(dev)] == [0]

    def test_fence_moves_an_unflushed_record_down_the_log_whole(self):
        """sfence folds the flushed records and compacts the columns: a
        record behind a folded one keeps its own seq, address and bytes."""
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.store(0, b"f" * 64)                     # seq 0: flushed, fenced
        dev.store(4096, b"u" * 64)                  # seq 1: stays in flight
        dev.clwb(0, 64)
        dev.sfence()
        (rec,) = in_flight_stores(dev)
        assert (rec.seq, rec.addr, rec.data) == (1, 4096, b"u" * 64)
        assert dev.crash_image([1]).load(4096, 64) == b"u" * 64
        dev.clwb(4096, 64)
        dev.sfence()
        assert dev.crash_image().load(0, 8192) == dev.load(0, 8192)


def _payload(pages: int, at: int = 0) -> bytes:
    """Distinct bytes (no 256-byte period lines up with a page), one
    object per call."""
    return bytes((i * 7 + at) % 251 for i in range(pages * BASE_PAGE))


class TestPayloadAliasing:
    """A ``bytes`` write of any length is referenced by the pages it
    lands on (a page it covers in full is a one-segment page, the
    "view page" of these names); a read of exactly that object's span
    returns it."""

    ADDR = 3 * BASE_PAGE + 100          # a partial head and tail page

    def test_mutated_bytearray_source_never_changes_pm(self):
        dev = PMDevice(1 * MIB)
        for addr in (0, self.ADDR):
            source = bytearray(_payload(3))
            dev.store(addr, source)
            dev.persist(addr + 8 * BASE_PAGE, source)
            dev.store(addr + 16 * BASE_PAGE, source[:BASE_PAGE])
            kept = bytes(source)
            source[:] = bytes(len(source))
            assert dev.load(addr, len(kept)) == kept
            assert dev.load(addr + 8 * BASE_PAGE, len(kept)) == kept
            assert dev.load(addr + 16 * BASE_PAGE, BASE_PAGE) \
                == kept[:BASE_PAGE]

    def test_partial_overwrite_of_a_view_page_copies_it(self):
        dev = PMDevice(1 * MIB)
        data = _payload(4)
        kept = bytes(bytearray(data))
        dev.store(self.ADDR, data)
        assert dev.materialized_bytes == 5 * BASE_PAGE
        inside = self.ADDR + 2 * BASE_PAGE + 10    # a full page of data
        dev.store(inside, b"XYZ")
        assert data == kept                        # the source is untouched
        expect = bytearray(kept)
        expect[2 * BASE_PAGE + 10:2 * BASE_PAGE + 13] = b"XYZ"
        got = dev.load(self.ADDR, len(data))
        assert got == expect and got is not data
        assert dev.materialized_bytes == 5 * BASE_PAGE

    def test_zero_copy_read_only_while_every_page_carries_the_object(self):
        # a one-page write, an aligned write, and one with a partial head
        # and tail page, each then disturbed by one byte in one page
        for addr, pages, offset in (
                (BASE_PAGE, 1, 100),
                (BASE_PAGE, 3, BASE_PAGE + 7),          # a middle page
                (self.ADDR, 3, 5000),                   # a full page
                (self.ADDR, 3, 0),                      # the head page
                (self.ADDR, 3, 3 * BASE_PAGE - 1)):     # the tail page
            dev = PMDevice(1 * MIB)
            data = _payload(pages, at=offset)
            dev.store(addr, data)
            assert dev.load(addr, len(data)) is data
            assert dev.load(addr, len(data) - 1) == data[:-1]
            assert dev.load(addr + 1, len(data) - 1) == data[1:]
            # the same bytes written by someone else are not the object
            other = PMDevice(1 * MIB)
            other.store(addr, data)
            other.store(addr, bytearray(data))
            assert other.load(addr, len(data)) is not data
            dev.store(addr + offset, bytes([data[offset] ^ 0xFF]))
            got = dev.load(addr, len(data))
            assert got is not data
            assert got[offset] == data[offset] ^ 0xFF
            assert got[:offset] == data[:offset]
            assert got[offset + 1:] == data[offset + 1:]

    def test_an_object_rewritten_elsewhere_is_not_returned_at_either_span(
            self):
        dev = PMDevice(1 * MIB)
        data = _payload(4)
        dev.store(0, data)
        dev.store(2 * BASE_PAGE, data)          # overlaps its own first copy
        assert dev.load(2 * BASE_PAGE, len(data)) is data
        got = dev.load(0, len(data))
        assert got is not data
        assert got == data[:2 * BASE_PAGE] + data[:2 * BASE_PAGE]

    def test_last_page_cache_dropped_when_a_view_replaces_its_page(self):
        dev = PMDevice(1 * MIB)
        dev.store(2 * BASE_PAGE + 5, b"a")        # caches page 2
        data = _payload(3)
        dev.store(BASE_PAGE, data)                # page 2 becomes a view
        dev.store(2 * BASE_PAGE + 5, b"b")        # copies it, not the cache
        got = dev.load(BASE_PAGE, len(data))
        assert got[BASE_PAGE + 5] == ord("b")
        assert got[:BASE_PAGE + 5] == data[:BASE_PAGE + 5]
        assert got[BASE_PAGE + 6:] == data[BASE_PAGE + 6:]

    def test_crash_image_over_view_pages(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        durable, pending = _payload(3, at=1), _payload(2, at=2)
        dev.persist(self.ADDR, durable)
        dev.store(self.ADDR + 4 * BASE_PAGE, pending)
        dev.store(self.ADDR + BASE_PAGE, b"later")
        image = dev.crash_image()
        assert image.load(self.ADDR, len(durable)) == durable
        assert image.load(self.ADDR + 4 * BASE_PAGE, len(pending)) \
            == bytes(len(pending))
        (seq,) = [r.seq for r in in_flight_stores(dev)
                  if r.data is pending]
        image = dev.crash_image([seq])
        assert image.load(self.ADDR + 4 * BASE_PAGE, len(pending)) \
            == pending
        image.store(self.ADDR + 4 * BASE_PAGE + BASE_PAGE, b"!")
        assert pending == _payload(2, at=2)

    def test_snapshot_encodes_view_pages_as_the_copies_they_replace(self):
        from repro.snapshot.codec import decode, encode

        data = _payload(3)
        aliased, copied = PMDevice(1 * MIB), PMDevice(1 * MIB)
        aliased.store(self.ADDR, data)
        copied.store(self.ADDR, bytearray(data))
        assert aliased.load(self.ADDR, len(data)) is data
        assert copied.load(self.ADDR, len(data)) is not data
        blob = encode(aliased)
        assert blob == encode(copied)
        restored = decode(blob)
        assert restored.load(self.ADDR, len(data)) == data
        restored.store(self.ADDR + BASE_PAGE, b"restored pages are mutable")

    def test_an_object_under_a_page_is_returned_at_its_span(self):
        for addr in (BASE_PAGE + 40, 2 * BASE_PAGE - 60):   # one page, two
            dev = PMDevice(1 * MIB)
            data = bytes(range(100))
            dev.store(addr, data)
            assert dev.load(addr, 100) is data
            assert dev.load(addr, 99) == data[:99]
            dev.store(addr + 100, b"after")               # next to it
            dev.store(addr - 5, b"front")
            assert dev.load(addr, 100) is data
            dev.store(addr + 50, b"!")                    # inside it
            got = dev.load(addr, 100)
            assert got is not data
            assert got == data[:50] + b"!" + data[51:]
            dev.store(addr + 50, data[50:51])
            assert dev.load(addr, 100) == data

    def test_a_mutable_write_beside_an_object_copies_its_page(self):
        dev = PMDevice(1 * MIB)
        data = bytes(range(100))
        dev.store(BASE_PAGE + 40, data)
        dev.store(BASE_PAGE + 300, bytearray(b"mutable"))
        assert dev.load(BASE_PAGE + 40, 100) == data
        assert dev.load(BASE_PAGE + 40, 100) is not data
        assert dev.load(BASE_PAGE + 300, 7) == b"mutable"

    def test_a_page_past_the_segment_limit_is_materialized(self):
        dev = PMDevice(1 * MIB)
        objs = [bytes([i + 1]) * 10 for i in range(_MAX_SEGMENTS + 1)]
        for i, obj in enumerate(objs[:-1]):
            dev.store(BASE_PAGE + 20 * i, obj)
        assert type(dev._store._pages[1]) is tuple
        dev.store(BASE_PAGE + 20 * _MAX_SEGMENTS, objs[-1])
        assert type(dev._store._pages[1]) is bytearray
        assert dev.materialized_bytes == BASE_PAGE
        for i, obj in enumerate(objs):
            got = dev.load(BASE_PAGE + 20 * i, 20)
            assert got == obj + bytes(10)

    def test_a_write_punches_every_segment_it_overlaps(self):
        # segments that straddle the write's start, sit inside it,
        # straddle its end, and cover it with both ends left over
        dev = PMDevice(1 * MIB)
        parts = [bytes([c]) * 100 for c in b"ABCD"]
        for i, part in enumerate(parts):
            dev.store(1000 + 100 * i, part)
        dev.store(1050, b"x" * 200)               # into A, over B, into C
        assert dev.load(1000, 400) == (b"A" * 50 + b"x" * 200 + b"C" * 50
                                       + b"D" * 100)
        dev.store(1320, b"y" * 10)                # the middle of D
        dev.store(1350, bytes(10))
        assert dev.load(1300, 100) == (b"D" * 20 + b"y" * 10 + b"D" * 20
                                       + bytes(10) + b"D" * 40)
        assert dev.load(0, 1000) == bytes(1000)
        assert dev.load(1400, 100) == bytes(100)


def _oracle_stream(ref: ReferenceSparsePages) -> bytes:
    """The snapshot stream of the view-page store: its view pages as the
    bytearrays they stand for, without the alias registry."""
    shell = _SparsePages.__new__(_SparsePages)
    for name, value in ref.__dict__.items():
        if name == "_alias":
            continue
        if name == "_pages":
            value = {k: bytearray(v) if type(v) is memoryview else v
                     for k, v in value.items()}
        shell.__dict__[name] = value
    return encode(shell)


#: the store the differential runs on: few pages, so writes overlap
DIFF_PAGES = 12


class TestAgainstViewPageOracle:
    """The segment-page store against the view-page store it replaced
    (``tests/oracles/sparse_pages.py``), over seeded operation mixes:
    the same bytes read back, the same pages in the same order, the same
    ``materialized_bytes`` and the same snapshot stream (which pins the
    single-page write cache).  A read of exactly the span a ``bytes``
    object was written to is that object until a write overlaps it, as
    long as every page it spans is still a segment page."""

    @staticmethod
    def _span(rng):
        kind = rng.randrange(5)
        if kind >= 3:       # small, packed into one page: many segments
            return rng.randrange(BASE_PAGE // 4), rng.randint(1, 24), True
        if kind == 0:                                   # sub-page
            length = rng.randint(1, 300)
            addr = rng.randrange(DIFF_PAGES * BASE_PAGE - length)
        elif kind == 1:                                 # page-aligned
            pages = rng.randint(1, 3)
            addr = rng.randrange(DIFF_PAGES - pages + 1) * BASE_PAGE
            length = pages * BASE_PAGE
        else:                                           # crosses pages
            length = rng.randint(BASE_PAGE // 2, 3 * BASE_PAGE)
            addr = rng.randrange(DIFF_PAGES * BASE_PAGE - length)
        return addr, length, False

    @pytest.mark.parametrize("seed", range(16))
    def test_seeded_differential(self, seed):
        rng = random.Random(seed)
        size = DIFF_PAGES * BASE_PAGE
        store, ref = _SparsePages(size), ReferenceSparsePages(size)
        live = []                       # (addr, obj) of intact bytes writes
        for step in range(300):
            op = rng.random()
            addr, length, small = self._span(rng)
            if op < 0.85:
                fill = rng.randrange(256)
                raw = bytes((fill + i) % 256 for i in range(length))
                kind = "bytes" if small else rng.choice((
                    "bytes", "bytes", "bytes", "bytearray", "memoryview"))
                data = {"bytes": raw, "bytearray": bytearray(raw),
                        "memoryview": memoryview(raw)}[kind]
                store.write(addr, data)
                ref.write(addr, data)
            elif op < 0.97:
                assert store.read(addr, length) == ref.read(addr, length)
                continue
            else:
                store, ref = store.clone(), ref.clone()
                assert all(type(page) is bytearray
                           for page in store._pages.values())
                live = []
                continue
            live = [(a, obj) for a, obj in live
                    if a + len(obj) <= addr or a >= addr + length]
            if kind == "bytes":
                live.append((addr, data))
            assert list(store._pages) == list(ref._pages), step
            assert store.materialized_bytes() == ref.materialized_bytes()
            for a, obj in live:
                got = store.read(a, len(obj))
                assert got == ref.read(a, len(obj)) == obj
                pages = range(a // BASE_PAGE, (a + len(obj) - 1) // BASE_PAGE
                              + 1)
                if all(type(store._pages[p]) is tuple for p in pages):
                    assert got is obj, (step, a, len(obj))
            if step % 10 == 0:
                assert encode(store) == _oracle_stream(ref), step
        for addr in range(0, size, 1000):
            assert store.read(addr, 1500) == ref.read(addr, 1500)
        assert encode(store) == _oracle_stream(ref)


class TestEpochCapture:
    def test_capture_groups_by_fence(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.start_capture()
        dev.persist(0, b"A")     # epoch 0
        dev.persist(64, b"B")    # epoch 1
        dev.store(128, b"C")     # never fenced
        groups = dev.end_capture()
        assert len(groups) == 3
        assert groups[0][0] == 0 and len(groups[0][1]) == 1
        assert groups[1][0] == 1
        assert groups[2][0] is None

    def test_capture_crash_image_before_epoch(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.persist(0, b"base")
        dev.start_capture()
        dev.persist(0, b"new1")
        dev.persist(0, b"new2")
        # crash before epoch 0 retired, nothing survives -> base state
        img = dev.capture_crash_image(0, [])
        assert img.load(0, 4) == b"base"
        # crash before epoch 1: epoch-0 store durable
        img = dev.capture_crash_image(1, [])
        assert img.load(0, 4) == b"new1"
        # final crash point: both fenced epochs durable
        img = dev.capture_crash_image(None, [])
        assert img.load(0, 4) == b"new2"

    def test_capture_survivor_subset(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.start_capture()
        dev.store(0, b"X")
        dev.store(1, b"Y")
        dev.clwb(0, 2)
        dev.sfence()
        groups = dev.end_capture()
        epoch, seqs = groups[0]
        img = dev.capture_crash_image(epoch, [seqs[1]])
        assert img.load(0, 2) == b"\x00Y"

    def test_capture_requires_tracking(self):
        dev = PMDevice(1 * MIB)
        with pytest.raises(PMError):
            dev.start_capture()


class _PayloadTypes(PMDevice):
    """A device that records the type of every payload it is handed."""

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self.types = set()

    def store(self, addr, data, ctx=None):
        self.types.add(type(data))
        super().store(addr, data, ctx)

    def persist(self, addr, data, ctx=None):
        self.types.add(type(data))
        super().persist(addr, data, ctx)


def test_every_model_hands_the_device_only_bytes():
    """The device stores bytes: a ``Zeros`` stand-in that reached it
    would be copied element by element into a materialized page.  Every
    model, moving real bytes or cost-only, keeps its zero runs above
    the device through aging, zero writes and mmap'd writes into
    fallocated and sparse files."""
    size, cpus = 64 * MIB, 2
    for spec in ALL_SPECS:
        for track_data in (False, True):
            device = _PayloadTypes(size)
            fs = spec.build(device, cpus, track_data=track_data)
            ctx = make_context(cpus)
            fs.mkfs(ctx)
            Geriatrix(fs, AGRAWAL, 0.4, seed=3, concurrency=2).age(
                ctx, size // 4)
            f = fs.create("/zeros", ctx)
            f.append_zeros(3 * BLOCK_SIZE + 5, ctx)
            f.pwrite_zeros(BLOCK_SIZE + 7, 2 * BLOCK_SIZE, ctx)
            for create in ("fallocate", "ftruncate"):
                mmap_rw_benchmark(fs, ctx, file_size=4 * MIB,
                                  io_size=256 * 1024, path="/" + create,
                                  create=create)
            assert device.types <= {bytes, bytearray}, \
                (spec.name, track_data, device.types)
