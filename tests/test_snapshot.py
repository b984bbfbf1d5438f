"""Snapshot codec, store, and aged-image cache tests.

Three layers:

* codec — pickle-free round trips: exact floats, shared references,
  cycles, whitelisting (anything foreign refuses at *encode* time);
* store — the cache's contract on its image files: CRC, version and
  truncation checks all fail closed (``load`` returns ``None``, callers
  re-age), a save replaces what its key held, the size cap evicts LRU;
* ``aged_fs`` integration — a restored image is *bit-identical* to a
  freshly aged one: replaying the same workload on both produces the
  same per-CPU clock floats, counters, metrics and statfs.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

import pytest

import repro.harness.setup as setup_mod
from repro.clock import make_context
from repro.harness import aged_fs
from repro.params import KIB, MIB
from repro.snapshot import Archive, codec, store
from repro.snapshot.codec import SnapshotDecodeError, SnapshotUnsupported
from tests.oracles import ReferenceFreePool


# -- codec -------------------------------------------------------------------


def _roundtrip(obj):
    return codec.decode(codec.encode(obj))


class TestCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2 ** 80, -(2 ** 80),
        "", "héllo", b"", b"\x00\xff", bytearray(b"abc"),
        [], [1, [2, [3]]], (), (1, (2,)), {}, {"a": 1, "b": [2]},
        set(), {3, 1, 2}, frozenset({"x", "y"}),
    ])
    def test_value_roundtrip(self, value):
        out = _roundtrip(value)
        assert out == value
        assert type(out) is type(value)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 0.1, 1 / 3, 5e-324, 1.7976931348623157e308,
        float("inf"), float("-inf"),
    ])
    def test_float_bit_exact(self, value):
        out = _roundtrip(value)
        assert repr(out) == repr(value)

    def test_nan_roundtrip(self):
        out = _roundtrip(float("nan"))
        assert out != out

    def test_dict_order_preserved(self):
        d = {"z": 1, "a": 2, "m": 3}
        assert list(_roundtrip(d)) == ["z", "a", "m"]

    def test_shared_reference_identity(self):
        shared = [1, 2]
        out = _roundtrip([shared, shared, {"k": shared}])
        assert out[0] is out[1] is out[2]["k"]

    def test_list_cycle(self):
        cyc = [1]
        cyc.append(cyc)
        out = _roundtrip(cyc)
        assert out[0] == 1 and out[1] is out

    def test_dict_cycle(self):
        d = {}
        d["self"] = d
        out = _roundtrip(d)
        assert out["self"] is out

    def test_tuple_cycle_unsupported(self):
        lst = []
        tup = (lst,)
        lst.append(tup)
        with pytest.raises(SnapshotUnsupported):
            codec.encode(tup)

    def test_callable_unsupported(self):
        with pytest.raises(SnapshotUnsupported):
            codec.encode({"fn": lambda: 0})

    def test_foreign_class_unsupported(self):
        class NotOurs:
            pass

        with pytest.raises(SnapshotUnsupported):
            codec.encode(NotOurs())
        # a test oracle subclasses a whitelisted class, yet never enters
        # the archive
        with pytest.raises(SnapshotUnsupported):
            codec.encode(ReferenceFreePool(0, 1024))

    def test_rng_unsupported(self):
        with pytest.raises(SnapshotUnsupported):
            codec.encode(random.Random(1))

    def test_whitelisted_instance_roundtrip(self):
        from repro.structures.extents import Extent, ExtentList

        ext = ExtentList([Extent(3, 8), Extent(100, 512)])
        out = _roundtrip(ext)
        assert type(out) is ExtentList
        assert out.total_blocks == ext.total_blocks
        assert [(e.start, e.length) for e in out] == \
               [(e.start, e.length) for e in ext]

    def test_null_tracer_identity(self):
        from repro.obs.trace import NULL_TRACER

        out = _roundtrip({"t": NULL_TRACER})
        assert out["t"] is NULL_TRACER

    def test_truncated_stream_rejected(self):
        blob = codec.encode({"a": [1, 2, 3]})
        with pytest.raises(SnapshotDecodeError):
            codec.decode(blob[:-2])

    def test_trailing_bytes_rejected(self):
        blob = codec.encode([1])
        with pytest.raises(SnapshotDecodeError):
            codec.decode(blob + b"\x00")

    def test_unknown_class_name_rejected(self):
        from repro.structures.extents import Extent

        blob = codec.encode(Extent(0, 1))
        assert b"repro.structures.extents:Extent" in blob
        bad = blob.replace(b"extents:Extent", b"extents:Extinct")
        with pytest.raises(SnapshotDecodeError):
            codec.decode(bad)

    @pytest.mark.parametrize("typecode,values", [
        ("d", [0.0, -0.0, 0.1, 1 / 3, 5e-324, float("inf")]),
        ("f", [0.0, 1.5, -2.25]),
        ("q", [-(2 ** 63), 0, 2 ** 63 - 1]),
        ("Q", [0, 2 ** 64 - 1]),
        ("l", [-1, 0, 7]),
        ("B", [0, 128, 255]),
        ("b", []),
    ])
    def test_array_roundtrip_byte_exact(self, typecode, values):
        """array.array columns (the SoA kernels' backing stores) must
        round-trip byte-for-byte — for 'd' that is IEEE-754 bit-exact."""
        from array import array

        arr = array(typecode, values)
        out = _roundtrip(arr)
        assert type(out) is array
        assert out.typecode == arr.typecode
        assert out.tobytes() == arr.tobytes()

    def test_array_shared_reference_identity(self):
        from array import array

        arr = array("d", [1.0, 2.0])
        out = _roundtrip([arr, arr])
        assert out[0] is out[1]
        assert out[0].tobytes() == arr.tobytes()

    def test_array_bad_typecode_rejected(self):
        from array import array

        blob = codec.encode(array("q", [1, 2]))
        bad = blob.replace(b"q", b"@", 1)
        with pytest.raises(SnapshotDecodeError):
            codec.decode(bad)

    def test_memoryview_unsupported(self):
        """Fail closed: views over someone else's buffer don't persist."""
        with pytest.raises(SnapshotUnsupported):
            codec.encode(memoryview(b"abc"))


# -- codec versions (v1 scattered tags vs v2 columnar) -----------------------


_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")


def _golden_value():
    """The object graph the committed golden blobs encode.

    ``snapshot_golden_v2.bin`` is ``codec.encode`` of this value (rewrite
    it only when the format intentionally changes);
    ``snapshot_golden_v1.bin`` was written by the v1 encoder before it was
    deleted and can never be regenerated; the v1 decode branches are gone
    too, so it now pins that a v1 stream fails closed.
    """
    from array import array

    from repro.structures.extents import Extent, ExtentList

    shared = [1, 2, 3]
    return {
        "ints": list(range(-5, 200, 7)) + [2**61, -(2**61), 2**80, -(2**80)],
        "int_tuple": tuple(range(40)),
        "int_map": {i: i * i for i in range(30)},
        "floats": [0.0, -0.0, 0.1, 1 / 3, 5e-324, float("inf")],
        "strings": ["alpha", "beta", "alpha", "beta", "alpha"],
        "bytes": b"\x00\x01\xfe\xff",
        "shared": [shared, shared],
        "extents": ExtentList([Extent(3, 8), Extent(100, 512)]),
        "column": array("q", [-(2**63), 0, 2**63 - 1]),
        "set": {5, 3, 1},
        "nested": {"a": [{"b": (1, 2)}], "c": None, "d": True},
    }


def _assert_golden_equal(out, expected):
    assert set(out) == set(expected)
    for key in expected:
        assert type(out[key]) is type(expected[key]), key
        if key == "extents":
            assert [(e.start, e.length) for e in out[key]] == \
                   [(e.start, e.length) for e in expected[key]]
        else:
            assert out[key] == expected[key], key
    assert out["shared"][0] is out["shared"][1]


def _golden_blob(version):
    path = os.path.join(_GOLDEN_DIR, f"snapshot_golden_v{version}.bin")
    with open(path, "rb") as handle:
        return handle.read()


def _v1_int_list(n):
    """The v1 stream of ``[n]``, framed by hand: ``l`` and ``i`` are v2
    tags too (``encode`` writes ``i`` for ints past the varint range), so
    the decoder must keep reading it."""
    raw = n.to_bytes((n.bit_length() + 8) // 8 or 1, "little", signed=True)
    return b"l\x01i" + bytes((len(raw),)) + raw


#: stream formats committed blobs were written in
_VERSIONS = (1, 2)
#: the one format ``decode`` reads and ``encode`` writes
_DECODED = (2,)


class TestCodecVersions:
    """One stream format: the encoder writes v2 and the decoder reads it.
    The committed v1 blob (nothing in the tree can write a v1 stream any
    more) must fail closed."""

    @pytest.mark.parametrize("version", _DECODED)
    def test_cross_version_roundtrip(self, version):
        """A graph read from the committed blob re-encodes and reads back."""
        value = codec.decode(_golden_blob(version))
        _assert_golden_equal(codec.decode(codec.encode(value)),
                             _golden_value())

    @pytest.mark.parametrize("version", _DECODED)
    def test_committed_golden_decodes(self, version):
        """The committed blob decodes to the graph it was written from."""
        _assert_golden_equal(codec.decode(_golden_blob(version)),
                             _golden_value())

    @pytest.mark.parametrize("version", _DECODED)
    def test_encode_deterministic(self, version):
        """A graph read from the committed blob encodes to its bytes — the
        same as encoding the graph built fresh."""
        value = codec.decode(_golden_blob(version))
        assert codec.encode(value) == codec.encode(_golden_value()) \
            == _golden_blob(2)

    def test_v1_stream_fails_closed(self):
        """The v1-only tags (``s`` strings, ``o`` instances) are gone: the
        committed v1 blob is rejected with the typed error."""
        with pytest.raises(SnapshotDecodeError, match="unknown tag"):
            codec.decode(_golden_blob(1))

    @pytest.mark.parametrize("version", _VERSIONS)
    @pytest.mark.parametrize("n", [
        0, 1, -1, 63, 64, -64, -65,
        (1 << 62) - 1, 1 << 62, -(1 << 62), -(1 << 62) - 1,
        (1 << 63) - 1, -(1 << 63), 1 << 200, -(1 << 200),
    ])
    def test_int_boundaries(self, version, n):
        """Every int round-trips across the varint fast-path boundary
        (|n| < 2**62) and beyond it in both formats."""
        blob = _v1_int_list(n) if version == 1 else codec.encode([n])
        out = codec.decode(blob)
        assert out == [n] and type(out[0]) is int

    def test_v2_interns_repeated_strings(self):
        """v2 emits each unique string once; repeats are table refs, so
        all equal strings decode to the very same object."""
        out = codec.decode(codec.encode(["spam" * 4] * 6))
        assert all(s is out[0] for s in out)

    def test_v2_interning_pays_for_itself(self):
        """Repeated strings are the shape interning targets; they must
        shrink hard.  (Packed int vectors deliberately trade bytes for
        decode speed, so they are not size-gated.)"""
        value = {"s": ["inode", "extent", "journal"] * 500}
        v1_bytes = 12008  # the last v1 encoder's stream of this value
        assert len(codec.encode(value)) < v1_bytes / 2

    @pytest.mark.parametrize("version", _VERSIONS)
    def test_truncation_rejected_everywhere(self, version):
        """Chopping the stream at any byte fails closed, never crashes
        with a non-codec error or returns a value."""
        blob = _golden_blob(version)
        rng = random.Random(7)
        cuts = {0, 1, len(blob) - 1} | {rng.randrange(len(blob))
                                        for _ in range(40)}
        for cut in cuts:
            with pytest.raises(SnapshotDecodeError):
                codec.decode(blob[:cut])


def _undeclared_slot_stream():
    """A v2 instance of a slotted whitelisted class that names an
    attribute the class has no slot for."""
    tag = b"repro.mmu.page_table:PageTable"
    return (b"P\x00" + bytes((len(tag),)) + tag   # class 0, first use
            + b"\x00\x01I\x02zz"                  # shape 0 = ("zz",)
            + b"N")                               # zz = None


#: streams whose decode used to escape as an untyped exception
_HOSTILE = {
    "unhashable-set-member": b"S\x01l\x00",
    "unhashable-dict-key": b"D\x01l\x00N",
    "unhashable-frozenset-member": b"Z\x01l\x00",
    "nesting-past-the-recursion-limit": b"l\x01" * 60000 + b"N",
    "array-bytes-not-a-multiple-of-the-item-size": b"a\x01q\x03abc",
    "bad-utf8-interned-string": b"I\x01\xff",
    "bad-utf8-under-the-deleted-v1-string-tag": b"s\x01\xff",
    "attribute-a-slotted-class-lacks": _undeclared_slot_stream(),
}


@pytest.mark.parametrize("blob", list(_HOSTILE.values()), ids=list(_HOSTILE))
def test_every_decode_failure_is_a_snapshot_decode_error(blob):
    """The stream is outside input: whatever is wrong with it, ``decode``
    raises the one typed error the cache turns into a re-age."""
    with pytest.raises(SnapshotDecodeError):
        codec.decode(blob)


# -- store -------------------------------------------------------------------


@pytest.fixture
def snap_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_SNAPSHOT", raising=False)
    return tmp_path


def stored_record(key):
    """The image file the cache holds for *key*, found the way a load
    finds it: by its key."""
    path = Archive(store.snapshot_dir()).path(key)
    assert os.path.exists(path)
    return path


def rewrite(path, mutate):
    """Damage a stored file in place; *mutate* maps its bytes to new ones."""
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(mutate(blob))


def with_version(version):
    """A *mutate* for :func:`rewrite` that stamps another store version
    into an image (it sits right after the magic, outside the CRC)."""
    at = len(store._MAGIC)
    raw = version.to_bytes(2, "little")
    return lambda blob: blob[:at] + raw + blob[at + 2:]


def flip_middle_byte(blob):
    middle = len(blob) // 2
    return blob[:middle] + bytes((blob[middle] ^ 0xFF,)) + blob[middle + 1:]


def images(directory):
    return sorted((directory / "images").glob("*.img"))


class TestStore:
    def test_save_load_roundtrip(self, snap_dir):
        key = store.cache_key({"kind": "unit", "n": 1})
        assert store.save(key, {"x": [1.5, "two"]}, meta={"n": 1})
        assert store.load(key) == {"x": [1.5, "two"]}
        # one image, one file named by its key, and nothing else
        assert [p.relative_to(snap_dir) for p in snap_dir.rglob("*")
                if p.is_file()] == [Path("images", f"{key}.img")]
        assert stored_record(key) == str(snap_dir / "images" / f"{key}.img")

    def test_missing_key(self, snap_dir):
        assert store.load("0" * 64) is None

    def test_unserializable_graph_not_saved(self, snap_dir):
        key = store.cache_key({"kind": "unit", "n": 2})
        assert store.save(key, {"fn": lambda: 0}) is False
        assert store.load_ex(key) == (None, "miss")
        assert images(snap_dir) == []

    def test_unusable_directory_is_soft(self, tmp_path, monkeypatch):
        """A cache that cannot be used costs a re-age, never an error."""
        blocker = tmp_path / "a-file"
        blocker.write_bytes(b"")
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(blocker / "cache"))
        assert store.save("ab" * 32, {"v": 1}) is False
        assert store.load_ex("ab" * 32) == (None, "miss")

    def _saved(self, what):
        key = store.cache_key({"kind": "unit", "corrupt": what})
        assert store.save(key, {"payload": list(range(32))})
        return key, stored_record(key)

    def test_corrupt_payload_rejected(self, snap_dir):
        key, path = self._saved("flip")
        rewrite(path, flip_middle_byte)
        assert store.load_ex(key) == (None, "corrupt")

    def test_truncated_file_rejected(self, snap_dir):
        key, path = self._saved("trunc")
        rewrite(path, lambda blob: blob[:len(blob) // 2])
        assert store.load_ex(key) == (None, "corrupt")

    def test_stale_version_rejected(self, snap_dir):
        # the u16 store version sits right after the image's magic and is
        # deliberately outside the CRC: bumping FORMAT_VERSION must
        # always invalidate, even against accidental CRC collisions
        key, path = self._saved("version")
        # an image from before the last bump, and one from a newer build
        for version in (store.FORMAT_VERSION - 1, store.FORMAT_VERSION + 1):
            rewrite(path, with_version(version))
            assert store.load_ex(key) == (None, "stale")

    def test_save_replaces_a_damaged_entry(self, snap_dir):
        """``os.replace`` semantics: whatever a key held, the next save
        wins, in the same one file."""
        key, path = self._saved("heal")
        rewrite(path, flip_middle_byte)
        assert store.load_ex(key) == (None, "corrupt")
        assert store.save(key, {"payload": "again"})
        assert store.load_ex(key) == ({"payload": "again"}, "hit")
        assert images(snap_dir) == [Path(path)]

    def test_cache_key_sensitivity(self):
        base = {"kind": "aged_fs", "fs": "WineFS", "seed": 7, "churn": 10.0}
        key = store.cache_key(base)
        assert key == store.cache_key(dict(reversed(list(base.items()))))
        for field, changed in [("seed", 8), ("fs", "NOVA"), ("churn", 10.5)]:
            assert key != store.cache_key({**base, field: changed})

    def test_cache_key_sees_dataclasses(self):
        from repro.aging import AGRAWAL
        from dataclasses import replace

        base = {"profile": AGRAWAL}
        tweaked = {"profile": replace(AGRAWAL, dir_fanout=AGRAWAL.dir_fanout + 1)}
        assert store.cache_key(base) != store.cache_key(tweaked)


class TestStoreSizeCap:
    """``$REPRO_SNAPSHOT_MAX_BYTES`` bounds the cache, LRU-first."""

    def _fill(self, count=4, payload=4096):
        keys = []
        for i in range(count):
            key = store.cache_key({"kind": "cap", "n": i})
            assert store.save(key, {"blob": bytes([i]) * payload})
            os.utime(stored_record(key), (i, i))  # oldest = lowest n
            keys.append(key)
        return keys

    @staticmethod
    def _size(key):
        return os.path.getsize(stored_record(key))

    def test_cap_drops_oldest_first(self, snap_dir):
        keys = self._fill()
        cap = self._size(keys[2]) + self._size(keys[3])
        out = Archive(str(snap_dir)).gc(cap)
        assert out["evicted"] == sorted(keys[:2])
        assert sum(os.path.getsize(p) for p in images(snap_dir)) <= cap
        assert [store.load(k) is not None for k in keys] == \
            [False, False, True, True]

    def test_save_applies_env_cap(self, snap_dir, monkeypatch):
        keys = self._fill(count=2)
        cap = int(self._size(keys[0]) * 2.5)
        monkeypatch.setenv("REPRO_SNAPSHOT_MAX_BYTES", str(cap))
        key = store.cache_key({"kind": "cap", "n": 99})
        assert store.save(key, {"blob": b"x" * 4096})
        assert store.load(key) is not None          # newest always kept
        assert store.load(keys[0]) is None          # oldest evicted
        assert len(images(snap_dir)) == 2
        assert sum(os.path.getsize(p) for p in images(snap_dir)) <= cap

    @pytest.mark.parametrize("raw", ["", "lots", "-1", "1e3"])
    def test_value_that_is_no_byte_count_is_no_cap(self, snap_dir,
                                                   monkeypatch, raw):
        monkeypatch.setenv("REPRO_SNAPSHOT_MAX_BYTES", raw)
        keys = self._fill(count=2)
        assert all(store.load(k) is not None for k in keys)

    def test_load_refreshes_recency(self, snap_dir):
        keys = self._fill(count=3)
        assert store.load(keys[0]) is not None      # touch the oldest
        cap = self._size(keys[0]) + self._size(keys[2])
        Archive(str(snap_dir)).gc(cap)
        assert store.load(keys[0]) is not None      # survived: recently used
        assert store.load(keys[1]) is None


# -- aged_fs integration -----------------------------------------------------


_AGE_KW = dict(size_gib=0.125, num_cpus=2, churn_multiple=0.5, seed=11)


def _replay(fs, ctx):
    """A deterministic post-restore workload touching every subsystem."""
    f = fs.create("/snap-replay", ctx)
    f.append_zeros(2 * MIB, ctx)
    f.fsync(ctx)
    region = f.mmap(ctx, length=2 * MIB)
    rng = random.Random(23)
    reads = []
    for _ in range(60):
        off = rng.randrange(0, 2 * MIB - 4 * KIB)
        reads.append(region.read(off, 4 * KIB, ctx))
        region.write(off, b"\x5a" * 512, ctx)
    region.unmap()
    f.close()
    fs.unlink("/snap-replay", ctx)
    device = fs.device
    return (ctx.clock.snapshot(), ctx.counters.as_dict(),
            (device.bytes_read, device.bytes_written,
             device.materialized_bytes), reads, fs.statfs())


def _assert_bit_identical(restored, reaged):
    for a, b in zip(restored[0], reaged[0]):
        assert a == b and repr(a) == repr(b)
    assert restored[1] == reaged[1]
    assert restored[2] == reaged[2]
    assert restored[3] == reaged[3]
    assert restored[4] == reaged[4]


class _CountingGeriatrix(setup_mod.Geriatrix):
    instances = 0

    def __init__(self, *args, **kwargs):
        type(self).instances += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def count_aging(monkeypatch):
    _CountingGeriatrix.instances = 0
    monkeypatch.setattr(setup_mod, "Geriatrix", _CountingGeriatrix)
    return _CountingGeriatrix


class TestAgedSnapshotCache:
    def test_warm_call_skips_aging(self, snap_dir, count_aging):
        aged_fs("WineFS", **_AGE_KW)
        assert count_aging.instances == 1
        (image,) = images(snap_dir)
        cold = image.read_bytes()
        aged_fs("WineFS", **_AGE_KW)
        assert count_aging.instances == 1  # restored, not re-aged
        # cold then warm leaves exactly the one image file, unchanged
        assert [p for p in snap_dir.rglob("*") if p.is_file()] == [image]
        assert image.read_bytes() == cold

    def test_snapshot_env_opt_out(self, snap_dir, count_aging, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT", "0")
        aged_fs("WineFS", **_AGE_KW)
        aged_fs("WineFS", **_AGE_KW)
        assert count_aging.instances == 2
        assert list(snap_dir.iterdir()) == []

    def test_snapshot_kwarg_opt_out(self, snap_dir, count_aging):
        aged_fs("WineFS", snapshot=False, **_AGE_KW)
        assert list(snap_dir.iterdir()) == []

    @pytest.mark.parametrize("fs_name", ["WineFS", "NOVA", "ext4-DAX"])
    def test_restore_bit_identical(self, snap_dir, fs_name):
        fs_cold, ctx_cold = aged_fs(fs_name, **_AGE_KW)   # ages + saves
        # directory indexes are plain dicts: no tree rides in the image
        (image,) = images(snap_dir)
        blob = image.read_bytes()
        assert b"repro.fs.common.dirindex:" in blob
        assert b"repro.structures.rbtree:" not in blob
        reaged = _replay(fs_cold, ctx_cold)
        fs_warm, ctx_warm = aged_fs(fs_name, **_AGE_KW)   # restores
        _assert_bit_identical(_replay(fs_warm, ctx_warm), reaged)

    def test_restore_matches_uncached_aging(self, snap_dir):
        fs_a, ctx_a = aged_fs("PMFS", **_AGE_KW)
        fs_b, ctx_b = aged_fs("PMFS", snapshot=False, **_AGE_KW)
        _assert_bit_identical(_replay(fs_a, ctx_a), _replay(fs_b, ctx_b))

    def test_corrupt_snapshot_falls_back_to_aging(self, snap_dir,
                                                  count_aging):
        aged_fs("WineFS", **_AGE_KW)
        (image,) = images(snap_dir)
        rewrite(image, flip_middle_byte)
        with pytest.warns(RuntimeWarning, match="could not be restored"):
            fs, ctx = aged_fs("WineFS", **_AGE_KW)
        assert count_aging.instances == 2  # re-aged, the run goes on
        assert ctx.clock.elapsed == 0.0

    def test_run_after_a_corrupt_image_is_a_hit(self, snap_dir, count_aging,
                                                restore_warnings):
        """The run that meets a damaged image re-ages, warns once and
        heals the cache; the run after restores — from the one image
        file — and warns no more."""
        fs, ctx = aged_fs("WineFS", **_AGE_KW)
        cold = _replay(fs, ctx)
        (image,) = images(snap_dir)
        rewrite(image, flip_middle_byte)
        (fs, ctx), warned = restore_warnings(aged_fs, "WineFS", **_AGE_KW)
        assert count_aging.instances == 2
        assert len(warned) == 1
        assert "WineFS" in warned[0] and "(corrupt)" in warned[0]
        (fs, ctx), warned = restore_warnings(aged_fs, "WineFS", **_AGE_KW)
        assert count_aging.instances == 2  # restored
        assert warned == []
        _assert_bit_identical(_replay(fs, ctx), cold)
        assert images(snap_dir) == [image]

    def test_distinct_parameters_distinct_snapshots(self, snap_dir):
        aged_fs("WineFS", **_AGE_KW)
        aged_fs("WineFS", **{**_AGE_KW, "seed": 12})
        assert len(images(snap_dir)) == 2

    def test_warm_restore_speedup(self, snap_dir):
        kw = dict(size_gib=0.25, num_cpus=4, churn_multiple=2.0, seed=3)
        t0 = time.perf_counter()
        aged_fs("WineFS", **kw)
        cold_s = time.perf_counter() - t0
        warm_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            aged_fs("WineFS", **kw)
            warm_s = min(warm_s, time.perf_counter() - t0)
        assert cold_s / warm_s >= 5.0, (
            f"warm restore {warm_s:.3f}s vs cold aging {cold_s:.3f}s "
            f"({cold_s / warm_s:.1f}x, need >= 5x)")


class TestAgedResetState:
    """Aging is setup, not measurement: every accumulator starts at zero."""

    def test_clock_counters_zero_after_aging(self, snap_dir):
        fs, ctx = aged_fs("WineFS", snapshot=False, **_AGE_KW)
        assert ctx.clock.snapshot() == [0.0] * 2
        assert all(v == 0 for v in ctx.counters.as_dict().values())
        assert fs.device.bytes_read == 0
        assert fs.device.bytes_written == 0

    def test_restored_image_starts_zeroed(self, snap_dir):
        aged_fs("WineFS", **_AGE_KW)
        fs, ctx = aged_fs("WineFS", **_AGE_KW)
        assert ctx.clock.snapshot() == [0.0] * 2
        assert all(v == 0 for v in ctx.counters.as_dict().values())

    def test_first_op_pays_no_stale_lock_wait(self, snap_dir):
        """Regression: lock free-times are absolute; without
        ``reset_timeline`` the first post-aging acquisition of any lock
        held during aging pays the whole aging makespan as a wait."""
        fs, ctx = aged_fs("WineFS", snapshot=False, **_AGE_KW)
        fs.create("/after-aging", ctx).close()
        assert ctx.counters.lock_wait_ns == 0
        assert ctx.locks.contended_waits == 0

    def test_lock_manager_reset_timeline(self):
        ctx = make_context(2)
        ctx.locks.acquire("L", 0)
        ctx.clock.charge(0, 5_000.0)
        ctx.locks.release("L", 0)
        ctx.clock.reset()
        ctx.locks.reset_timeline()
        ctx.locks.acquire("L", 1)  # fresh timeline: no spurious wait
        assert ctx.clock.now(1) == 0.0
        assert ctx.counters.lock_wait_ns == 0.0
