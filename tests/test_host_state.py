"""Host state is bounded by live state.

What the simulator keeps in host memory must grow with what is alive in
the simulated machine, not with everything it has ever seen: the path
helpers hold no process-wide caches, the lock table forgets the names of
freed inodes, and the RocksDB model's key index is one packed array.
None of it may move a simulated nanosecond; these tests pin both halves.
"""

from __future__ import annotations

import random

import pytest

from repro.aging import AGRAWAL, Geriatrix
from repro.clock import make_context
from repro.errors import InvalidArgumentError, NotFoundError
from repro.fs import Ext4DAX
from repro.harness.setup import make_fs
from repro.params import GIB, KIB, MIB
from repro.pm.device import PMDevice
from repro.vfs import path as vpath
from repro.workloads.rocksdb import RocksDBModel


# -- the path helpers against the implementation they replaced -------------------


class _ReferencePaths:
    """The path helpers as they were before the fast path (minus their
    ``lru_cache``s, which never changed a result)."""

    @staticmethod
    def normalize_path(path):
        if not path or not path.startswith("/"):
            raise InvalidArgumentError(f"path must be absolute: {path!r}")
        parts = [p for p in path.split("/") if p]
        for part in parts:
            if part in (".", ".."):
                raise InvalidArgumentError(
                    f"'.' and '..' unsupported: {path!r}")
        return "/" + "/".join(parts)

    @classmethod
    def split_path(cls, path):
        return [p for p in cls.normalize_path(path).split("/") if p]

    @classmethod
    def parent_of(cls, path):
        parts = cls.split_path(path)
        if not parts:
            raise InvalidArgumentError("root has no parent")
        return "/" + "/".join(parts[:-1])

    @classmethod
    def basename_of(cls, path):
        parts = cls.split_path(path)
        if not parts:
            raise InvalidArgumentError("root has no name")
        return parts[-1]


PATH_CORPUS = [
    "/", "//", "///", "/a", "/a/", "/a//", "//a", "/a//b", "/a/b/c",
    "/a/b/c/", "/.hidden", "/a/.hidden", "/a/.hidden/", "/a/b.c", "/a./b",
    "/...", "/a/...", "/.", "/./", "/./a", "/a/.", "/a/./b", "/..",
    "/a/..", "/../a", "/a/../b", "a", "a/b", "./a", "../a", ".", "..",
    "", " ", "/ ", "/a b/c",
]


def _random_paths(n, seed):
    rng = random.Random(seed)
    pieces = ["a", "bc", ".", "..", ".h", "x.", "", "..."]
    out = []
    for _ in range(n):
        parts = [rng.choice(pieces) for _ in range(rng.randrange(0, 5))]
        lead = rng.choice(["/", "/", "//", ""])
        tail = rng.choice(["", "", "/"])
        out.append(lead + "/".join(parts) + tail)
    return out


def _outcome(fn, path):
    try:
        return ("ok", fn(path))
    except InvalidArgumentError as exc:
        return ("invalid", str(exc))


@pytest.mark.parametrize("helper", ["normalize_path", "split_path",
                                    "parent_of", "basename_of"])
def test_path_helpers_match_the_reference(helper):
    new, ref = getattr(vpath, helper), getattr(_ReferencePaths, helper)
    for path in PATH_CORPUS + _random_paths(2000, seed=helper):
        assert _outcome(new, path) == _outcome(ref, path), path


def test_canonical_path_comes_back_as_the_same_object():
    for path in ["/", "/a", "/a/b.c", "/aging12/f3456", "/a/b/c"]:
        assert vpath.normalize_path(path) is path
    # not canonical: the slow path builds the canonical string
    assert vpath.normalize_path("/a//b/") == "/a/b"
    assert vpath.normalize_path("/a/.hidden") == "/a/.hidden"


def test_path_module_keeps_no_cache():
    for helper in ("normalize_path", "split_path", "parent_of",
                   "basename_of", "join"):
        assert not hasattr(getattr(vpath, helper), "cache_info"), helper


# -- the lock table forgets freed inodes ---------------------------------------------


@pytest.mark.parametrize("name", ["WineFS", "ext4-DAX", "NOVA"])
def test_lock_table_is_bounded_by_live_inodes_after_aging(name):
    size_gib = 0.125
    fs, ctx = make_fs(name, size_gib=size_gib, num_cpus=2)
    result = Geriatrix(fs, AGRAWAL, target_utilization=0.75, seed=7).age(
        ctx, write_volume=int(8 * size_gib * GIB))
    # churn 8 frees many more inodes than stay live
    assert result.files_deleted > 2 * len(fs._itable)
    locks = ctx.locks
    assert len(locks._free_at) <= len(fs._itable) + 4
    assert locks._holder == {}      # nothing is held between operations


def test_recycled_inode_number_pays_no_wait_left_by_the_freed_file():
    fs = Ext4DAX(PMDevice(64 * MIB), num_cpus=2)
    ctx0 = make_context(2)
    fs.mkfs(ctx0)
    ctx1 = ctx0.on_cpu(1)
    fs.mkdir("/d0", ctx0)
    fs.mkdir("/d1", ctx0)
    old = fs.create("/d0/old", ctx0)
    ctx0.charge(1e9)                  # cpu 0 runs far ahead of cpu 1
    old.write(b"x" * 4096, ctx0)      # the file's lock is free at ~1 s
    fs.unlink("/d0/old", ctx0)
    new = fs.create("/d1/new", ctx1)
    assert new.ino == old.ino         # the number is recycled...
    waits = ctx0.locks.contended_waits
    new.write(b"y" * 4096, ctx1)      # ...but not the lock's history
    assert ctx0.locks.contended_waits == waits
    assert ctx1.now < 1e9


# -- the packed RocksDB index against a dict-backed one ------------------------------


class _DictIndexRocksDB(RocksDBModel):
    """The model as it was with a ``dict`` of ``(sst, offset)`` tuples."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._index = {}

    def flush(self, ctx):
        if not self._memtable:
            return
        sst = self._ensure_sst(ctx)
        for key, record in sorted(self._memtable.items()):
            if self._sst_fill + len(record) > self.sst_bytes:
                sst = self._rotate_sst(ctx)
            sst.region.write(self._sst_fill, record, ctx)
            self._index[key] = (len(self._ssts) - 1, self._sst_fill)
            self._sst_fill += len(record)
        self._memtable.clear()
        self._memtable_size = 0
        self.flushes += 1
        self._wal_seq += 1
        old = self._wal_path
        self._wal_region.unmap()
        self._wal_path = f"{self.dir}/wal-{self._wal_seq}"
        self._wal_region, self._wal_file = self._open_wal(ctx)
        self._wal_fill = 0
        self.fs.unlink(old, ctx)

    def get(self, key, ctx):
        ctx.charge(self.APP_NS_PER_OP)
        record = self._memtable.get(key)
        if record is not None:
            ctx.charge(180.0)
            return record
        loc = self._index.get(key)
        if loc is None:
            raise NotFoundError(f"key {key}")
        sst_idx, offset = loc
        return self._ssts[sst_idx].region.read(offset, self.value_size, ctx)


def _kv_store(cls):
    fs = Ext4DAX(PMDevice(256 * MIB), num_cpus=2, track_data=True)
    ctx = make_context(2)
    fs.mkfs(ctx)
    return cls(fs, ctx, value_size=256, memtable_bytes=16 * KIB,
               sst_bytes=64 * KIB), ctx


def _kv_step(db, ctx, op):
    verb, key, value = op
    try:
        if verb == "put":
            return ("ok", db.put(key, ctx, value=value))
        if verb == "get":
            return ("ok", bytes(db.get(key, ctx)))
        if verb == "flush":
            return ("ok", db.flush(ctx))
        return ("ok", db.close(ctx))
    except NotFoundError:
        return ("missing",)


def test_rocksdb_packed_index_matches_a_dict_index():
    rng = random.Random(2021)
    ops, top = [], 0
    for _ in range(3000):
        r = rng.random()
        if r < 0.45:
            key = rng.randrange(0, top + 8)
            top = max(top, key + 1)
            ops.append(("put", key, None))
        elif r < 0.55:
            key = rng.randrange(0, top + 8)
            top = max(top, key + 1)
            ops.append(("put", key, bytes([rng.randrange(256)]) * 256))
        elif r < 0.98:
            # keys past the largest flushed one, and never-written holes
            ops.append(("get", rng.randrange(0, top + 64), None))
        else:
            ops.append(("flush", None, None))
    ops.append(("close", None, None))
    packed, pctx = _kv_store(RocksDBModel)
    ref, rctx = _kv_store(_DictIndexRocksDB)
    for op in ops:
        assert _kv_step(packed, pctx, op) == _kv_step(ref, rctx, op), op
    assert packed.flushes == ref.flushes > 10
    assert len(packed._ssts) == len(ref._ssts) > 1
    assert repr(pctx.clock.snapshot()) == repr(rctx.clock.snapshot())
    assert pctx.counters.as_dict() == rctx.counters.as_dict()
    for key, (sst, offset) in ref._index.items():
        assert packed._index[key] == sst << 32 | offset
    assert sum(1 for loc in packed._index if loc >= 0) == len(ref._index)


def test_rocksdb_negative_key_is_rejected_and_never_wraps():
    db, ctx = _kv_store(RocksDBModel)
    for key in range(200):
        db.put(key, ctx)
    db.flush(ctx)
    assert db._index[-1] >= 0           # the last slot holds a record...
    with pytest.raises(ValueError):
        db.put(-1, ctx)
    with pytest.raises(NotFoundError):
        db.get(-1, ctx)                 # ...which key -1 must not reach
    with pytest.raises(NotFoundError):
        db.get(len(db._index), ctx)


def test_rocksdb_rejects_an_sst_larger_than_an_index_offset():
    fs = Ext4DAX(PMDevice(64 * MIB), num_cpus=2)
    ctx = make_context(2)
    fs.mkfs(ctx)
    with pytest.raises(ValueError):
        RocksDBModel(fs, ctx, sst_bytes=1 << 32)
