"""Workload model tests: access patterns and invariants of Table 1."""

import hashlib
import json
import os
from types import SimpleNamespace

import pytest

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.errors import NotFoundError
from repro.fs import Ext4DAX, PMFS
from repro.params import KIB, MIB
from repro.pm.device import PMDevice
from repro.workloads import (mmap_rw_benchmark, posix_rw_benchmark,
                             run_fillseq, run_fillseqbatch, run_part_lookups,
                             run_personality, run_pgbench, run_scalability,
                             run_wiredtiger, PERSONALITIES)
from repro.workloads.rocksdb import RocksDBModel
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload, run_ycsb


def _fs(cls=WineFS, size=512 * MIB, track_data=False):
    device = PMDevice(size)
    fs = cls(device, num_cpus=4, track_data=track_data)
    ctx = make_context(4)
    fs.mkfs(ctx)
    return fs, ctx


class TestMicrobench:
    @pytest.mark.parametrize("pattern", ["seq-write", "rand-write",
                                         "seq-read", "rand-read"])
    def test_mmap_patterns(self, pattern):
        fs, ctx = _fs()
        r = mmap_rw_benchmark(fs, ctx, file_size=8 * MIB, io_size=2 * MIB,
                              pattern=pattern)
        assert r.bytes_moved == 8 * MIB
        assert r.throughput_mb_s > 0
        assert r.mode == "mmap"

    def test_mmap_unknown_pattern(self):
        fs, ctx = _fs()
        with pytest.raises(ValueError):
            mmap_rw_benchmark(fs, ctx, pattern="diagonal")

    def test_mmap_create_modes_differ_in_faults(self):
        faults = {}
        for create in ("populate", "ftruncate"):
            fs, ctx = _fs(Ext4DAX)
            r = mmap_rw_benchmark(fs, ctx, file_size=8 * MIB,
                                  io_size=2 * MIB, pattern="seq-write",
                                  create=create)
            faults[create] = r.page_faults_4k
        # demand allocation at fault time forces base pages on ext4
        assert faults["ftruncate"] > faults["populate"]

    @pytest.mark.parametrize("pattern", ["seq-write", "rand-read", "append"])
    def test_posix_patterns(self, pattern):
        fs, ctx = _fs()
        r = posix_rw_benchmark(fs, ctx, file_size=4 * MIB,
                               total_bytes=1 * MIB, pattern=pattern)
        assert r.bytes_moved == 1 * MIB
        assert r.mode == "posix"

    def test_posix_fsync_cadence_costs(self):
        fs1, ctx1 = _fs(Ext4DAX)
        r1 = posix_rw_benchmark(fs1, ctx1, file_size=4 * MIB,
                                total_bytes=1 * MIB, pattern="seq-write",
                                fsync_every=1, path="/a")
        fs2, ctx2 = _fs(Ext4DAX)
        r2 = posix_rw_benchmark(fs2, ctx2, file_size=4 * MIB,
                                total_bytes=1 * MIB, pattern="seq-write",
                                fsync_every=0, path="/b")
        assert r1.elapsed_ns > r2.elapsed_ns


class TestYcsb:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            YCSBWorkload("bad", read=0.5)

    def test_standard_catalogue(self):
        assert set(YCSB_WORKLOADS) == {"Load", "A", "B", "C", "D", "E", "F"}

    def test_load_then_read(self):
        fs, ctx = _fs()
        db = RocksDBModel(fs, ctx, sst_bytes=8 * MIB,
                          memtable_bytes=2 * MIB)
        load = run_ycsb(db, YCSB_WORKLOADS["Load"], ctx,
                        record_count=5000, op_count=5000)
        assert load.ops == 5000
        c = run_ycsb(db, YCSB_WORKLOADS["C"], ctx, record_count=5000,
                     op_count=1000)
        assert c.kops_per_sec > 0

    def test_rocksdb_get_put(self):
        fs, ctx = _fs()
        db = RocksDBModel(fs, ctx, sst_bytes=8 * MIB,
                          memtable_bytes=2 * MIB)
        db.put(1, ctx)
        assert db.get(1, ctx)          # from memtable
        db.flush(ctx)
        assert db.get(1, ctx)          # from the mmap'ed SST
        with pytest.raises(NotFoundError):
            db.get(999999, ctx)

    def test_rocksdb_flush_rotates_wal(self):
        fs, ctx = _fs()
        db = RocksDBModel(fs, ctx, sst_bytes=8 * MIB,
                          memtable_bytes=256 * KIB)
        for k in range(600):
            db.put(k, ctx)
        assert db.flushes >= 1
        assert fs.exists(db._wal_path)

    def test_rocksdb_default_puts_share_one_value_explicit_ones_are_kept(self):
        fs, ctx = _fs(track_data=True)
        db = RocksDBModel(fs, ctx, sst_bytes=8 * MIB, memtable_bytes=2 * MIB)
        for k in range(100):
            db.put(k, ctx)
        assert len({id(v) for v in db._memtable.values()}) == 1
        mine = b"x" * 1024
        db.put(7, ctx, value=mine)
        assert db.get(7, ctx) == mine
        db.flush(ctx)
        assert db.get(7, ctx) == mine          # read back from the SST
        assert db.get(8, ctx) == b"v" * 1024

    def test_rocksdb_wal_wraps_inside_its_mapping(self):
        fs, ctx = _fs()
        db = RocksDBModel(fs, ctx, value_size=8, memtable_bytes=4 * MIB)
        region = db._wal_region
        assert region.length == 1 * MIB
        ends, write = [], region.write

        def spy(offset, data, ctx):
            ends.append(offset + len(data))
            write(offset, data, ctx)
        region.write = spy
        fit = region.length // 72
        for k in range(fit):
            db.put(k, ctx)
        assert db._wal_fill == fit * 72
        db.put(fit, ctx)                       # one more than fits: wraps
        assert db._wal_fill == 72
        assert db.flushes == 0 and db._wal_region is region
        assert len(ends) == fit + 1 and max(ends) <= region.length

    def test_rocksdb_update_costs_what_put_costs(self):
        seen = []
        for verb in ("put", "update"):
            fs, ctx = _fs()
            db = RocksDBModel(fs, ctx, sst_bytes=8 * MIB,
                              memtable_bytes=256 * KIB)
            for k in range(600):               # crosses two flushes
                getattr(db, verb)(k % 400, ctx)
            seen.append((repr(ctx.clock.snapshot()), ctx.counters.as_dict(),
                         db._wal_fill, db._memtable_size, len(db._memtable),
                         db.flushes))
        assert seen[0] == seen[1] and seen[0][-1] == 2


class _RecordingDB:
    """Stands in for RocksDBModel under run_ycsb: records every call."""

    fs = SimpleNamespace(name="fake")

    def __init__(self):
        self.calls = []

    def put(self, key, ctx):
        self.calls.append(("put", key))

    def update(self, key, ctx):
        self.calls.append(("update", key))

    def get(self, key, ctx):
        self.calls.append(("get", key))
        if key % 7 == 3:        # a fixed subset, so the except arms run
            raise NotFoundError(f"key {key}")

    def scan(self, key, count, ctx):
        self.calls.append(("scan", key, count))


YCSB_STREAM_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                                  "ycsb_stream_golden.json")


def ycsb_stream_digests():
    """sha256 of the (verb, key[, count]) stream per (mix, seed)."""
    digests = {}
    for name, workload in YCSB_WORKLOADS.items():
        for seed in (0, 7):
            db = _RecordingDB()
            run_ycsb(db, workload, make_context(1), record_count=2_000,
                     op_count=5_000, seed=seed)
            digests[f"{name}-seed{seed}"] = hashlib.sha256(
                repr(db.calls).encode()).hexdigest()
    return digests


def test_ycsb_op_stream_matches_the_recorded_parent():
    # recorded at 84d3dc7, before run_ycsb's loop was flattened: the draw
    # order (r, then the key, then scan's randrange) is the contract
    with open(YCSB_STREAM_GOLDEN) as handle:
        assert ycsb_stream_digests() == json.load(handle)


class TestLmdbPmemkv:
    def test_lmdb_uses_sparse_file(self):
        fs, ctx = _fs()
        r = run_fillseqbatch(fs, ctx, keys=2000, map_size=16 * MIB)
        assert r.ops == 2000
        # WineFS allocates whole hugepages inside the fault handler
        assert r.page_faults_2m > 0
        assert r.page_faults_4k == 0

    def test_lmdb_baselines_take_base_faults(self):
        fs, ctx = _fs(PMFS)
        r = run_fillseqbatch(fs, ctx, keys=2000, map_size=16 * MIB)
        assert r.page_faults_4k > 100
        assert r.page_faults_2m == 0

    def test_pmemkv_extends_pools(self):
        fs, ctx = _fs()
        r = run_fillseq(fs, ctx, keys=3000, value_size=4 * KIB,
                        pool_bytes=4 * MIB)
        # 3000 * 4KB = ~12MB -> needs several 4MB pools
        assert len(fs.readdir("/pmemkv", ctx)) >= 3
        assert r.ops == 3000


class TestPart:
    def test_prefaulted_lookups_take_no_faults(self):
        fs, ctx = _fs()
        r = run_part_lookups(fs, ctx, lookups=500, pool_bytes=16 * MIB,
                             hot_keys=1000)
        assert r.lookups == 500
        assert r.summary.median > 0

    def test_hugepages_cut_latency(self):
        medians = {}
        for cls in (WineFS, PMFS):
            fs, ctx = _fs(cls)
            r = run_part_lookups(fs, ctx, lookups=2000,
                                 pool_bytes=64 * MIB, hot_keys=20000)
            medians[cls.__name__] = r.summary.median
        assert medians["WineFS"] < medians["PMFS"]


class TestMacroWorkloads:
    @pytest.mark.parametrize("name", sorted(PERSONALITIES))
    def test_personalities_run(self, name):
        fs, ctx = _fs()
        r = run_personality(fs, ctx, name, ops=200, nfiles=30)
        assert r.ops == 200
        assert r.kops_per_sec > 0

    def test_unknown_personality(self):
        fs, ctx = _fs()
        with pytest.raises(ValueError):
            run_personality(fs, ctx, "mailserver")

    def test_pgbench(self):
        fs, ctx = _fs()
        r = run_pgbench(fs, ctx, transactions=100, table_bytes=8 * MIB)
        assert r.transactions == 100
        assert r.tps > 0

    @pytest.mark.parametrize("wl", ["fillrandom", "readrandom"])
    def test_wiredtiger(self, wl):
        fs, ctx = _fs()
        r = run_wiredtiger(fs, ctx, workload=wl, ops=500)
        assert r.ops == 500

    def test_wiredtiger_unknown(self):
        fs, ctx = _fs()
        with pytest.raises(ValueError):
            run_wiredtiger(fs, ctx, workload="compact")

    def test_scalability_result(self):
        fs, ctx = _fs()
        r = run_scalability(fs, ctx, threads=4, ops_per_thread=20)
        assert r.ops == 80
        assert r.threads == 4

    def test_scalability_needs_threads(self):
        fs, ctx = _fs()
        with pytest.raises(ValueError):
            run_scalability(fs, ctx, threads=0)

    def test_winefs_scales_with_threads(self):
        device = PMDevice(512 * MIB)
        fs = WineFS(device, num_cpus=4, track_data=False)
        ctx = make_context(4)
        fs.mkfs(ctx)
        ctx.clock.reset()
        r1 = run_scalability(fs, ctx, threads=1, ops_per_thread=30)
        device2 = PMDevice(512 * MIB)
        fs2 = WineFS(device2, num_cpus=4, track_data=False)
        ctx2 = make_context(4)
        fs2.mkfs(ctx2)
        ctx2.clock.reset()
        r4 = run_scalability(fs2, ctx2, threads=4, ops_per_thread=30)
        assert r4.kops_per_sec > 2 * r1.kops_per_sec
