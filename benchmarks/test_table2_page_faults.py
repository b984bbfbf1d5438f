"""Table 2: page faults incurred by applications on aged file systems.

Paper setup (§5.4): the Fig 7 applications, reporting absolute fault
counts for WineFS and the multiplier for each baseline.  "Overall WineFS
suffers from the least amount of page faults, up-to 450x lower than the
other file systems."
"""

from __future__ import annotations

import pytest

from repro.harness import Table, aged_fs
from repro.params import KIB, MIB
from repro.workloads import run_fillseq, run_fillseqbatch
from repro.workloads.rocksdb import RocksDBModel
from repro.workloads.ycsb import YCSB_WORKLOADS, run_ycsb

from _common import CHURN_MULTIPLE, NUM_CPUS, SIZE_GIB, emit, record

FS_NAMES = ["WineFS", "ext4-DAX", "xfs-DAX", "SplitFS", "NOVA"]


def _faults_for(name):
    out = {}
    fs, ctx = aged_fs(name, size_gib=SIZE_GIB, num_cpus=NUM_CPUS,
                      utilization=0.75, churn_multiple=CHURN_MULTIPLE)
    db = RocksDBModel(fs, ctx, sst_bytes=16 * MIB, memtable_bytes=4 * MIB)
    f0 = ctx.counters.page_faults
    run_ycsb(db, YCSB_WORKLOADS["Load"], ctx, record_count=20_000,
             op_count=20_000)
    out["ycsb-Load"] = ctx.counters.page_faults - f0
    f0 = ctx.counters.page_faults
    run_ycsb(db, YCSB_WORKLOADS["A"], ctx, record_count=20_000,
             op_count=10_000)
    out["ycsb-A"] = ctx.counters.page_faults - f0
    db.close(ctx)

    fs, ctx = aged_fs(name, size_gib=SIZE_GIB, num_cpus=NUM_CPUS,
                      utilization=0.75, churn_multiple=CHURN_MULTIPLE)
    lm = run_fillseqbatch(fs, ctx, keys=30_000, map_size=48 * MIB)
    out["lmdb"] = lm.page_faults

    fs, ctx = aged_fs(name, size_gib=SIZE_GIB, num_cpus=NUM_CPUS,
                      utilization=0.75, churn_multiple=CHURN_MULTIPLE)
    kv = run_fillseq(fs, ctx, keys=8_000, value_size=4 * KIB,
                     pool_bytes=32 * MIB)
    out["pmemkv"] = kv.page_faults
    return out


APPS = ["ycsb-Load", "ycsb-A", "lmdb", "pmemkv"]


@pytest.mark.benchmark(group="table2")
def test_table2_page_faults(benchmark):
    faults = {}

    def run():
        for name in FS_NAMES:
            faults[name] = _faults_for(name)
        return True

    benchmark.pedantic(run, iterations=1, rounds=1)

    table = Table("Table 2 — page faults on aged file systems "
                  "(WineFS absolute; others as multiple of WineFS)",
                  ["fs"] + APPS)
    wfs = faults["WineFS"]
    table.add_row("WineFS", *[wfs[a] for a in APPS])
    for name in FS_NAMES[1:]:
        table.add_row(name, *[
            f"{faults[name][a] / max(1, wfs[a]):.0f}x" for a in APPS])
    emit("table2_page_faults", table.render())
    record(benchmark, faults)

    # WineFS takes the fewest faults on every application
    for app in APPS:
        for name in FS_NAMES[1:]:
            assert faults[name][app] >= wfs[app], \
                f"{name} should fault at least as much as WineFS on {app}"
    # and the LMDB gap is large (paper: 200-250x; we assert >50x)
    assert faults["ext4-DAX"]["lmdb"] > 50 * max(1, wfs["lmdb"])
    assert faults["NOVA"]["lmdb"] > 50 * max(1, wfs["lmdb"])
