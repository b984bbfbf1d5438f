"""Figure 7: application performance on aged file systems.

Paper setup (§5.4): file systems aged to 75% with Geriatrix/Agrawal;
applications accessing PM via memory-mapped files:

* (a/d) YCSB on RocksDB (mmap reads and writes);
* (b/e) LMDB fillseqbatch (ftruncate growth, demand faults);
* (c/f) PmemKV fillseq (fallocate'd 128MB pools).

(a-c) compare the metadata-consistency group, (d-f) the data-consistency
group.  Expected shape: WineFS leads everywhere — up to 2x over NOVA on
LMDB and ~70% over ext4-DAX on PmemKV; PMFS is not aged (it cannot
complete the paper's aging run either; clean PMFS is its upper bound).
"""

from __future__ import annotations

import pytest

from repro.harness import Table, aged_fs
from repro.params import KIB, MIB
from repro.workloads import run_fillseq, run_fillseqbatch
from repro.workloads.rocksdb import RocksDBModel
from repro.workloads.ycsb import YCSB_WORKLOADS, run_ycsb

from _common import CHURN_MULTIPLE, NUM_CPUS, SIZE_GIB, emit, record

WEAK_FS = ["ext4-DAX", "xfs-DAX", "SplitFS", "NOVA-relaxed",
           "WineFS-relaxed", "PMFS"]
STRONG_FS = ["NOVA", "Strata", "WineFS"]
YCSB_RECORDS = 20_000
YCSB_OPS = 10_000
LMDB_KEYS = 30_000
PMEMKV_KEYS = 8_000


def _aged(name):
    return aged_fs(name, size_gib=SIZE_GIB, num_cpus=NUM_CPUS,
                   utilization=0.75, churn_multiple=CHURN_MULTIPLE)


YCSB_LETTERS = ["A", "B", "C", "D", "E", "F"]


def _apps_for(name):
    # each application runs against its own freshly aged instance, as in
    # the paper's per-application experiments
    out = {}
    fs, ctx = _aged(name)
    db = RocksDBModel(fs, ctx, sst_bytes=16 * MIB, memtable_bytes=4 * MIB)
    load = run_ycsb(db, YCSB_WORKLOADS["Load"], ctx,
                    record_count=YCSB_RECORDS, op_count=YCSB_RECORDS)
    out["rocksdb-Load"] = load.kops_per_sec
    for letter in YCSB_LETTERS:
        ops = YCSB_OPS if letter != "E" else YCSB_OPS // 5   # scans are big
        r = run_ycsb(db, YCSB_WORKLOADS[letter], ctx,
                     record_count=YCSB_RECORDS, op_count=ops)
        out[f"rocksdb-{letter}"] = r.kops_per_sec
    db.close(ctx)
    fs, ctx = _aged(name)
    lm = run_fillseqbatch(fs, ctx, keys=LMDB_KEYS, map_size=48 * MIB)
    out["lmdb"] = lm.kops_per_sec
    fs, ctx = _aged(name)
    kv = run_fillseq(fs, ctx, keys=PMEMKV_KEYS, value_size=4 * KIB,
                     pool_bytes=32 * MIB)
    out["pmemkv"] = kv.kops_per_sec
    return out


@pytest.mark.benchmark(group="fig7")
def test_fig7_aged_apps(benchmark):
    weak = {}
    strong = {}

    def run():
        for name in WEAK_FS:
            weak[name] = _apps_for(name)
        for name in STRONG_FS:
            strong[name] = _apps_for(name)
        return True

    benchmark.pedantic(run, iterations=1, rounds=1)

    cols = [f"rocksdb-{x}" for x in ["Load"] + YCSB_LETTERS] \
        + ["lmdb", "pmemkv"]
    parts = []
    for title, rows in [
            ("Figure 7(a-c) — metadata-consistency group (aged, Kops/s)",
             weak),
            ("Figure 7(d-f) — data-consistency group (aged, Kops/s)",
             strong)]:
        table = Table(title, ["fs"] + cols)
        for name, row in rows.items():
            table.add_row(name, *[row[c] for c in cols])
        parts.append(table.render())
    emit("fig7_aged_apps", "\n\n".join(parts))
    record(benchmark, {"weak": weak, "strong": strong})

    # WineFS leads (or effectively ties) its group on every application
    for app in cols:
        best_weak = max(row[app] for n, row in weak.items()
                        if n != "WineFS-relaxed")
        assert weak["WineFS-relaxed"][app] >= 0.93 * best_weak, \
            f"WineFS-relaxed should lead {app} in the weak group"
        best_strong = max(row[app] for n, row in strong.items()
                          if n != "WineFS")
        assert strong["WineFS"][app] >= 0.93 * best_strong, \
            f"WineFS should lead {app} in the strong group"
    # headline factors: LMDB up to ~2x over NOVA, PmemKV well over ext4
    assert strong["WineFS"]["lmdb"] > 1.4 * strong["NOVA"]["lmdb"]
    assert weak["WineFS-relaxed"]["pmemkv"] > \
        1.3 * weak["ext4-DAX"]["pmemkv"]
