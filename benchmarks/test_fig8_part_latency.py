"""Figure 8: latency distribution for P-ART lookups.

Paper setup (§5.4): the persistent adaptive radix tree creates a PM pool
(vmmalloc), pre-faults it, inserts 60M keys, then looks up a hot set of
125K unique keys in random order — no page faults in the critical path,
so the differences are pure TLB/LLC effects.  "WineFS results in 56%
lower median latency compared to the other PM file systems."

Aged file systems; SplitFS inherits ext4-DAX's layout.
"""

from __future__ import annotations

import pytest

from repro.harness import aged_fs, format_cdf, Table
from repro.params import MIB
from repro.workloads import run_part_lookups

from _common import CHURN_MULTIPLE, NUM_CPUS, SIZE_GIB, emit, record

FS_NAMES = ["xfs-DAX", "SplitFS", "ext4-DAX", "NOVA", "WineFS"]
LOOKUPS = 20_000


@pytest.mark.benchmark(group="fig8")
def test_fig8_part_latency(benchmark):
    results = {}

    def run():
        for name in FS_NAMES:
            fs, ctx = aged_fs(name, size_gib=SIZE_GIB, num_cpus=NUM_CPUS,
                              utilization=0.75,
                              churn_multiple=CHURN_MULTIPLE)
            stats = fs.statfs()
            pool = int(stats.free_blocks * stats.block_size * 0.6)
            pool -= pool % (2 * MIB)
            results[name] = run_part_lookups(
                fs, ctx, lookups=LOOKUPS, pool_bytes=pool,
                hot_keys=100_000, seed=5)
        return True

    benchmark.pedantic(run, iterations=1, rounds=1)

    cdfs = {name: r.cdf for name, r in results.items()}
    text = format_cdf("Figure 8 — P-ART lookup latency CDF (aged)", cdfs)
    table = Table("P-ART summary", ["fs", "median(ns)", "p90(ns)",
                                    "tlb-miss", "llc-miss"])
    for name, r in results.items():
        table.add_row(name, r.summary.median, r.summary.p90,
                      f"{r.tlb_miss_rate:.0%}", f"{r.llc_miss_rate:.0%}")
    emit("fig8_part_latency", text + "\n\n" + table.render())
    record(benchmark, {n: r.summary.median for n, r in results.items()})

    wfs = results["WineFS"].summary.median
    for name in ("ext4-DAX", "NOVA", "xfs-DAX"):
        other = results[name].summary.median
        # paper: 35-60% lower median latency on WineFS
        assert wfs < 0.65 * other, \
            f"WineFS median {wfs} should be well below {name}'s {other}"
    # WineFS has far fewer TLB misses (paper: 2x fewer; ours are starker
    # because the whole pool maps with 2MB pages)
    assert results["WineFS"].tlb_miss_rate < \
        results["ext4-DAX"].tlb_miss_rate
