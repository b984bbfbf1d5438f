#!/usr/bin/env python
"""Wall-clock microbenchmarks for the simulator itself.

Unlike the figure benches (which reproduce paper *results* in simulated
time), this suite measures how fast the simulator executes on the host:
the ROADMAP north-star is "as fast as the hardware allows", and wall-clock
per simulated event is what caps workload scale.

Benches:

* ``aging_churn``      — Geriatrix fill+churn on WineFS (journal + allocator
                         + per-block write paths).
* ``fig4_cdf``         — the Figure 4 setup: pre-fault a 128MB pool and do
                         random hot-set probes on WineFS (2MB pages) and
                         PMFS (4KB pages).  Prefault + per-page TLB
                         accounting dominate.
* ``mmap_seq``         — sequential 2MB memcpys over a hugepage-mapped
                         WineFS file (run-batched translation path).
* ``mmap_rand``        — random 4KB reads over a base-page-mapped PMFS
                         file (TLB-thrashing path).
* ``journal_storm``    — create/append/fsync/unlink cycles on WineFS
                         (journal commit path).
* ``snapshot_restore`` — cold age-and-save vs warm restore of the same
                         aged WineFS image through the snapshot store.
* ``slo_campaign``     — the ``repro slo`` fault campaign with telemetry
                         attached (sketches, ledger, timeline), serial vs
                         ``--jobs 2`` (reports verified identical).

``--jobs N`` shards the (bench, repetition) cells themselves across
worker processes; wall time is measured inside each worker, so the
numbers are the same as a serial run (modulo host load).

Results go to ``BENCH_perf.json``; pass ``--baseline`` to compute
speedups against a previously captured run (the pre-change baseline lives
in ``benchmarks/results/BENCH_perf_baseline.json``).

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py \
        --scale 1.0 --out benchmarks/results/BENCH_perf.json \
        --baseline benchmarks/results/BENCH_perf_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.harness import aged_fs, fresh_fs, run_fleet         # noqa: E402
from repro.params import KIB, MIB                              # noqa: E402
from repro.structures.stats import LatencyRecorder             # noqa: E402
from repro.workloads import mmap_rw_benchmark                  # noqa: E402
from repro.workloads.part import PARTModel                     # noqa: E402

DEFAULT_OUT = os.path.join(_ROOT, "benchmarks", "results", "BENCH_perf.json")


def bench_aging_churn(scale: float) -> dict:
    """Fill + churn WineFS to 75% utilization (the Fig 1 aged setup).

    ``snapshot=False``: this bench measures the aging loop itself, so a
    cache hit would be cheating (``snapshot_restore`` measures the cache).
    """
    t0 = time.perf_counter()
    fs, ctx = aged_fs("WineFS", size_gib=0.5, num_cpus=4,
                      utilization=0.75, churn_multiple=4.0 * scale, seed=7,
                      snapshot=False)
    wall = time.perf_counter() - t0
    stats = fs.statfs()
    return {
        "wall_s": wall,
        "work": {
            "churn_multiple": 4.0 * scale,
            "utilization": stats.utilization,
            "files": stats.files,
        },
    }


def bench_fig4_cdf(scale: float) -> dict:
    """The Figure 4 critical path: prefault a pool, probe hot keys."""
    lookups = max(1000, int(20_000 * scale))
    out = {"wall_s": 0.0, "work": {"lookups": lookups, "pool_mib": 128}}
    sim_ns = {}
    for fs_name in ("WineFS", "PMFS"):
        t0 = time.perf_counter()
        fs, ctx = fresh_fs(fs_name, size_gib=0.5, num_cpus=4)
        model = PARTModel(fs, ctx, pool_bytes=128 * MIB,
                          hot_keys=100_000, seed=11)
        rec = LatencyRecorder()
        for _ in range(lookups):
            rec.record(model.lookup(ctx))
        model.close()
        wall = time.perf_counter() - t0
        out["wall_s"] += wall
        out["work"][f"wall_s_{fs_name}"] = wall
        sim_ns[fs_name] = ctx.now
        out["work"][f"median_ns_{fs_name}"] = rec.summary().median
    out["sim_ns"] = sim_ns
    return out


def bench_mmap_seq(scale: float) -> dict:
    """Sequential 2MB writes over a hugepage-mapped WineFS file."""
    fs, ctx = fresh_fs("WineFS", size_gib=0.5, num_cpus=4)
    total = max(64 * MIB, int(512 * MIB * scale))
    t0 = time.perf_counter()
    res = mmap_rw_benchmark(fs, ctx, file_size=128 * MIB, io_size=2 * MIB,
                            total_bytes=total, pattern="seq-write")
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "sim_ns": res.elapsed_ns,
        "work": {"bytes_moved": res.bytes_moved,
                 "faults_2m": res.page_faults_2m,
                 "faults_4k": res.page_faults_4k,
                 "tlb_misses": res.tlb_misses,
                 "sim_mb_s": res.throughput_mb_s},
    }


def bench_mmap_rand(scale: float) -> dict:
    """Random 4KB reads over a base-page-mapped PMFS file."""
    fs, ctx = fresh_fs("PMFS", size_gib=0.5, num_cpus=4)
    total = max(8 * MIB, int(64 * MIB * scale))
    t0 = time.perf_counter()
    res = mmap_rw_benchmark(fs, ctx, file_size=64 * MIB, io_size=4 * KIB,
                            total_bytes=total, pattern="rand-read", seed=5)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "sim_ns": res.elapsed_ns,
        "work": {"bytes_moved": res.bytes_moved,
                 "faults_4k": res.page_faults_4k,
                 "tlb_misses": res.tlb_misses,
                 "sim_mb_s": res.throughput_mb_s},
    }


def bench_journal_storm(scale: float) -> dict:
    """create/append/fsync/unlink cycles: the journal commit path."""
    fs, ctx = fresh_fs("WineFS", size_gib=0.5, num_cpus=4)
    cycles = max(200, int(1500 * scale))
    payload_len = 4 * KIB
    payload = b"\x00" * payload_len
    t0 = time.perf_counter()
    sim0 = ctx.now
    for i in range(cycles):
        path = f"/storm.{i % 64}"
        f = fs.create(path, ctx)
        for _ in range(4):
            f.append(payload, ctx)
        f.fsync(ctx)
        f.close()
        fs.unlink(path, ctx)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "sim_ns": ctx.now - sim0,
        "work": {"cycles": cycles, "appends_per_cycle": 4,
                 "append_bytes": payload_len},
    }


def bench_snapshot_restore(scale: float) -> dict:
    """Cold age-and-save vs warm restore through the snapshot store.

    Also reports a phase breakdown of the warm path (file read vs codec
    decode): decode dominates the restore, which is why the codec's v2
    columnar fast path gates in ``floors.json`` as a ``speedup_vs_cold``
    metric floor rather than a wall-time ratio against a baseline run.
    """
    import tempfile

    from repro.harness import aged_cache_key
    from repro.snapshot import codec as snapshot_codec
    from repro.snapshot import store as snapshot_store

    churn = max(0.5, 4.0 * scale)
    params = dict(size_gib=0.5, num_cpus=4, utilization=0.75,
                  churn_multiple=churn, seed=7)
    prior = os.environ.get("REPRO_SNAPSHOT_DIR")
    # this bench measures the flat store; never route to an archive
    prior_archive = os.environ.pop("REPRO_SNAPSHOT_ARCHIVE", None)
    with tempfile.TemporaryDirectory(prefix="repro-snap-") as tmp:
        os.environ["REPRO_SNAPSHOT_DIR"] = tmp
        try:
            t0 = time.perf_counter()
            aged_fs("WineFS", **params)
            cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            fs, ctx = aged_fs("WineFS", **params)
            warm = time.perf_counter() - t0
            # phase breakdown: re-run the warm path's two big pieces
            path = snapshot_store.snapshot_path(
                aged_cache_key("WineFS", **params))
            t0 = time.perf_counter()
            with open(path, "rb") as handle:
                blob = handle.read()
            read_s = time.perf_counter() - t0
            offset = len(snapshot_store._MAGIC)
            _version, meta_len = snapshot_store._HEAD.unpack_from(
                blob, offset)
            offset += snapshot_store._HEAD.size + meta_len
            (payload_len,) = snapshot_store._PLEN.unpack_from(blob, offset)
            offset += snapshot_store._PLEN.size
            payload = blob[offset:offset + payload_len]
            t0 = time.perf_counter()
            snapshot_codec.decode(payload)
            decode_s = time.perf_counter() - t0
        finally:
            if prior is None:
                os.environ.pop("REPRO_SNAPSHOT_DIR", None)
            else:
                os.environ["REPRO_SNAPSHOT_DIR"] = prior
            if prior_archive is not None:
                os.environ["REPRO_SNAPSHOT_ARCHIVE"] = prior_archive
    return {
        "wall_s": warm,
        "work": {"cold_s": cold, "churn_multiple": churn,
                 "speedup_vs_cold": round(cold / warm, 2) if warm else 0.0,
                 "files": fs.statfs().files,
                 "phase_read_s": read_s,
                 "phase_decode_s": decode_s,
                 "decode_fraction": round(decode_s / warm, 3) if warm
                 else 0.0,
                 "payload_bytes": len(payload)},
    }


def bench_slo_campaign(scale: float) -> dict:
    """The ``repro slo`` fault campaign: telemetry-attached op mix,
    crash + degraded phase + heal, sketch merge and report evaluation.

    Measures the observability tax end-to-end (wrapped VFS entry
    points, per-op sketch records, ledger updates) and verifies the
    jobs-2 report is byte-identical to serial.
    """
    from repro.harness.fleet import run_slo_campaign, slo_matrix

    seeds = list(range(1, max(2, int(4 * scale)) + 1))
    ops = max(80, int(400 * scale))
    cells = slo_matrix(["WineFS", "ext4-DAX"], seeds,
                       size_gib=0.25, num_cpus=2, ops=ops)
    t0 = time.perf_counter()
    serial_report = run_slo_campaign(cells, jobs=1)
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel_report = run_slo_campaign(cells, jobs=2)
    parallel = time.perf_counter() - t0
    return {
        "wall_s": serial,
        "work": {"cells": len(cells), "ops_per_cell": ops,
                 "parallel_s": parallel,
                 "host_cpus": os.cpu_count(),
                 "reports_identical": serial_report == parallel_report},
    }


BENCHES = {
    "aging_churn": bench_aging_churn,
    "fig4_cdf": bench_fig4_cdf,
    "mmap_seq": bench_mmap_seq,
    "mmap_rand": bench_mmap_rand,
    "journal_storm": bench_journal_storm,
    "snapshot_restore": bench_snapshot_restore,
    "slo_campaign": bench_slo_campaign,
}


def _perf_cell(cell) -> tuple:
    """One (bench, repetition) cell; top-level so worker pools can run it.

    Wall time is measured here, inside the worker, so ``--jobs`` never
    changes what any bench reports.
    """
    name, scale = cell
    return name, BENCHES[name](scale)


def run(scale: float, names, repeat: int, jobs: int = 1) -> dict:
    cells = [(name, scale) for name in names for _ in range(repeat)]
    results = run_fleet(_perf_cell, cells, jobs=jobs)
    benches = {}
    # results come back in cell order: best-of-repeat per bench, merged
    # by the fixed name order rather than completion order
    for name, result in results:
        best = benches.get(name)
        if best is None or result["wall_s"] < best["wall_s"]:
            benches[name] = result
    for name in names:
        print(f"  {name:15s} {benches[name]['wall_s']:8.3f}s", flush=True)
    return benches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", type=float, default=1.0,
                    help="work multiplier (CI uses a reduced scale)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="repetitions per bench; the fastest wall time wins")
    ap.add_argument("--bench", action="append", choices=sorted(BENCHES),
                    help="run only the named bench (repeatable)")
    ap.add_argument("--jobs", type=int, default=1,
                    help="shard (bench, repetition) cells across this many "
                         "worker processes")
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--baseline", default=None,
                    help="prior BENCH_perf.json to compute speedups against")
    args = ap.parse_args(argv)

    names = args.bench or sorted(BENCHES)
    print(f"perf suite: scale={args.scale} repeat={args.repeat} "
          f"jobs={args.jobs}", flush=True)
    benches = run(args.scale, names, args.repeat, jobs=args.jobs)

    doc = {
        "schema": "repro.perf/1",
        "scale": args.scale,
        "python": sys.version.split()[0],
        "benches": benches,
    }

    if args.baseline:
        with open(args.baseline) as fh:
            base = json.load(fh)
        speedups = {}
        for name, res in benches.items():
            ref = base.get("benches", {}).get(name)
            if ref and res["wall_s"] > 0:
                speedups[name] = round(ref["wall_s"] / res["wall_s"], 2)
        doc["baseline_scale"] = base.get("scale")
        doc["speedup_vs_baseline"] = speedups
        print("speedup vs baseline:")
        for name, x in sorted(speedups.items()):
            print(f"  {name:15s} {x:6.2f}x")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
