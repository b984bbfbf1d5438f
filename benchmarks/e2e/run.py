#!/usr/bin/env python3
"""The repo benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py --seed 7              # the whole suite
    python3 benchmarks/e2e/run.py --seed 7 --aa         # suite twice, compared
    python3 benchmarks/e2e/run.py --check-layers        # module -> layer map
    python3 benchmarks/e2e/run.py --workload aged_mmap --seed 7 \
        --seconds 16 --trace 0                          # one contract run

Every run of a workload happens in its own subprocess (single thread,
``PYTHONHASHSEED=0``, a private snapshot directory inside the checkout).
An untraced run repeats the workload on freshly built state until
``--seconds`` of timed work are done (at least three repetitions) and
reports medians; a traced run does one untraced repetition, then repeats
under ``cProfile`` and folds the profile into the layer table.  Metric
names, units and bounds are the ones in ``BENCHMARK.json``; see
``README.md`` beside this file for what each means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _HERE)

from layers import (LAYERS, OFFLINE_LAYER, SRC_ROOT,  # noqa: E402
                    check_coverage, source_modules)

WORKLOAD_NAMES = ("serve_swh", "aging_churn", "aged_mmap", "ycsb_rocksdb")

#: end-to-end metrics: (name, unit, better, bound).  Host throughput is
#: not among them: this host's speed drifts by up to +-15% over minutes,
#: ten runs of one workload have spread it by up to 0.27, and no bound the
#: contract allows (<= 0.25) holds that.  It is ``stack.host_ops_per_s``
#: in the per-layer table instead; README.md has the measured spreads
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("host_peak_rss_mib", "MiB", "lower", 0.20),
    ("sim_ops_per_s", "op/s", "higher", 0.25),
)

#: per-layer host metrics, one set per layer: (suffix, unit, better)
LAYER_HOST = (
    ("host_self_s", "s", "lower"),
    ("host_share", "fraction", "lower"),
    ("py_calls_per_op", "calls/op", "lower"),
    ("entries_per_op", "entries/op", "lower"),
)

#: simulated layer counters and the serve-only latencies: (name, unit, better)
LAYER_SIM = (
    ("vfs.syscalls_per_op", "calls/op", "lower"),
    ("mmu.faults_4k_per_op", "faults/op", "lower"),
    ("mmu.faults_2m_per_op", "faults/op", "lower"),
    ("mmu.tlb_miss_rate", "fraction", "lower"),
    ("mmu.sim_fault_ns_share", "fraction", "lower"),
    ("mmu.sim_hugepage_mapped_frac", "fraction", "higher"),
    ("pm.bytes_read_per_op", "B/op", "lower"),
    ("pm.bytes_written_per_op", "B/op", "lower"),
    ("pm.write_amp", "x", "lower"),
    ("pm.sim_copy_ns_share", "fraction", "lower"),
    ("core.journal.sim_ns_share", "fraction", "lower"),
    ("clock.sim_lock_wait_share", "fraction", "lower"),
    ("core.allocator.free_aligned_hugepages", "count", "higher"),
    ("core.allocator.sim_aligned_free_frac", "fraction", "higher"),
    ("snapshot.cold_age_s", "s", "lower"),
    ("snapshot.warm_restore_s", "s", "lower"),
    ("serve.host_req_us_p50", "us", "lower"),
    ("serve.host_req_us_p99", "us", "lower"),
    ("serve.sim_req_ns_p50", "ns", "lower"),
    ("serve.sim_req_ns_p99", "ns", "lower"),
    ("serve.sim_queue_wait_ns_p99", "ns", "lower"),
    ("serve.sim_max_req_per_s_slo", "req/s", "higher"),
    ("trace.overhead_x", "x", "lower"),
    ("stack.host_ops_per_s", "op/s", "higher"),
)

PER_LAYER = tuple((f"{layer}.{suffix}", unit, better)
                  for layer in LAYERS
                  for suffix, unit, better in LAYER_HOST) + LAYER_SIM

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: per-layer metrics that are counts or simulated quantities: for one seed
#: they repeat exactly, on any host (the rest are host times)
EXACT_PER_LAYER = tuple(
    name for name, _unit, _better in PER_LAYER
    if ".host_" not in name and not name.startswith(("snapshot.", "trace.")))

MIN_UNTRACED_REPS = 3
MAX_REPS = 12
#: what --aa lets the one unbounded host metric, host_ops_per_s, differ by
AA_HOST_LIMIT = 0.25
#: a child that outlives this is killed; the contract allows 180 s a run
CHILD_TIMEOUT_S = 170


# -- the workload subprocess -------------------------------------------------

def measure(workload, seconds: float, traced: bool):
    """Repeat *workload* on freshly built state.

    At least :data:`MIN_UNTRACED_REPS` untraced repetitions; then untraced
    ones, or with *traced* profiled ones (at least one), until *seconds*
    of timed work are done.  Returns ``(build_s, walls, traced_walls,
    results, profiles)``.
    """
    import cProfile
    import gc

    from layers import aggregate_profile

    build_s, walls, traced_walls, results, profiles = [], [], [], [], []

    def repetition(profile) -> None:
        gc.collect()
        t0 = time.perf_counter()
        state = workload.build()
        build_s.append(time.perf_counter() - t0)
        # noise control: no collector pauses inside the timed region
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            if profile is not None:
                profile.enable()
            raw = workload.run(state)
            if profile is not None:
                profile.disable()
            (walls if profile is None else traced_walls).append(
                time.perf_counter() - t0)
        finally:
            gc.enable()
        results.append(workload.finish(state, raw))
        if profile is not None:
            profiles.append(aggregate_profile(profile.getstats()))

    def more() -> bool:
        return sum(walls) + sum(traced_walls) < seconds \
            and len(results) < MAX_REPS

    while len(walls) < MIN_UNTRACED_REPS or (not traced and more()):
        repetition(None)
    while traced and (not profiles or more()):
        repetition(cProfile.Profile())
    return build_s, walls, traced_walls, results, profiles


def per_layer_metrics(workload, first, profiles, problems) -> dict:
    """The ``--trace 1`` metrics, apart from the two that need wall times."""
    for index, profile in enumerate(profiles):
        if profile[OFFLINE_LAYER]["calls"]:
            problems.append("the timed region called into an offline "
                            "module (see layers.OFFLINE_RULES)")
        if [(p["calls"], p["entries"]) for p in profile.values()] != \
                [(p["calls"], p["entries"]) for p in profiles[0].values()]:
            problems.append(f"traced rep {index}: call counts differ from "
                            "traced rep 0")
    ops = first.ops
    self_s = {layer: median(p[layer]["self_s"] for p in profiles)
              for layer in LAYERS}
    total_self = sum(self_s.values())
    metrics = {}
    for layer in LAYERS:
        row = profiles[0][layer]
        metrics[f"{layer}.host_self_s"] = self_s[layer]
        metrics[f"{layer}.host_share"] = self_s[layer] / total_self
        metrics[f"{layer}.py_calls_per_op"] = row["calls"] / ops
        metrics[f"{layer}.entries_per_op"] = row["entries"] / ops
    c = first.counters
    lookups = c["tlb_hits"] + c["tlb_misses"]
    images = workload.images
    metrics.update({
        "vfs.syscalls_per_op": c["syscalls"] / ops,
        "mmu.faults_4k_per_op": c["page_faults_4k"] / ops,
        "mmu.faults_2m_per_op": c["page_faults_2m"] / ops,
        "mmu.tlb_miss_rate": c["tlb_misses"] / lookups if lookups else 0.0,
        "mmu.sim_fault_ns_share": c["fault_ns"] / first.sim_ns,
        "mmu.sim_hugepage_mapped_frac":
            first.sim.get("hugepage_mapped_frac", 0.0),
        "pm.bytes_read_per_op": c["pm_bytes_read"] / ops,
        "pm.bytes_written_per_op": c["pm_bytes_written"] / ops,
        "pm.write_amp": c["pm_bytes_written"] / first.user_bytes_written,
        "pm.sim_copy_ns_share": c["copy_ns"] / first.sim_ns,
        "core.journal.sim_ns_share": c["journal_ns"] / first.sim_ns,
        "clock.sim_lock_wait_share": c["lock_wait_ns"] / first.sim_ns,
        "core.allocator.free_aligned_hugepages":
            first.sim["free_aligned_hugepages"],
        "core.allocator.sim_aligned_free_frac":
            first.sim["aligned_free_frac"],
        "snapshot.cold_age_s": images.cold_s if images else 0.0,
        "snapshot.warm_restore_s": median(images.warm_s) if images else 0.0,
        "serve.host_req_us_p50": first.host.get("req_us_p50", 0.0),
        "serve.host_req_us_p99": first.host.get("req_us_p99", 0.0),
        "serve.sim_req_ns_p50": first.sim.get("req_ns_p50", 0.0),
        "serve.sim_req_ns_p99": first.sim.get("req_ns_p99", 0.0),
        "serve.sim_queue_wait_ns_p99":
            first.sim.get("queue_wait_ns_p99", 0.0),
        "serve.sim_max_req_per_s_slo":
            first.sim.get("max_req_per_s_slo", 0.0),
    })
    return metrics


def child_main(args) -> int:
    """Run one workload in this process; print one JSON document."""
    started = time.perf_counter()
    import resource

    # noise control: stay on one CPU, the one furthest from where the
    # parent, the driver and the system's daemons run
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, _SRC)
    from measure import quartiles
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed, args.scale)
    once_s = time.perf_counter() - started
    traced = bool(args.trace)
    build_s, walls, traced_walls, results, profiles = measure(
        workload, args.seconds, traced)

    first = results[0]
    problems = []
    for index, rep in enumerate(results):
        problems += [f"rep {index}: {p}" for p in rep.problems]
        if (rep.digest, rep.sim, rep.ops, rep.sim_ns, rep.counters) != (
                first.digest, first.sim, first.ops, first.sim_ns,
                first.counters):
            problems.append(f"rep {index}: simulated results differ from "
                            "rep 0")
    host_ops_per_s = first.ops / median(walls)
    if traced:
        metrics = per_layer_metrics(workload, first, profiles, problems)
        metrics["trace.overhead_x"] = median(traced_walls) / median(walls)
        metrics["stack.host_ops_per_s"] = host_ops_per_s
    else:
        metrics = {
            "setup_s": once_s + median(build_s),
            "host_peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_ops_per_s": first.ops / (first.sim_ns / 1e9),
        }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", ""),
        "reps": len(walls), "traced_reps": len(traced_walls),
        "ops_per_rep": first.ops,
        "attempted": sum(rep.ops for rep in results),
        "failed": sum(rep.failed for rep in results),
        "wall_quartiles_s": quartiles(walls),
        "host_ops_per_s": host_ops_per_s,
        "setup_once_s": once_s, "setup_rep_s": median(build_s),
        "sim": first.sim, "digest": first.digest,
        "paper": first.paper, "paper_bands": workload.paper_bands,
        "problems": problems, "metrics": metrics,
    }))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int,
              scale: float = 1.0, hashseed: str = "0") -> dict:
    """Run one workload in a subprocess of its own; returns its document."""
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        raise SystemExit(f"{_SRC}/repro not found: the benchmark runs the "
                         "program from source and there is none here")
    tmp = os.path.join(_ROOT, ".bench_e2e_tmp", f"snap-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    for name in ("REPRO_SNAPSHOT_ARCHIVE", "REPRO_SNAPSHOT",
                 "REPRO_SNAPSHOT_MAX_BYTES", "REPRO_REFERENCE_STATE"):
        env.pop(name, None)
    env.update(PYTHONHASHSEED=hashseed, REPRO_SNAPSHOT_DIR=tmp)
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child",
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--scale", str(scale)],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass                   # another run still has its directory
    if done.returncode != 0:
        raise SystemExit(f"{workload}: subprocess exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- printing ----------------------------------------------------------------

def print_run(doc: dict) -> None:
    """Every metric of one run by name, with its unit."""
    tag = doc["workload"]
    q1, q2, q3 = doc["wall_quartiles_s"]
    print(f"# {tag}: seed {doc['seed']} scale {doc['scale']}; "
          f"{doc['reps']} untraced + {doc['traced_reps']} traced reps of "
          f"{doc['ops_per_rep']} ops, untraced wall/rep q1 {q1:.3f} median "
          f"{q2:.3f} q3 {q3:.3f} s; setup once {doc['setup_once_s']:.3f} s "
          f"+ per rep {doc['setup_rep_s']:.3f} s; python {doc['python']}, "
          f"nproc {doc['nproc']}, PYTHONHASHSEED {doc['pythonhashseed']}")
    attempted, failed = doc["attempted"], doc["failed"]
    print(f"{tag} failed_ops_frac {failed / attempted:.6g} fraction "
          f"({failed} failed of {attempted} attempted)")
    print(f"{tag} sim_digest {doc['digest']}")
    if not doc["trace"]:
        print(f"{tag} host_ops_per_s {doc['host_ops_per_s']:.6g} op/s "
              "(unbounded; stack.host_ops_per_s in the traced pass)")
    for name, value in doc["metrics"].items():
        print(f"{tag} {name} {value:.6g} {UNITS[name]}")
    for key, value in doc["paper"].items():
        print(f"{tag} paper.{key} {value:.4g} x   "
              f"[{doc['paper_bands'][key]}]")
    for problem in doc["problems"]:
        print(f"{tag} PROBLEM {problem}", file=sys.stderr)


def is_correct(doc: dict) -> bool:
    return not doc["problems"] and doc["failed"] == 0


# -- modes -------------------------------------------------------------------

def contract_run(args) -> int:
    doc = run_child(args.workload, args.seed, args.seconds, args.trace,
                    args.scale)
    print_run(doc)
    names = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    print(json.dumps({
        "correct": is_correct(doc),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": doc["metrics"][name],
                           "unit": UNITS[name]} for name in names},
    }))
    return 0


def suite(args) -> dict:
    """Every workload untraced, then traced; ``{workload: (doc, doc)}``."""
    out = {}
    for name in WORKLOAD_NAMES:
        untraced = run_child(name, args.seed, args.seconds, 0, args.scale)
        print_run(untraced)
        # the traced pass needs one profiled repetition, not a time budget
        traced = run_child(name, args.seed, 0, 1, args.scale)
        print_run(traced)
        if traced["digest"] != untraced["digest"]:
            traced["problems"].append("sim_digest differs between the "
                                      "untraced and the traced pass")
            print(f"{name} PROBLEM {traced['problems'][-1]}",
                  file=sys.stderr)
        sys.stdout.flush()
        out[name] = (untraced, traced)
    return out


def suite_ok(result: dict) -> bool:
    return all(is_correct(doc) for pair in result.values() for doc in pair)


def aa(args) -> int:
    """The suite twice on the same code: do the two sets agree?"""
    first, second = suite(args), suite(args)
    ok = suite_ok(first) and suite_ok(second)
    print("# A/A: workload metric first second relative-difference limit")
    for name in WORKLOAD_NAMES:
        # simulated results of one seed must not move at all (limit 0)
        rows = [(metric, 0.0 if metric.startswith("sim_") else bound,
                 first[name][0]["metrics"][metric],
                 second[name][0]["metrics"][metric])
                for metric, _unit, _better, bound in END_TO_END]
        rows.append(("host_ops_per_s", AA_HOST_LIMIT,
                     first[name][0]["host_ops_per_s"],
                     second[name][0]["host_ops_per_s"]))
        for metric, limit, a, b in rows:
            diff = abs(a - b) / abs(a)
            ok = ok and diff <= limit
            print(f"{name} {metric} {a:.6g} {b:.6g} {diff:.4f} {limit} "
                  f"{'ok' if diff <= limit else 'DIFFERS'}")
        moved = [m for m in EXACT_PER_LAYER if first[name][1]["metrics"][m]
                 != second[name][1]["metrics"][m]]
        same_digest = first[name][0]["digest"] == second[name][0]["digest"]
        print(f"{name} exact per-layer metrics: "
              f"{len(EXACT_PER_LAYER) - len(moved)} of "
              f"{len(EXACT_PER_LAYER)} identical; sim_digest "
              f"{'identical' if same_digest else 'DIFFERS'}")
        for m in moved:
            print(f"{name} {m} DIFFERS")
        ok = ok and not moved and same_digest
    print("A/A", "agrees" if ok else "DISAGREES")
    return 0 if ok else 1


def check_layers() -> int:
    modules = source_modules()
    problems = check_coverage(modules)
    for line in problems:
        print(line)
    print(f"{len(modules)} modules under {os.path.relpath(SRC_ROOT, _ROOT)}, "
          f"{len(problems)} not mapped to exactly one layer")
    return 1 if problems or not modules else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7,
                    help="feeds every generator (stream, aging, offsets, "
                         "key choice)")
    ap.add_argument("--seconds", type=float, default=16.0,
                    help="timed work per run; repetitions repeat until it "
                         "is reached")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload and end with the contract's "
                         "JSON line")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 profiles and reports the "
                         "per-layer metrics")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrinks op counts, for smoke use only")
    ap.add_argument("--aa", action="store_true",
                    help="run the suite twice and compare the two sets")
    ap.add_argument("--check-layers", action="store_true",
                    help="fail unless every src/repro module maps to "
                         "exactly one layer")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.check_layers:
        return check_layers()
    if args.workload:
        return contract_run(args)
    if args.aa:
        return aa(args)
    return 0 if suite_ok(suite(args)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
