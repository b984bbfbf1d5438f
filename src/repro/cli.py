"""Command-line interface: ``python -m repro <command>``.

Quick access to the library without writing a script:

* ``repro info`` — the evaluated file systems and experiment catalogue;
* ``repro age --fs NOVA --util 0.75`` — age one file system and print the
  fragmentation report;
* ``repro mmap-bench --fs WineFS --aged`` — the Fig 1-style probe;
* ``repro crash-test`` — run the CrashMonkey/ACE catalogue on WineFS;
* ``repro lint`` — the repro.analysis static-analysis suite (CI gate);
* ``repro slo --jobs 2`` — seeded fault campaign with SLO telemetry;
* ``repro serve --load --seeds 1,2`` — seeded multi-tenant object-service
  load over simulated backends (``repro.serve``);
* ``repro snapshot build --jobs 4`` — archive an aged-image corpus into
  the snapshot archive ``aged_fs`` restores from (then ``ls``/``scrub``/
  ``gc`` it);
* ``repro scalability --fs WineFS --threads 1,4,16`` — a Fig 10 slice.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .aging import PROFILES, Geriatrix, fragmentation_report
from .harness import SPECS_BY_NAME, Table, aged_fs, fresh_fs
from .params import GIB, MIB
from .workloads import mmap_rw_benchmark, run_scalability


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fs", default="WineFS", choices=sorted(SPECS_BY_NAME),
                   help="file system to run (default: WineFS)")
    p.add_argument("--size-gib", type=float, default=0.5,
                   help="simulated partition size in GiB")
    p.add_argument("--cpus", type=int, default=4)
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="dump the run's metrics registry as JSON "
                        "('-' for stdout)")


def _dump_metrics(args, counters) -> None:
    if getattr(args, "metrics_out", None):
        from .obs import write_metrics_json
        write_metrics_json(args.metrics_out, counters.registry)


def cmd_bench(args) -> int:
    """Deterministic (fs, pattern, seed) matrix over the fleet runner.

    The JSON report contains only simulated quantities and is sorted by
    cell key, so it is byte-identical for any ``--jobs`` value.
    """
    import json

    from .harness.fleet import bench_matrix, run_bench_matrix

    fs_names = sorted(args.bench_fs.split(","))
    for name in fs_names:
        if name not in SPECS_BY_NAME:
            raise SystemExit(f"unknown file system {name!r}")
    seeds = sorted(int(s) for s in args.seeds.split(","))
    patterns = sorted(args.patterns.split(","))
    cells = bench_matrix(fs_names, patterns, seeds,
                         size_gib=args.size_gib, num_cpus=args.cpus,
                         aged=args.aged)
    report = run_bench_matrix(cells, jobs=args.jobs)
    blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(blob)
    else:
        with open(args.out, "w") as handle:
            handle.write(blob)
        cell_count = len(report["cells"])
        print(f"wrote {args.out} ({cell_count} cells, jobs={args.jobs})")
    return 0


def cmd_info(_args) -> int:
    table = Table("Evaluated file systems", ["name", "consistency",
                                             "ageable"])
    for spec in SPECS_BY_NAME.values():
        table.add_row(spec.name,
                      "data+metadata" if spec.data_consistent
                      else "metadata", "yes" if spec.ageable else "no")
    print(table.render())
    print("\nExperiments: pytest benchmarks/ --benchmark-only")
    print("Figures/tables covered: 1, 2, 3, 4, 6, 7, 8, 9, 10; "
          "Table 2; §4, §5.2, §5.5 utilities, §5.7; ablations")
    return 0


def cmd_age(args) -> int:
    profile = PROFILES[args.profile]
    fs, ctx = fresh_fs(args.fs, size_gib=args.size_gib, num_cpus=args.cpus)
    ager = Geriatrix(fs, profile, target_utilization=args.util,
                     seed=args.seed)
    result = ager.age(ctx, write_volume=int(args.churn * args.size_gib
                                            * GIB))
    print(f"aged {fs.name} with {result.bytes_written / GIB:.2f} GiB of "
          f"churn ({result.files_created} creates / "
          f"{result.files_deleted} deletes)")
    print(fragmentation_report(fs))
    _dump_metrics(args, ctx.counters)
    return 0


def cmd_mmap_bench(args) -> int:
    if args.aged:
        fs, ctx = aged_fs(args.fs, size_gib=args.size_gib,
                          num_cpus=args.cpus, utilization=args.util,
                          churn_multiple=args.churn)
    else:
        fs, ctx = fresh_fs(args.fs, size_gib=args.size_gib,
                           num_cpus=args.cpus)
    stats = fs.statfs()
    file_size = min(int(stats.free_blocks * stats.block_size * 0.6),
                    64 * MIB)
    file_size -= file_size % (2 * MIB)
    r = mmap_rw_benchmark(fs, ctx, file_size=max(file_size, 4 * MIB),
                          io_size=2 * MIB, pattern=args.pattern)
    state = "aged" if args.aged else "clean"
    print(f"{fs.name} ({state}) {args.pattern}: "
          f"{r.throughput_mb_s:,.0f} MB/s; faults "
          f"{r.page_faults_2m} huge / {r.page_faults_4k} base; "
          f"{r.fault_time_fraction:.0%} of time in faults")
    _dump_metrics(args, ctx.counters)
    return 0


def cmd_crash_test(args) -> int:
    from .core.filesystem import WineFS
    from .crashmon import CrashExplorer, generate_workloads
    from .pm.device import PMDevice
    explorer = CrashExplorer(lambda dev: WineFS(dev, num_cpus=2),
                             device_size=64 * MIB, num_cpus=2)
    depth = 1 if args.quick else args.depth
    workloads = generate_workloads(seq2=depth >= 2, seq3=depth >= 3)
    failures = 0
    for result in explorer.run_all(workloads):
        mark = "PASS" if result.passed else "FAIL"
        print(f"{mark} {result.workload:22s} "
              f"({result.states_checked} crash states)")
        failures += not result.passed
        for v in result.violations[:3]:
            print("   ", v[:200])
    return 1 if failures else 0


def cmd_faults(args) -> int:
    """Run a canned WineFS workload under a fault plan and report it."""
    from .clock import make_context
    from .core.filesystem import WineFS
    from .errors import FSError
    from .faults import FaultPlan, FaultSpec
    from .obs import fault_report
    from .params import BLOCK_SIZE
    from .pm.device import PMDevice

    device = PMDevice(64 * MIB)
    fs = WineFS(device, num_cpus=2)
    ctx = make_context(2)
    fs.mkfs(ctx)
    f = fs.create("/victim", ctx)
    f.append(b"\xab" * (64 * BLOCK_SIZE), ctx)
    f.close()
    extents = list(fs.file_extents(fs.getattr("/victim").ino))

    if args.plan:
        with open(args.plan, encoding="utf-8") as fh:
            plan = FaultPlan.from_json(fh.read())
    else:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        specs = []
        if "poison" in kinds:
            specs.append(FaultSpec("poison",
                                   addr=extents[0].start * BLOCK_SIZE,
                                   length=64))
        if "torn_store" in kinds:
            specs.append(FaultSpec("torn_store", at_op=5))
        if "latency" in kinds:
            specs.append(FaultSpec("latency", at_op=0, count=500,
                                   latency_mult=4.0))
        if "enospc" in kinds:
            specs.append(FaultSpec("enospc", at_op=2, count=1))
        if "write_error" in kinds:
            specs.append(FaultSpec("write_error",
                                   blocks=(extents[0].start + 1,),
                                   count=1))
        plan = FaultPlan(seed=args.seed, specs=specs)
    if args.emit_plan:
        with open(args.emit_plan, "w", encoding="utf-8") as fh:
            fh.write(plan.to_json() + "\n")
    fs.attach_fault_plan(plan)

    surfaced: List[str] = []

    def attempt(label, fn):
        try:
            fn()
        except FSError as exc:
            surfaced.append(f"{label}: {exc.errno_name}: {exc}")

    attempt("read", lambda: fs.read_file("/victim", ctx))
    attempt("overwrite", lambda: fs.open("/victim", ctx)
            .pwrite(BLOCK_SIZE, b"\xcd" * BLOCK_SIZE, ctx))
    for i in range(4):
        attempt(f"create-{i}",
                lambda i=i: fs.write_file(f"/new{i}",
                                          b"z" * BLOCK_SIZE, ctx))
    attempt("reread", lambda: fs.read_file("/victim", ctx))
    attempt("unmount", lambda: fs.unmount(ctx))
    attempt("remount", lambda: fs.mount(ctx))

    print(fault_report(plan, title=f"fault report (seed={plan.seed}, "
                                   f"{len(plan.specs)} specs)"))
    for line in surfaced:
        print("surfaced:", line)
    state = f"read-only ({fs.degraded_reason})" if fs.read_only \
        else "read-write"
    print(f"post-run state: {state}")
    return 0


def cmd_slo(args) -> int:
    """Run a seeded fault campaign with telemetry on and report SLOs.

    The JSON report (``--out``) contains only simulated quantities,
    merged in sorted-cell-key order, so it is byte-identical for any
    ``--jobs`` value — that is what the CI ``slo-smoke`` step diffs.
    """
    import json

    from .harness.fleet import run_slo_campaign, slo_matrix
    from .harness.report import availability_table, slo_table

    fs_names = sorted(args.slo_fs.split(","))
    for name in fs_names:
        if name not in SPECS_BY_NAME:
            raise SystemExit(f"unknown file system {name!r}")
    seeds = sorted(int(s) for s in args.seeds.split(","))
    cells = slo_matrix(fs_names, seeds, size_gib=args.size_gib,
                       num_cpus=args.cpus, ops=args.ops)
    report = run_slo_campaign(cells, jobs=args.jobs)
    if args.out:
        blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out == "-":
            sys.stdout.write(blob)
        else:
            with open(args.out, "w") as handle:
                handle.write(blob)
            print(f"wrote {args.out} ({len(report['cells'])} cells, "
                  f"jobs={args.jobs})")
    if args.openmetrics:
        from .obs import write_openmetrics
        write_openmetrics(args.openmetrics, report["frame"])
        if args.openmetrics != "-":
            print(f"wrote {args.openmetrics} (OpenMetrics)")
    if args.out != "-" and args.openmetrics != "-":
        title = (f"SLO report ({len(report['cells'])} cells, "
                 f"seeds={','.join(str(s) for s in seeds)})")
        print(slo_table(report["results"], title=title).render())
        if report["availability"]:
            print()
            print(availability_table(report["availability"]).render())
    return 0


def cmd_serve(args) -> int:
    """The ``repro.serve`` object service from the command line.

    Without ``--load``: stand up one storage from the flags, serve a few
    demonstration objects through the RPC loopback, and print what
    happened — a smoke test of the whole stack.

    With ``--load``: run the seeded multi-tenant load matrix through the
    fleet runner.  The JSON report and the OpenMetrics exposition
    contain only simulated quantities merged in sorted-cell-key order,
    so both are byte-identical for any ``--jobs`` value and across
    repeated runs with the same seeds.
    """
    import json

    from .harness.fleet import run_serve_campaign, serve_matrix
    from .harness.report import slo_table

    fs_names = sorted(args.serve_fs.split(","))
    for name in fs_names:
        if name not in SPECS_BY_NAME:
            raise SystemExit(f"unknown file system {name!r}")

    if not args.load:
        from .serve import LoadSpec, generate_stream, get_objstorage, \
            loopback_client, run_load
        backends = [{"cls": "fs", "fs": name, "size_gib": args.size_gib,
                     "num_cpus": args.cpus, "aged": args.aged}
                    for name in fs_names]
        storage = get_objstorage(cls="multiplexer", backends=backends,
                                 queue_cap=args.queue_cap)
        client = loopback_client(storage)
        stream = generate_stream(LoadSpec(seed=args.seeds_list[0],
                                          tenants=args.tenants, ops=50))
        report = run_load(client, stream)
        print(f"served {report['requests']} requests across "
              f"{args.tenants} tenant(s) on {len(fs_names)} backend(s): "
              f"{report['ops']}")
        print(f"moved {report['bytes_put']} bytes in / "
              f"{report['bytes_got']} bytes out; "
              f"rejected {report['rejected']}; "
              f"errors {report['errors'] or 'none'}")
        return 0

    cells = serve_matrix(fs_names, args.seeds_list, size_gib=args.size_gib,
                         num_cpus=args.cpus, ops=args.ops,
                         tenants=args.tenants, queue_cap=args.queue_cap,
                         aged=args.aged, faults=args.faults)
    report = run_serve_campaign(cells, jobs=args.jobs)
    if args.out:
        blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out == "-":
            sys.stdout.write(blob)
        else:
            with open(args.out, "w") as handle:
                handle.write(blob)
            print(f"wrote {args.out} ({len(report['cells'])} cells, "
                  f"jobs={args.jobs})")
    if args.openmetrics:
        from .obs import write_openmetrics
        write_openmetrics(args.openmetrics, report["frame"])
        if args.openmetrics != "-":
            print(f"wrote {args.openmetrics} (OpenMetrics)")
    if args.out != "-" and args.openmetrics != "-":
        totals = report["totals"]
        title = (f"serve report ({len(report['cells'])} cells, "
                 f"{totals['requests']} requests, "
                 f"{totals['rejected']} rejected)")
        service_rows = [r for r in report["results"]
                        if r["slo"] == "service"]
        print(slo_table(service_rows, title=title).render())
    return 0


def cmd_snapshot(args) -> int:
    """Build and maintain the sharded aged-image snapshot archive.

    ``--archive`` defaults to the cache directory ``aged_fs`` restores
    from.  ``build`` fans the (fs × profile × utilization × seed) grid
    across ``--jobs`` workers and archives every image (byte-identical
    packs and index for any jobs value); ``ls`` enumerates the index;
    ``scrub`` re-verifies every record CRC and quarantines damaged
    packs (exit 1 when it finds any); ``gc`` evicts LRU packs until
    ``--max-bytes`` holds.
    """
    import json
    import os

    from .snapshot import Archive, snapshot_dir

    root = args.archive or snapshot_dir()
    archive = Archive(root)  # fails before any aging if the root is unusable

    if args.action == "build":
        from .harness.fleet import build_corpus, corpus_matrix

        fs_names = sorted(args.snap_fs.split(","))
        for name in fs_names:
            if name not in SPECS_BY_NAME:
                raise SystemExit(f"unknown file system {name!r}")
        profiles = sorted(args.profiles.split(","))
        utilizations = sorted(float(u) for u in args.utils.split(","))
        seeds = sorted(int(s) for s in args.seeds.split(","))
        cells = corpus_matrix(fs_names, profiles, utilizations, seeds,
                              size_gib=args.size_gib, num_cpus=args.cpus,
                              churn_multiple=args.churn,
                              track_data=args.track_data)
        seal = (None if args.seal_mib is None
                else int(args.seal_mib * MIB))
        report = build_corpus(cells, root, jobs=args.jobs, seal_bytes=seal)
        if args.out:
            blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
            if args.out == "-":
                sys.stdout.write(blob)
            else:
                with open(args.out, "w") as handle:
                    handle.write(blob)
                print(f"wrote {args.out} ({len(report['cells'])} cells, "
                      f"jobs={args.jobs})")
        if args.out != "-":
            stats = report["archive"]
            print(f"archived {len(report['cells'])} cells -> "
                  f"{stats['objects']} objects "
                  f"({stats['aliases']} deduped) in {stats['packs']} "
                  f"pack(s), {stats['bytes']:,} bytes")
        return 0

    if args.action == "ls":
        for key, relpath, offset, length in archive.objects():
            print(f"{key}  {relpath}:{offset}+{length}")
        stats = archive.stats()
        print(f"{stats['objects']} object(s) ({stats['aliases']} aliased), "
              f"{stats['packs']} pack(s), {stats['shards']} shard(s), "
              f"{stats['bytes']:,} bytes")
        return 0

    if args.action == "scrub":
        report = archive.scrub()
        print(f"scrubbed {report['files']} file(s), "
              f"{report['objects']} object record(s)")
        for relpath in report["quarantined"]:
            print(f"quarantined {relpath}")
        if report["dropped_keys"]:
            print(f"dropped {len(report['dropped_keys'])} key(s); "
                  "affected images will re-age on next use")
        return 1 if report["quarantined"] else 0

    max_bytes = args.max_bytes
    if max_bytes is None:
        raw = os.environ.get("REPRO_SNAPSHOT_MAX_BYTES")
        if raw is None:
            raise SystemExit("gc needs --max-bytes or "
                             "$REPRO_SNAPSHOT_MAX_BYTES")
        max_bytes = int(raw)
    report = archive.gc(max_bytes)
    print(f"evicted {len(report['evicted'])} pack(s), freed "
          f"{report['freed_bytes']:,} bytes "
          f"({len(report['dropped_keys'])} key(s) dropped)")
    return 0


def cmd_lint(args) -> int:
    """Run the repro.analysis static-analysis suite (see DESIGN.md)."""
    import json
    import os

    from .analysis import (DEFAULT_BASELINE, DEFAULT_FLOW_BASELINE,
                           DEFAULT_TARGET, flow_rules, run_lint,
                           update_baseline)

    root = os.getcwd()
    targets = args.paths or [os.path.join(root, DEFAULT_TARGET)]
    default_baseline = DEFAULT_FLOW_BASELINE if args.flow else \
        DEFAULT_BASELINE
    rules = flow_rules() if args.flow else None
    baseline = args.baseline
    if baseline is None:
        baseline = os.path.join(root, default_baseline)
    elif baseline == "":
        baseline = None

    if args.emit_registry:
        from .analysis.rules.metric_names import emit_registry
        print(json.dumps(emit_registry(targets, root=root), indent=2))
        return 0

    if args.write_baseline:
        count = update_baseline(targets, baseline_path=baseline,
                                root=root, rules=rules)
        print(f"wrote {count} finding(s) to {baseline}")
        return 0

    result = run_lint(targets, baseline_path=baseline, root=root,
                      rules=rules)
    if args.sarif:
        from .analysis.sarif import to_sarif, validate_sarif
        doc = to_sarif(result.findings, base_uri=root)
        problems = validate_sarif(doc)
        if problems:  # never ship an invalid artifact silently
            print("\n".join(f"sarif: {p}" for p in problems))
            return 2
        with open(args.sarif, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    if args.json:
        print(result.render_json())
    else:
        print(result.render_text(verbose=args.verbose))
    return result.exit_code


def cmd_scalability(args) -> int:
    from .clock import make_context
    from .pm.device import PMDevice
    spec = SPECS_BY_NAME[args.fs]
    table = Table(f"{args.fs} scalability", ["threads", "Kops/s"])
    merged = None
    for threads in args.threads:
        device = PMDevice(int(args.size_gib * GIB))
        fs = spec.build(device, num_cpus=min(threads, 16),
                        track_data=False)
        ctx = make_context(16)
        fs.mkfs(ctx)
        ctx.clock.reset()
        r = run_scalability(fs, ctx, threads=threads, ops_per_thread=60)
        table.add_row(threads, r.kops_per_sec)
        merged = ctx.counters if merged is None \
            else merged.merged_with(ctx.counters)
    print(table.render())
    if merged is not None:
        _dump_metrics(args, merged)
    return 0


def cmd_trace(args) -> int:
    from .harness import phase_breakdown_table
    from .obs import Tracer, write_chrome_trace, write_span_jsonl
    from .workloads import posix_rw_benchmark
    tracer = Tracer(capacity=args.trace_capacity)
    if args.workload == "scalability":
        from .clock import make_context
        from .pm.device import PMDevice
        spec = SPECS_BY_NAME[args.fs]
        device = PMDevice(int(args.size_gib * GIB))
        fs = spec.build(device, num_cpus=args.cpus, track_data=False)
        ctx = make_context(16, trace=tracer)
        device.bind_metrics(ctx.counters.registry, fs=args.fs)
        fs.mkfs(ctx)
        ctx.clock.reset()
        run_scalability(fs, ctx, threads=args.cpus, ops_per_thread=60)
    else:
        fs, ctx = fresh_fs(args.fs, size_gib=args.size_gib,
                           num_cpus=args.cpus, trace=tracer)
        bench = mmap_rw_benchmark if args.workload == "mmap" \
            else posix_rw_benchmark
        bench(fs, ctx, file_size=8 * MIB, pattern=args.pattern)
    if args.format == "chrome":
        write_chrome_trace(args.trace_out, tracer, ctx.counters.registry)
    else:
        write_span_jsonl(args.trace_out, tracer)
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"wrote {len(tracer)} spans to {args.trace_out} "
          f"[{args.format}]{dropped}")
    print(phase_breakdown_table({fs.name: ctx.counters}).render())
    _dump_metrics(args, ctx.counters)
    return 0


def _parse_threads(value: str) -> List[int]:
    return [int(x) for x in value.split(",") if x]


def _parse_seeds(value: str) -> List[int]:
    seeds = sorted(int(x) for x in value.split(",") if x)
    if not seeds:
        raise argparse.ArgumentTypeError("need at least one seed")
    return seeds


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="WineFS (SOSP 2021) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list file systems and experiments")

    p = sub.add_parser("age", help="age a file system and report "
                                   "fragmentation")
    _add_common(p)
    p.add_argument("--util", type=float, default=0.75)
    p.add_argument("--churn", type=float, default=8.0,
                   help="churn volume as a multiple of partition size")
    p.add_argument("--profile", choices=sorted(PROFILES),
                   default="agrawal")
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("mmap-bench", help="Fig 1-style mmap bandwidth "
                                          "probe")
    _add_common(p)
    p.add_argument("--aged", action="store_true")
    p.add_argument("--util", type=float, default=0.75)
    p.add_argument("--churn", type=float, default=8.0)
    p.add_argument("--pattern", default="seq-write",
                   choices=["seq-write", "rand-write", "seq-read",
                            "rand-read"])

    p = sub.add_parser("crash-test", help="run the CrashMonkey/ACE "
                                          "catalogue on WineFS")
    p.add_argument("--quick", action="store_true",
                   help="seq-1 workloads only (same as --depth 1)")
    p.add_argument("--depth", type=int, choices=[1, 2, 3], default=2,
                   help="ACE sequence depth: 1 = single ops, 2 = + pairs "
                        "(default), 3 = + triples")

    p = sub.add_parser("faults", help="inject a deterministic fault plan "
                                      "into a WineFS run and report "
                                      "injected/masked/surfaced outcomes")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the plan's RNG (torn-store prefixes)")
    p.add_argument("--kinds", default="poison,torn_store,latency,enospc,"
                                      "write_error",
                   help="comma-separated fault kinds for the default plan")
    p.add_argument("--plan", metavar="PATH", default=None,
                   help="JSON fault plan to load instead of --kinds")
    p.add_argument("--emit-plan", metavar="PATH", default=None,
                   help="write the effective plan as JSON")

    p = sub.add_parser("scalability", help="Fig 10 slice for one FS")
    _add_common(p)
    p.add_argument("--threads", type=_parse_threads, default=[1, 4, 16])

    p = sub.add_parser("bench", help="run a deterministic benchmark matrix "
                                     "across worker processes")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (results are byte-identical "
                        "for any value)")
    p.add_argument("--fs", dest="bench_fs", default="WineFS,ext4-DAX",
                   help="comma-separated file systems")
    p.add_argument("--patterns", default="seq-read,rand-read",
                   help="comma-separated mmap I/O patterns")
    p.add_argument("--seeds", default="1,2",
                   help="comma-separated workload seeds")
    p.add_argument("--size-gib", type=float, default=0.25)
    p.add_argument("--cpus", type=int, default=4)
    p.add_argument("--aged", action="store_true",
                   help="age each cell's file system first (snapshot-"
                        "cached)")
    p.add_argument("--out", metavar="PATH", default="-",
                   help="report path ('-' for stdout)")

    p = sub.add_parser("slo", help="run a seeded fault campaign with "
                                   "telemetry on and report per-FS SLOs "
                                   "(latency quantiles, error budgets, "
                                   "degraded-mode time)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (the report is byte-identical "
                        "for any value)")
    p.add_argument("--fs", dest="slo_fs", default="WineFS,ext4-DAX",
                   help="comma-separated file systems")
    p.add_argument("--seeds", default="1,2",
                   help="comma-separated campaign seeds")
    p.add_argument("--ops", type=_positive_int, default=160,
                   help="operations per campaign phase")
    p.add_argument("--size-gib", type=float, default=0.25)
    p.add_argument("--cpus", type=int, default=2)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the JSON SLO report ('-' for stdout)")
    p.add_argument("--openmetrics", metavar="PATH", default=None,
                   help="write the merged frame as OpenMetrics text "
                        "('-' for stdout)")

    p = sub.add_parser("serve", help="serve a multi-tenant object "
                                     "workload (put/get/exists/delete/"
                                     "list) over simulated FS backends")
    p.add_argument("--load", action="store_true",
                   help="run the seeded load matrix instead of the "
                        "demo smoke run")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (the report is byte-identical "
                        "for any value)")
    p.add_argument("--fs", dest="serve_fs", default="WineFS",
                   help="comma-separated backend file systems")
    p.add_argument("--seeds", dest="seeds_list", type=_parse_seeds,
                   default=[1], help="comma-separated load seeds")
    p.add_argument("--ops", type=_positive_int, default=300,
                   help="requests per load cell")
    p.add_argument("--tenants", type=_positive_int, default=4)
    p.add_argument("--queue-cap", type=int, default=0,
                   help="per-backend admission queue depth "
                        "(0 disables admission control)")
    p.add_argument("--aged", action="store_true",
                   help="serve from aged images (snapshot-cached)")
    p.add_argument("--faults", action="store_true",
                   help="run the seeded serve fault campaign mid-load")
    p.add_argument("--size-gib", type=float, default=0.0625)
    p.add_argument("--cpus", type=int, default=2)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the JSON serve report ('-' for stdout)")
    p.add_argument("--openmetrics", metavar="PATH", default=None,
                   help="write the merged frame as OpenMetrics text "
                        "('-' for stdout)")

    p = sub.add_parser("snapshot", help="build and maintain the sharded "
                                        "aged-image snapshot archive")
    p.add_argument("action", choices=["build", "ls", "scrub", "gc"],
                   help="build: archive an aged-image corpus; ls: list "
                        "objects; scrub: verify CRCs and quarantine "
                        "damage; gc: evict LRU packs")
    p.add_argument("--archive", metavar="DIR", default=None,
                   help="archive root (default: $REPRO_SNAPSHOT_DIR, the "
                        "cache aged_fs restores from)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for build (packs and index are "
                        "byte-identical for any value)")
    p.add_argument("--fs", dest="snap_fs", default="WineFS",
                   help="comma-separated file systems to build")
    p.add_argument("--profiles", default="agrawal",
                   help="comma-separated aging profiles "
                        "(agrawal, wang-hpc)")
    p.add_argument("--utils", default="0.75",
                   help="comma-separated target utilizations")
    p.add_argument("--seeds", default="7",
                   help="comma-separated aging seeds")
    p.add_argument("--size-gib", type=float, default=0.25)
    p.add_argument("--cpus", type=int, default=2)
    p.add_argument("--churn", type=float, default=1.0,
                   help="churn volume as a multiple of partition size")
    p.add_argument("--track-data", action="store_true",
                   help="archive images that keep file contents (what "
                        "serve backends restore)")
    p.add_argument("--seal-mib", type=float, default=None,
                   help="pack seal threshold in MiB (default 64)")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="gc target size (default: "
                        "$REPRO_SNAPSHOT_MAX_BYTES)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the JSON build report ('-' for stdout)")

    p = sub.add_parser("lint", help="run the repro.analysis static-"
                                    "analysis suite over src/repro")
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint "
                        "(default: src/repro)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (byte-stable for a "
                        "given tree)")
    p.add_argument("--verbose", action="store_true",
                   help="also print baselined findings")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="baseline file (default: "
                        "src/repro/analysis/baseline.json; '' disables)")
    p.add_argument("--write-baseline", action="store_true",
                   help="regenerate the baseline from current findings")
    p.add_argument("--emit-registry", action="store_true",
                   help="print every metric/span name referenced at call "
                        "sites (to refresh repro/obs/names.py)")
    p.add_argument("--flow", action="store_true",
                   help="run the interprocedural rules (persist-before-"
                        "commit, lock-order-cycle, degraded-write-guard) "
                        "with the flow baseline")
    p.add_argument("--sarif", metavar="PATH", default=None,
                   help="also write a SARIF 2.1.0 report to PATH")

    p = sub.add_parser("trace", help="run a workload with span tracing on "
                                     "and export the trace")
    p.add_argument("workload", choices=["mmap", "posix", "scalability"],
                   help="which workload to trace")
    _add_common(p)
    p.add_argument("--pattern", default="seq-write",
                   choices=["seq-write", "rand-write", "seq-read",
                            "rand-read"],
                   help="I/O pattern for mmap/posix workloads")
    p.add_argument("--trace-out", metavar="PATH", default="trace.json",
                   help="output file (default: trace.json)")
    p.add_argument("--format", choices=["chrome", "jsonl"],
                   default="chrome",
                   help="chrome: Perfetto-compatible trace_event JSON; "
                        "jsonl: one span object per line")
    p.add_argument("--trace-capacity", type=_positive_int, default=65536,
                   help="span ring-buffer size (oldest spans drop first)")
    return parser


COMMANDS = {
    "bench": cmd_bench,
    "info": cmd_info,
    "age": cmd_age,
    "mmap-bench": cmd_mmap_bench,
    "crash-test": cmd_crash_test,
    "faults": cmd_faults,
    "slo": cmd_slo,
    "serve": cmd_serve,
    "snapshot": cmd_snapshot,
    "lint": cmd_lint,
    "scalability": cmd_scalability,
    "trace": cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
