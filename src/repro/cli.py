"""Command-line interface: ``python -m repro <command>``.

Quick access to the library without writing a script:

* ``repro info`` — the evaluated file systems and experiment catalogue;
* ``repro age --fs NOVA --util 0.75`` — age one file system and print the
  fragmentation report;
* ``repro mmap-bench --fs WineFS --aged`` — the Fig 1-style probe;
* ``repro crash-test`` — run the CrashMonkey/ACE catalogue on WineFS;
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
from .harness import CAMPAIGNS, SPECS_BY_NAME, Table, aged_fs, fresh_fs
from .params import GIB, MIB
from .workloads import mmap_rw_benchmark, run_scalability


_PATTERNS = ("seq-write", "rand-write", "seq-read", "rand-read")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fs", default="WineFS", choices=sorted(SPECS_BY_NAME),
                   help="file system to run (default: WineFS)")
    p.add_argument("--size-gib", type=float, default=0.5,
                   help="simulated partition size in GiB")
    p.add_argument("--cpus", type=int, default=4)
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="dump the run's event counters as JSON "
                        "('-' for stdout)")


def _dump_metrics(args, counters) -> None:
    if getattr(args, "metrics_out", None):
        from .obs import write_metrics_json
        write_metrics_json(args.metrics_out, counters)


def _campaign_cells(name: str, args) -> List[dict]:
    """The campaign's matrix from parsed flags: every list flag's and
    every parameter flag's ``dest`` is the axis / parameter it sets."""
    campaign = CAMPAIGNS[name]
    flags = vars(args)
    return campaign.matrix(*(flags[axis] for axis in campaign.axes),
                           **{key: flags[key] for key in campaign.defaults
                              if key in flags})


def _emit_report(args, report) -> bool:
    """Write ``--out``; true when it did not take stdout, which is then
    free for the human-readable table."""
    import json

    if args.out:
        blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out == "-":
            sys.stdout.write(blob)
        else:
            with open(args.out, "w") as handle:
                handle.write(blob)
            print(f"wrote {args.out} ({len(report['cells'])} cells, "
                  f"jobs={args.jobs})")
    return args.out != "-"


def cmd_bench(args) -> int:
    """Deterministic (fs, pattern, seed) matrix over the fleet runner.

    The JSON report contains only simulated quantities and is sorted by
    cell key, so it is byte-identical for any ``--jobs`` value.
    """
    cells = _campaign_cells("bench", args)
    _emit_report(args, CAMPAIGNS["bench"].run(cells, jobs=args.jobs))
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
    from .errors import FSError, InvalidArgumentError
    from .faults import FaultPlan, FaultSpec
    from .harness.report import fault_table
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
        try:
            with open(args.plan, "rb") as fh:
                plan = FaultPlan.from_json(fh.read())
            plan.attach(device)  # rejects poison outside this device
        except (OSError, InvalidArgumentError) as exc:
            print(f"repro faults: --plan {args.plan}: {exc}",
                  file=sys.stderr)
            return 2
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

    print(fault_table(plan, title=f"fault report (seed={plan.seed}, "
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
    from .harness.report import availability_table, slo_table

    cells = _campaign_cells("slo", args)
    report = CAMPAIGNS["slo"].run(cells, jobs=args.jobs)
    if _emit_report(args, report):
        title = (f"SLO report ({len(cells)} cells, "
                 f"seeds={','.join(str(s) for s in args.seed)})")
        print(slo_table(report["results"], title=title).render())
        if report["availability"]:
            print()
            print(availability_table(report["availability"]).render())
    return 0


def cmd_serve(args) -> int:
    """The ``repro.serve`` object service from the command line.

    Without ``--load``: stand up one storage from the flags, serve a few
    demonstration objects through the multiplexer, and print what
    happened — a smoke test of the whole stack.

    With ``--load``: run the seeded multi-tenant load matrix through the
    fleet runner.  The JSON report contains only simulated quantities
    merged in sorted-cell-key order, so it is byte-identical for any
    ``--jobs`` value and across repeated runs with the same seeds.
    """
    from .harness.report import slo_table

    if not args.load:
        from .serve import LoadSpec, generate_stream, get_objstorage, run_load
        backends = [{"cls": "fs", "fs": name, "size_gib": args.size_gib,
                     "num_cpus": args.num_cpus, "aged": args.aged}
                    for name in args.fs]
        storage = get_objstorage(cls="multiplexer", backends=backends,
                                 queue_cap=args.queue_cap)
        stream = generate_stream(LoadSpec(seed=args.seed[0],
                                          tenants=args.tenants, ops=50))
        report = run_load(storage, stream)
        print(f"served {report['requests']} requests across "
              f"{args.tenants} tenant(s) on {len(args.fs)} backend(s): "
              f"{report['ops']}")
        print(f"moved {report['bytes_put']} bytes in / "
              f"{report['bytes_got']} bytes out; "
              f"rejected {report['rejected']}; "
              f"errors {report['errors'] or 'none'}")
        return 0

    cells = _campaign_cells("serve", args)
    report = CAMPAIGNS["serve"].run(cells, jobs=args.jobs)
    if _emit_report(args, report):
        totals = report["totals"]
        title = (f"serve report ({len(cells)} cells, "
                 f"{totals['requests']} requests, "
                 f"{totals['rejected']} rejected)")
        service_rows = [r for r in report["results"]
                        if r["slo"] == "service"]
        print(slo_table(service_rows, title=title).render())
    return 0


def cmd_snapshot(args) -> int:
    """Build and maintain the aged-image snapshot archive.

    ``--archive`` defaults to the cache directory ``aged_fs`` restores
    from, which holds one file per image.  ``build`` fans the (fs ×
    profile × utilization × seed) grid across ``--jobs`` workers and
    archives every image (byte-identical files for any jobs value);
    ``ls`` lists the images; ``scrub`` re-verifies every image CRC,
    quarantines damaged images (exit 1 when it finds any) and reclaims
    what killed writers left; ``gc`` evicts LRU images until
    ``--max-bytes`` holds.
    """
    from .snapshot import Archive, snapshot_dir
    from .snapshot.store import env_max_bytes

    root = args.archive or snapshot_dir()
    archive = Archive(root)  # fails before any aging if the root is unusable

    if args.action == "build":
        cells = _campaign_cells("snapshot", args)
        report = CAMPAIGNS["snapshot"].run(cells, jobs=args.jobs, root=root)
        if _emit_report(args, report):
            stats = report["archive"]
            print(f"archived {len(cells)} cells -> "
                  f"{stats['images']} image(s), {stats['bytes']:,} bytes")
        return 0

    if args.action == "ls":
        for key in archive.keys():
            print(key)
        stats = archive.stats()
        print(f"{stats['images']} image(s), {stats['bytes']:,} bytes")
        return 0

    if args.action == "scrub":
        report = archive.scrub()
        print(f"scrubbed {report['images']} image(s)")
        for key in report["quarantined"]:
            print(f"quarantined {key}; it will re-age on next use")
        for name in report["reclaimed"]:
            print(f"reclaimed {name}")
        return 1 if report["quarantined"] else 0

    max_bytes = args.max_bytes
    if max_bytes is None:
        try:
            max_bytes = env_max_bytes()
        except ValueError as exc:
            print(f"repro snapshot gc: {exc}", file=sys.stderr)
            return 2
        if max_bytes is None:
            print("repro snapshot gc: needs --max-bytes or "
                  "$REPRO_SNAPSHOT_MAX_BYTES", file=sys.stderr)
            return 2
    report = archive.gc(max_bytes)
    print(f"evicted {len(report['evicted'])} image(s), freed "
          f"{report['freed_bytes']:,} bytes")
    return 0


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
        write_chrome_trace(args.trace_out, tracer, ctx.counters)
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


#: campaign axis -> (its list flag, item type, accepts)
_AXIS_FLAGS = {
    "fs": ("--fs", str, SPECS_BY_NAME.__contains__),
    "pattern": ("--patterns", str, _PATTERNS.__contains__),
    "profile": ("--profiles", str, PROFILES.__contains__),
    "utilization": ("--utils", float, lambda u: 0.0 < u < 1.0),
    "seed": ("--seeds", int, lambda seed: True),
}


def _list_flag(axis: str):
    """``argparse`` type of the list flag filling *axis*: the sorted,
    de-duplicated items; anything else is a usage error (``argparse``
    turns the ``ValueError`` into one) before anything runs."""
    _flag, cast, accepts = _AXIS_FLAGS[axis]

    def comma_list(value: str) -> list:
        items = {cast(x) for x in value.split(",") if x}
        if not items or not all(map(accepts, items)):
            raise ValueError(value)
        return sorted(items)
    return comma_list


def _add_campaign(sub, name: str, blurb: str, out: Optional[str] = None,
                  **axis_defaults: str) -> argparse.ArgumentParser:
    """The subparser of one registered campaign: ``--jobs``, one list
    flag per axis (``dest`` is the axis), ``--size-gib`` / ``--cpus``
    with the defaults of ``CAMPAIGNS[name]``, and ``--out``."""
    campaign = CAMPAIGNS[name]
    p = sub.add_parser(name, help=blurb)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (reports and archived images "
                        "are byte-identical for any value)")
    for axis in campaign.axes:
        p.add_argument(_AXIS_FLAGS[axis][0], dest=axis, metavar="LIST",
                       type=_list_flag(axis), default=axis_defaults[axis],
                       help=f"comma-separated {axis} values")
    p.add_argument("--size-gib", type=float,
                   default=campaign.defaults["size_gib"])
    p.add_argument("--cpus", dest="num_cpus", type=int,
                   default=campaign.defaults["num_cpus"])
    p.add_argument("--out", metavar="PATH", default=out,
                   help="write the JSON report ('-' for stdout)")
    return p


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
    p.add_argument("--pattern", default="seq-write", choices=_PATTERNS)

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

    p = _add_campaign(sub, "bench", "run a deterministic benchmark matrix "
                      "across worker processes", out="-",
                      fs="WineFS,ext4-DAX", pattern="seq-read,rand-read",
                      seed="1,2")
    p.add_argument("--aged", action="store_true",
                   help="age each cell's file system first (snapshot-"
                        "cached)")

    slo = _add_campaign(sub, "slo", "run a seeded fault campaign with "
                        "telemetry on and report per-FS SLOs (latency "
                        "quantiles, error budgets, degraded-mode time)",
                        fs="WineFS,ext4-DAX", seed="1,2")
    slo.add_argument("--ops", type=_positive_int,
                     default=CAMPAIGNS["slo"].defaults["ops"],
                     help="operations per campaign phase")

    serve = _add_campaign(sub, "serve", "serve a multi-tenant object "
                          "workload (put/get/exists/delete/list) over "
                          "simulated FS backends", fs="WineFS", seed="1")
    defaults = CAMPAIGNS["serve"].defaults
    serve.add_argument("--load", action="store_true",
                       help="run the seeded load matrix instead of the "
                            "demo smoke run")
    serve.add_argument("--ops", type=_positive_int, default=defaults["ops"],
                       help="requests per load cell")
    serve.add_argument("--tenants", type=_positive_int,
                       default=defaults["tenants"])
    serve.add_argument("--queue-cap", type=int, default=defaults["queue_cap"],
                       help="per-backend admission queue depth "
                            "(0 disables admission control)")
    serve.add_argument("--aged", action="store_true",
                       help="serve from aged images (snapshot-cached)")
    serve.add_argument("--faults", action="store_true",
                       help="run the seeded serve fault campaign mid-load")

    p = _add_campaign(sub, "snapshot", "build and maintain the "
                      "aged-image snapshot archive", fs="WineFS",
                      profile="agrawal", utilization="0.75", seed="7")
    p.add_argument("action", choices=["build", "ls", "scrub", "gc"],
                   help="build: archive an aged-image corpus; ls: list "
                        "images; scrub: verify CRCs, quarantine damage "
                        "and reclaim crash leftovers; gc: evict LRU images")
    p.add_argument("--archive", metavar="DIR", default=None,
                   help="archive root (default: $REPRO_SNAPSHOT_DIR, the "
                        "cache aged_fs restores from)")
    p.add_argument("--churn", dest="churn_multiple", type=float,
                   default=CAMPAIGNS["snapshot"].defaults["churn_multiple"],
                   help="churn volume as a multiple of partition size")
    p.add_argument("--track-data", action="store_true",
                   help="archive images that keep file contents (what "
                        "serve backends restore)")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="gc target size (default: "
                        "$REPRO_SNAPSHOT_MAX_BYTES)")

    p = sub.add_parser("trace", help="run a workload with span tracing on "
                                     "and export the trace")
    p.add_argument("workload", choices=["mmap", "posix", "scalability"],
                   help="which workload to trace")
    _add_common(p)
    p.add_argument("--pattern", default="seq-write", choices=_PATTERNS,
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
    "scalability": cmd_scalability,
    "trace": cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
