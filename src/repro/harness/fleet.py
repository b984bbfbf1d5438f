"""Parallel scenario runner: shard independent cells across processes.

Figure sweeps, property-differential seeds, and the perf matrix are all
embarrassingly parallel: each (fs, scenario, seed) cell builds its own
simulated machine, so cells share no state and can run anywhere.  The
determinism rules that keep a parallel run byte-identical to a serial
one:

* :meth:`Campaign.matrix` materializes and orders the cell list up front
  — the cell key, not worker scheduling, defines the merge order;
* results come back indexed by input position (``Executor.map``), so
  completion order is invisible;
* merged reports contain only simulated quantities (ns, counts, bytes).
  Wall-clock readings, when wanted (perf harness), are measured inside
  the worker and reported per-cell, never accumulated across workers in
  arrival order.

``jobs <= 1`` runs inline in this process — same code path, no pool —
which is also what keeps the fleet usable under coverage and debuggers.

:class:`Campaign` owns that contract once; :data:`CAMPAIGNS` registers
the four matrices the CLI runs (bench / slo / serve / snapshot).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Sequence,
                    Tuple)

from ..aging import PROFILES
from ..core.filesystem import WineFS
from ..params import KIB, MIB
from .setup import SPECS_BY_NAME, aged_fs, fresh_fs

__all__ = ["run_fleet", "merge_numeric", "Campaign", "CAMPAIGNS",
           "bench_cell", "slo_cell", "serve_cell", "corpus_cell"]


def run_fleet(fn: Callable[[Any], Any], cells: Sequence[Any],
              jobs: int = 1) -> List[Any]:
    """``[fn(c) for c in cells]``, fanned over *jobs* worker processes.

    Results are returned in input order regardless of completion order.
    *fn* and every cell must be picklable (module-level function, plain
    data) when ``jobs > 1``.
    """
    cells = list(cells)
    if jobs <= 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        return list(pool.map(fn, cells))


def merge_numeric(results: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum numeric fields across result dicts, in iteration order.

    The caller passes results in cell-key order (what :func:`run_fleet`
    returns), so float accumulation order — and therefore the merged
    values — never depend on scheduling.  Non-numeric fields keep the
    first value seen and must agree across results.
    """
    merged: Dict[str, Any] = {}
    for result in results:
        for key, value in result.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                merged.setdefault(key, value)
            elif key in merged:
                merged[key] += value
            else:
                merged[key] = value
    return merged


#: axes whose values name something; checked before any worker starts
_AXIS_DOMAINS = {"fs": SPECS_BY_NAME, "profile": PROFILES}


@dataclass(frozen=True)
class Campaign:
    """One matrix of independent cells and the report merged from it.

    *axes* name the cell key, in sort order; *defaults* are the
    parameters every cell shares, written here and nowhere else (the CLI
    reads its flag defaults off this dict).  *cell* runs one cell in a
    worker (picklable module-level function, plain data in and out);
    *report* runs in the parent over ``(cells, results)`` in cell order,
    so whatever it merges or writes is byte-identical for any *jobs*.
    """

    schema: str
    axes: Tuple[str, ...]
    defaults: Mapping[str, Any]
    cell: Callable[[Dict[str, Any]], Any]
    report: Callable[..., Dict[str, Any]]

    def matrix(self, *axis_values: Iterable[Any],
               **params: Any) -> List[Dict[str, Any]]:
        """Cross product of the sorted axes — hence already in cell-key
        order — over ``defaults`` overridden by *params*."""
        unknown = sorted(set(params) - set(self.defaults))
        if unknown or len(axis_values) != len(self.axes):
            raise TypeError(f"matrix{self.axes} takes "
                            f"{sorted(self.defaults)}, not {unknown}")
        axes = [sorted(values) for values in axis_values]
        for axis, values in zip(self.axes, axes):
            for value in values:
                if value not in _AXIS_DOMAINS.get(axis, values):
                    raise ValueError(f"unknown {axis} {value!r}")
        return [{**dict(zip(self.axes, key)), **self.defaults, **params}
                for key in product(*axes)]

    def run(self, cells: Sequence[Dict[str, Any]], jobs: int = 1,
            **report_args: Any) -> Dict[str, Any]:
        """Run *cells*, merge in the parent; same bytes for any *jobs*."""
        results = run_fleet(self.cell, cells, jobs=jobs)
        return {"schema": self.schema,
                **self.report(cells, results, **report_args)}


# -- the `repro bench` matrix ------------------------------------------------

def bench_cell(cell: Dict[str, Any]) -> Dict[str, Any]:
    """Run one benchmark cell on its own simulated machine.

    Top-level so a process pool can pickle it.  Everything reported is
    simulated (deterministic for the cell key); no wall clock.
    """
    from ..workloads.microbench import mmap_rw_benchmark

    build = aged_fs if cell.get("aged") else fresh_fs
    fs, ctx = build(cell["fs"], size_gib=cell["size_gib"],
                    num_cpus=cell["num_cpus"])
    result = mmap_rw_benchmark(
        fs, ctx, file_size=cell["file_mib"] * MIB,
        io_size=cell["io_kib"] * KIB, total_bytes=cell["file_mib"] * MIB,
        pattern=cell["pattern"], seed=cell["seed"])
    return {
        "fs": cell["fs"],
        "pattern": cell["pattern"],
        "seed": cell["seed"],
        "aged": bool(cell.get("aged")),
        "bytes_moved": result.bytes_moved,
        "elapsed_ns": result.elapsed_ns,
        "throughput_mb_s": result.throughput_mb_s,
        "page_faults_4k": result.page_faults_4k,
        "page_faults_2m": result.page_faults_2m,
        "tlb_misses": result.tlb_misses,
        "fault_ns": result.fault_ns,
    }


def _bench_report(cells: Sequence[Dict[str, Any]],
                  results: List[Dict[str, Any]]) -> Dict[str, Any]:
    totals = merge_numeric(
        {"bytes_moved": r["bytes_moved"], "elapsed_ns": r["elapsed_ns"],
         "tlb_misses": r["tlb_misses"],
         "page_faults": r["page_faults_4k"] + r["page_faults_2m"]}
        for r in results)
    return {"cells": results, "totals": totals}


# -- the `repro slo` fault campaign ------------------------------------------

def _drive_op_mix(fs, ctx, rng, count: int, prefix: str) -> None:
    """A seeded VFS op mix (creates/reads/overwrites/renames/unlinks/
    dirs).  Every op goes through the instrumented entry points; surfaced
    errors are swallowed here — the telemetry wrappers already recorded
    them — so an injected fault never aborts the campaign."""
    from ..errors import FSError

    files: List[str] = []
    for i in range(count):
        roll = rng.randrange(100)
        try:
            if roll < 30 or not files:
                path = f"{prefix}/f{i}"
                f = fs.create(path, ctx)
                f.pwrite(0, b"w" * (512 + 512 * rng.randrange(8)), ctx)
                f.fsync(ctx)
                f.close()
                files.append(path)
            elif roll < 55:
                fs.read_file(files[rng.randrange(len(files))], ctx)
            elif roll < 70:
                f = fs.open(files[rng.randrange(len(files))], ctx)
                f.pwrite(0, b"u" * 1024, ctx)
                f.fsync(ctx)
                f.close()
            elif roll < 78:
                fs.readdir("/", ctx)
            elif roll < 86:
                old = files.pop(rng.randrange(len(files)))
                new = f"{prefix}/r{i}"
                fs.rename(old, new, ctx)
                files.append(new)
            elif roll < 94:
                fs.unlink(files.pop(rng.randrange(len(files))), ctx)
            else:
                path = f"{prefix}/d{i}"
                fs.mkdir(path, ctx)
                fs.readdir(path, ctx)
        except FSError:
            pass


def _drive_degraded_mix(fs, ctx, rng, count: int) -> None:
    """Post-remount op mix: reads/readdirs that keep working on a
    degraded mount, plus writes that surface EROFS there (and succeed on
    a healthy one)."""
    from ..errors import FSError

    readable = []
    try:
        for name in fs.readdir("/", ctx):
            path = "/" + name
            if not fs.getattr(path).is_dir:
                readable.append(path)
    except FSError:
        pass
    for i in range(count):
        roll = rng.randrange(100)
        try:
            if roll < 50 and readable:
                fs.read_file(readable[rng.randrange(len(readable))], ctx)
            elif roll < 75:
                fs.readdir("/", ctx)
            else:
                f = fs.write_file(f"/post{i}", b"p" * 512, ctx)
                f.close()
        except FSError:
            pass


def slo_cell(cell: Dict[str, Any]) -> Dict[str, Any]:
    """Run one fault-campaign cell; returns its telemetry as a dict.

    Three phases, all in simulated time on the cell's own machine:

    1. a seeded op mix under the runtime fault plan
       (:func:`repro.faults.campaign_plan`);
    2. a crash (no unmount) plus post-crash media damage
       (:func:`repro.faults.crash_plan` — a poisoned journal head), then
       a remount whose tolerant recovery degrades the mount to
       read-only, followed by a degraded-mode op mix.  File systems
       without WineFS's fault surface instead do a clean
       unmount/remount on the same instance;
    3. (degradable FSes only) a re-format that heals the mount — the
       recovery edge that turns the degraded interval into an MTTR
       sample — and a short post-repair mix.

    Everything is deterministic in the cell key, so the dict is too.
    """
    from ..faults import campaign_plan, crash_plan
    from ..obs import Telemetry
    from ..rng import make_rng

    name = cell["fs"]
    seed = cell["seed"]
    ops = cell["ops"]
    telemetry = Telemetry()
    fs, ctx = fresh_fs(name, size_gib=cell["size_gib"],
                       num_cpus=cell["num_cpus"])
    plan = campaign_plan(seed)
    degradable = isinstance(fs, WineFS)
    fs.attach_fault_plan(plan)
    fs.attach_telemetry(telemetry)
    # salt the workload stream apart from the plan's own RNG
    rng = make_rng(seed, salt=11)
    _drive_op_mix(fs, ctx, rng, ops, prefix="")
    if degradable:
        # crash: skip the clean unmount, scar the journal head, and
        # remount a fresh instance from the PM image alone
        damage = crash_plan(seed, fs.journal.journals[0].base)
        spec = SPECS_BY_NAME[name]
        fs2 = spec.build(fs.device, cell["num_cpus"])
        fs2.attach_fault_plan(damage)
        fs2.attach_telemetry(telemetry)
        fs2.mount(ctx)
        _drive_degraded_mix(fs2, ctx, rng, ops // 2)
        # repair: a fresh format heals the mount (closes the interval)
        fs2.mkfs(ctx)
        _drive_op_mix(fs2, ctx, rng, ops // 4, prefix="")
        telemetry.absorb_fault_plan(fs2.name, damage)
        fs = fs2
    else:
        fs.unmount(ctx)
        fs.mount(ctx)
        _drive_degraded_mix(fs, ctx, rng, ops // 2)
    telemetry.absorb_fault_plan(fs.name, plan)
    telemetry.finalize(ctx.clock.elapsed)
    return telemetry.as_dict()


def _slo_report(cells: Sequence[Dict[str, Any]],
                parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """SLOs and availability over the cells' telemetry, folded in cell
    order."""
    from ..obs import slo_report

    return {"cells": [{"fs": c["fs"], "seed": c["seed"]} for c in cells],
            **slo_report(parts)}


# -- the `repro serve` load campaign -----------------------------------------

def serve_cell(cell: Dict[str, Any]) -> Dict[str, Any]:
    """Serve one seeded multi-tenant load against one FS backend.

    The cell stands up the full service stack on its own simulated
    machine — FS backend behind the multiplexer (admission control when
    ``queue_cap > 0``) — and replays the seeded stream through it.
    With ``faults`` set, :func:`repro.faults.serve_campaign_plan` runs
    against the backend mid-load; surfaced errors burn the ``service``
    SLO budget but never abort the load.  Returns the telemetry dict,
    the load report, and the multiplexer's admission metrics.
    """
    from ..faults import serve_campaign_plan
    from ..obs import Telemetry
    from ..serve import (FSObjStorage, LoadSpec, ObjStorageMultiplexer,
                         generate_stream, run_load)

    name = cell["fs"]
    seed = cell["seed"]
    build = aged_fs if cell.get("aged") else fresh_fs
    # track_data: served objects must round-trip their actual bytes
    fs, ctx = build(name, size_gib=cell["size_gib"],
                    num_cpus=cell["num_cpus"], track_data=True)
    telemetry = Telemetry()
    if cell.get("faults"):
        plan = serve_campaign_plan(seed)
        fs.attach_fault_plan(plan)
    else:
        plan = None
    backend = FSObjStorage(fs, ctx)
    mux = ObjStorageMultiplexer([backend],
                                queue_cap=cell.get("queue_cap", 0))
    mux.attach_telemetry(telemetry)
    stream = generate_stream(LoadSpec(seed=seed, tenants=cell["tenants"],
                                      ops=cell["ops"]))
    report = run_load(mux, stream, telemetry=telemetry)
    if plan is not None:
        telemetry.absorb_fault_plan(fs.name, plan)
    telemetry.absorb_counters(backend.index_counters())
    telemetry.finalize(ctx.clock.elapsed)
    return {
        "fs": name,
        "seed": seed,
        "load": report,
        "admission": mux.admission,
        "telemetry": telemetry.as_dict(),
    }


def _serve_report(cells: Sequence[Dict[str, Any]],
                  results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-cell load reports plus SLOs over the cells' telemetry, folded
    in cell order like :func:`_slo_report`."""
    from ..obs import slo_report

    totals = merge_numeric(
        {"requests": r["load"]["requests"], "rejected": r["load"]["rejected"],
         "bytes_put": r["load"]["bytes_put"],
         "bytes_got": r["load"]["bytes_got"]}
        for r in results)
    return {
        "cells": [{"fs": r["fs"], "seed": r["seed"], "load": r["load"],
                   "admission": r["admission"]} for r in results],
        "totals": totals,
        **slo_report(r["telemetry"] for r in results),
    }


# -- the `repro snapshot build` corpus ---------------------------------------

def corpus_cell(cell: Dict[str, Any]) -> Dict[str, Any]:
    """Age one grid cell and encode its image; the parent archives it.

    Workers do the expensive, independent part (aging + codec encode)
    and return raw payload bytes; all archive writes happen in the
    parent, in sorted cell order, so the resulting image files are
    byte-identical for any ``--jobs`` value.  Un-serializable graphs
    report a ``None`` payload (fail-closed, like ``store.save``).

    Inode generations are drawn from a process-wide counter, so the
    encoded bytes would otherwise depend on what this process built
    before the cell.  The counter is pinned to its initial value for
    the build and fast-forwarded afterwards: every payload comes out as
    if aged in a fresh process, which is what makes the archive's
    contents independent of worker scheduling.
    """
    from ..fs.common.inode import _GENERATION
    from ..snapshot import codec
    from .setup import aged_cache_key

    kwargs = dict(size_gib=cell["size_gib"], num_cpus=cell["num_cpus"],
                  utilization=cell["utilization"],
                  churn_multiple=cell["churn_multiple"],
                  profile=PROFILES[cell["profile"]], seed=cell["seed"],
                  track_data=cell["track_data"])
    key = aged_cache_key(cell["fs"], **kwargs)
    saved_gen = _GENERATION.next
    _GENERATION.next = 1
    try:
        fs, ctx = aged_fs(cell["fs"], snapshot=False, **kwargs)
        try:
            payload = codec.encode({"fs": fs, "ctx": ctx})
        except codec.SnapshotUnsupported:
            payload = None
    finally:
        _GENERATION.advance_past(saved_gen - 1)
    return {
        "fs": cell["fs"],
        "profile": cell["profile"],
        "utilization": cell["utilization"],
        "seed": cell["seed"],
        "key": key,
        "payload": payload,
        "meta": {"fs": cell["fs"], "size_gib": cell["size_gib"],
                 "num_cpus": cell["num_cpus"],
                 "utilization": cell["utilization"],
                 "churn_multiple": cell["churn_multiple"],
                 "profile": cell["profile"], "seed": cell["seed"],
                 "track_data": cell["track_data"]},
    }


def _corpus_report(cells: Sequence[Dict[str, Any]],
                   results: List[Dict[str, Any]], root: str
                   ) -> Dict[str, Any]:
    """Archive every aged image under *root*, one file per key.

    Deterministic by construction: workers only computed and the parent
    archives in cell order, so the image files are byte-identical for
    any *jobs* value.  The report carries per-cell outcomes plus the
    archive's image count and size.
    """
    from ..snapshot.store import Archive

    archive = Archive(root)
    metrics: Dict[str, int] = {}
    report_cells = []
    for result in results:
        payload = result.pop("payload")
        if payload is None:
            status = "unsupported"
        else:
            status = archive.put_payload(result["key"], payload,
                                         meta=result.pop("meta"))
            if status is None:
                status = "error"
            else:
                series = f'snapshot_archive_objects{{status="{status}"}}'
                metrics[series] = metrics.get(series, 0) + 1
                stored = len(payload) if status == "stored" else 0
                metrics["snapshot_archive_bytes"] = \
                    metrics.get("snapshot_archive_bytes", 0) + stored
        report_cells.append({
            "fs": result["fs"], "profile": result["profile"],
            "utilization": result["utilization"], "seed": result["seed"],
            "key": result["key"], "status": status,
            "payload_bytes": len(payload) if payload is not None else 0,
        })
    return {
        "cells": report_cells,
        "archive": archive.stats(),
        "metrics": metrics,
    }


CAMPAIGNS: Dict[str, Campaign] = {
    "bench": Campaign(
        "repro.bench/1", ("fs", "pattern", "seed"),
        {"size_gib": 0.25, "num_cpus": 4, "file_mib": 16, "io_kib": 4,
         "aged": False},
        bench_cell, _bench_report),
    "slo": Campaign(
        "repro.slo-report/1", ("fs", "seed"),
        {"size_gib": 0.25, "num_cpus": 2, "ops": 160},
        slo_cell, _slo_report),
    "serve": Campaign(
        "repro.serve-report/1", ("fs", "seed"),
        {"size_gib": 0.0625, "num_cpus": 2, "ops": 300, "tenants": 4,
         "queue_cap": 0, "aged": False, "faults": False},
        serve_cell, _serve_report),
    "snapshot": Campaign(
        "repro.snapshot-corpus/1", ("fs", "profile", "utilization", "seed"),
        {"size_gib": 0.25, "num_cpus": 2, "churn_multiple": 1.0,
         "track_data": False},
        corpus_cell, _corpus_report),
}
