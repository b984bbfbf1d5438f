"""The four benchmark workloads.

Each workload is driven through the same four steps by ``run.py``:

* ``prepare(seed, scale)`` — once per run: generate inputs, age file
  systems cold and save their images (counted in ``setup_s``);
* ``build()`` — once per repetition: fresh state (mkfs or warm restore,
  populate; counted in ``setup_s``);
* ``run(state)`` — the timed region, and the only part that runs under
  the profiler; it returns raw observations and does no checking beyond
  what is needed to count a failed operation;
* ``finish(state, raw)`` — untimed: simulated metrics, output checks and
  the ``sim_digest``.

Nothing here reaches into ``repro`` internals except where a comment
says why; every input comes from the seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.aging import AGRAWAL, Geriatrix
from repro.clock import SimContext, make_context
from repro.errors import FSError
from repro.harness import aged_fs, make_fs
from repro.params import BASE_PAGE, GIB, HUGE_PAGE, KIB, MIB
from repro.rng import make_rng
from repro.serve import (LoadSpec, MemoryObjStorage, dump_objects,
                         generate_stream, get_objstorage, run_load)
from repro.vfs.interface import FileSystem
from repro.workloads.rocksdb import RocksDBModel
from repro.workloads.ycsb import YCSB_WORKLOADS, run_ycsb

from measure import (max_rate_meeting_slo, percentile, replay_queue,
                     sim_digest)

SIZE_GIB = 0.5
#: paper-shape checks let WineFS trail by this factor and call it a tie:
#: where a baseline still finds aligned extents both map hugepages, and
#: WineFS then pays its journal on top (EXPERIMENTS.md: "leads or ties")
TIE = 0.98
#: salts separating this benchmark's seeded streams from each other
_SALT_OFFSETS, _SALT_SAMPLE = 101, 103

Pair = Tuple[FileSystem, SimContext]


@dataclass
class RepResult:
    """What one repetition produced, apart from its host wall time."""

    ops: int
    failed: int
    #: simulated ns elapsed in the timed region, summed over file systems
    sim_ns: float
    user_bytes_written: int
    #: EventCounters deltas over the timed region, summed over file systems
    counters: Dict[str, float]
    #: simulated metrics, which must repeat exactly across repetitions
    sim: Dict[str, float]
    digest: str
    #: host-side extras of the repetition (serve request latencies)
    host: Dict[str, float] = field(default_factory=dict)
    #: ``paper.*`` ratios printed beside the EXPERIMENTS.md bands
    paper: Dict[str, float] = field(default_factory=dict)
    #: failed output checks; empty on a correct run
    problems: List[str] = field(default_factory=list)


def _fs_state(fs: FileSystem, ctx: SimContext) -> tuple:
    return (repr(ctx.clock.snapshot()), ctx.counters.as_dict(),
            repr(fs.statfs()))


def _add_counters(into: Dict[str, float], after: Dict[str, float],
                  before: Optional[Dict[str, float]] = None) -> None:
    """``into += after - before`` (fresh contexts start from zero)."""
    for key, value in after.items():
        into[key] = into.get(key, 0) + value \
            - (before[key] if before else 0)


def _winefs_sim(fs: FileSystem) -> Dict[str, float]:
    stats = fs.statfs()
    return {"aligned_free_frac": stats.free_space_aligned_fraction,
            "free_aligned_hugepages": stats.free_aligned_hugepages}


def _hugepage_mapped_frac(counters: Dict[str, float]) -> float:
    """Bytes mapped by 2 MiB pages / bytes mapped.  Every fault installs
    one page and mappings are dropped only at ``unmap``, so the fault
    counters equal the page tables summed at each unmap (``aged_mmap``
    checks that they do)."""
    huge = counters["page_faults_2m"] * HUGE_PAGE
    total = huge + counters["page_faults_4k"] * BASE_PAGE
    return huge / total if total else 0.0


class _AgedImages:
    """Aged file-system images: aged cold and saved once per run, then
    restored warm for every repetition through the snapshot store."""

    def __init__(self, names: Tuple[str, ...], seed: int,
                 scale: float) -> None:
        self.names = names
        self.params = dict(size_gib=SIZE_GIB, num_cpus=4, utilization=0.6,
                           churn_multiple=4.0 * scale, seed=seed)
        self.warm_s: List[float] = []
        self._cold_state: Dict[str, tuple] = {}
        t0 = time.perf_counter()
        for name in names:
            self._cold_state[name] = _fs_state(*aged_fs(name, **self.params))
        self.cold_s = time.perf_counter() - t0

    def restore(self, problems: List[str]) -> List[Pair]:
        t0 = time.perf_counter()
        pairs = [aged_fs(name, **self.params) for name in self.names]
        self.warm_s.append(time.perf_counter() - t0)
        for name, (fs, ctx) in zip(self.names, pairs):
            if _fs_state(fs, ctx) != self._cold_state[name]:
                problems.append(f"{name}: warm restore differs from the "
                                "cold-aged image")
        return pairs


class Workload:
    """Common shape; see the module docstring for the four steps."""

    name = ""
    #: ``paper.<key>`` -> the EXPERIMENTS.md band it is printed beside
    paper_bands: Dict[str, str] = {}
    images: Optional[_AgedImages] = None

    def __init__(self) -> None:
        #: failed checks of prepare/build, reported with every repetition
        self.problems: List[str] = []


# -- serve_swh ---------------------------------------------------------------

class ServeSwh(Workload):
    """The SWH small-object stream through the multiplexer, open loop in
    simulated time: requests are issued one by one, each is timed on the
    host, and its simulated service time is replayed through a per-backend
    queue from its due arrival time."""

    name = "serve_swh"
    backends = ("WineFS", "ext4-DAX", "NOVA")
    mean_interarrival_ns = 50_000.0

    def __init__(self, wrap: Optional[Callable] = None) -> None:
        super().__init__()
        #: test hook: wraps the storage the requests are sent to
        self.wrap = wrap

    def prepare(self, seed: int, scale: float) -> None:
        spec = LoadSpec(seed=seed, tenants=8, ops=max(50, int(8000 * scale)),
                        mean_interarrival_ns=self.mean_interarrival_ns)
        self.stream = generate_stream(spec)
        self.tenants = [f"t{i:02d}" for i in range(spec.tenants)]
        # the stream's own model of what must be live at the end ...
        self.model: Dict[str, Dict[str, bytes]] = {t: {} for t in self.tenants}
        for req in self.stream:
            if req.op == "put":
                self.model[req.tenant][req.obj_id] = req.data
            elif req.op == "delete":
                del self.model[req.tenant][req.obj_id]
        # ... and the reference backend's answer to the same stream
        memory = MemoryObjStorage()
        run_load(memory, self.stream)
        if dump_objects(memory, self.tenants) != self.model:
            self.problems.append(
                "MemoryObjStorage replay differs from the stream's model")

    def build(self):
        mux = get_objstorage("multiplexer", queue_cap=0, backends=[
            dict(cls="fs", fs=name, size_gib=SIZE_GIB, num_cpus=2)
            for name in self.backends])
        front = self.wrap(mux) if self.wrap is not None else mux
        route = {t: mux.route(t) for t in self.tenants}
        return mux, front, route

    def run(self, state):
        mux, front, route = state
        backends = mux.backends
        clock = time.perf_counter_ns
        sha256 = hashlib.sha256
        host_ns: List[int] = []
        service_ns: List[float] = []
        failed = 0
        bytes_put = bytes_got = 0
        for req in self.stream:
            op = req.op
            backend = backends[route[req.tenant]]
            front.advance(req.arrival_ns)
            sim0 = backend.sim_ns()
            data = None
            t0 = clock()
            try:
                if op == "put":
                    front.put(req.tenant, req.data, obj_id=req.obj_id)
                elif op == "get":
                    data = front.get(req.tenant, req.obj_id)
                elif op == "exists":
                    front.exists(req.tenant, req.obj_id)
                elif op == "delete":
                    front.delete(req.tenant, req.obj_id)
                else:
                    front.list_objects(req.tenant)
            except FSError:
                failed += 1
            host_ns.append(clock() - t0)
            service_ns.append(backend.sim_ns() - sim0)
            if op == "put":
                bytes_put += len(req.data)
            elif data is not None:
                bytes_got += len(data)
                # the client's own check of a content-addressed read
                if sha256(data).hexdigest() != req.obj_id:
                    failed += 1
        return host_ns, service_ns, failed, bytes_put, bytes_got

    def finish(self, state, raw) -> RepResult:
        mux, front, route = state
        host_ns, service_ns, failed, bytes_put, bytes_got = raw
        problems = list(self.problems)
        arrivals = [req.arrival_ns for req in self.stream]
        backend_of = [route[req.tenant] for req in self.stream]
        sojourn, wait = replay_queue(arrivals, backend_of, service_ns)
        slo_rate = max_rate_meeting_slo(
            arrivals, backend_of, service_ns,
            base_rate=1e9 / self.mean_interarrival_ns)
        counters: Dict[str, float] = {}
        for backend in mux.backends:
            _add_counters(counters, backend.ctx.counters.as_dict())
        verbs: Dict[str, int] = {}
        for req in self.stream:
            verbs[req.op] = verbs.get(req.op, 0) + 1
        sim_ns = mux.sim_ns()
        report = {"ops": sorted(verbs.items()), "bytes_put": bytes_put,
                  "bytes_got": bytes_got, "sim_ns": sim_ns,
                  "service_ns": service_ns}
        digest = sim_digest(
            [_fs_state(b.fs, b.ctx) for b in mux.backends] + [report])
        sim = _winefs_sim(mux.backends[0].fs)
        sim.update(req_ns_p50=percentile(sojourn, 0.50),
                   req_ns_p99=percentile(sojourn, 0.99),
                   queue_wait_ns_p99=percentile(wait, 0.99),
                   max_req_per_s_slo=slo_rate)
        # output check last: the dump's own gets move the clocks
        if dump_objects(front, self.tenants) != self.model:
            problems.append("final dump_objects differs from the stream's "
                            "live-object model")
        return RepResult(
            ops=len(self.stream), failed=failed, sim_ns=sim_ns,
            user_bytes_written=bytes_put, counters=counters, sim=sim,
            digest=digest, problems=problems,
            host={"req_us_p50": percentile(host_ns, 0.50) / 1e3,
                  "req_us_p99": percentile(host_ns, 0.99) / 1e3})


# -- aging_churn -------------------------------------------------------------

class AgingChurn(Workload):
    """Geriatrix fill + churn, the loop ``aged_fs(..., snapshot=False)``
    runs; driven directly so the ``AgingResult`` (the op count) is kept."""

    name = "aging_churn"
    file_systems = ("WineFS", "ext4-DAX", "NOVA")
    utilization = 0.75
    #: the final drain deletes whole files and one file is up to 1/32 of
    #: the partition, so the end state can undershoot by that much
    utilization_slack = 0.04

    def prepare(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.write_volume = int(4.0 * scale * SIZE_GIB * GIB)

    def build(self):
        state = []
        for name in self.file_systems:
            fs, ctx = make_fs(name, size_gib=SIZE_GIB, num_cpus=4)
            ager = Geriatrix(fs, AGRAWAL, target_utilization=self.utilization,
                             seed=self.seed)
            state.append((fs, ctx, ager))
        return state

    def run(self, state):
        return [ager.age(ctx, write_volume=self.write_volume)
                for _fs, ctx, ager in state]

    def finish(self, state, raw) -> RepResult:
        problems = list(self.problems)
        counters: Dict[str, float] = {}
        sim_ns = 0.0
        for fs, ctx, _ager in state:
            _add_counters(counters, ctx.counters.as_dict())
            sim_ns += ctx.now
            stats = fs.statfs()
            if abs(stats.utilization - self.utilization) \
                    > self.utilization_slack:
                problems.append(f"{fs.name}: aged to {stats.utilization:.3f}"
                                f", not {self.utilization}")
            if not 0 <= stats.free_blocks <= stats.total_blocks:
                problems.append(f"{fs.name}: free_blocks out of range")
        return RepResult(
            ops=sum(r.files_created + r.files_deleted for r in raw),
            failed=sum(r.failed_allocations for r in raw),
            sim_ns=sim_ns,
            user_bytes_written=sum(r.bytes_written for r in raw),
            counters=counters, sim=_winefs_sim(state[0][0]),
            digest=sim_digest([_fs_state(fs, ctx) for fs, ctx, _ in state]
                              + [repr(r) for r in raw]),
            problems=problems)


# -- aged_mmap ---------------------------------------------------------------

class AgedMmap(Workload):
    """Fig 1 / 6a / Table 2: memcpy over mmap'd files on aged images."""

    name = "aged_mmap"
    file_systems = ("WineFS", "ext4-DAX", "NOVA")
    files = 3
    file_bytes = 32 * MIB
    seq_io = 2 * MIB
    rand_io = 4 * KIB
    paper_bands = {
        "mmap_bw_WineFS_over_NOVA": "Fig 6: 2.1-2.7x at 75% full, churn 6; "
                                    ">= 1 required here (60% full, churn 4)",
        "mmap_bw_WineFS_over_ext4-DAX": "Fig 1: aged ext4-DAX loses ~50% or "
                                        "more of its bandwidth by 60% full",
        "faults_NOVA_over_WineFS": "Table 2: WineFS takes the fewest faults",
        "faults_ext4-DAX_over_WineFS": "Table 2: up to 450-500x",
    }

    def prepare(self, seed: int, scale: float) -> None:
        self.images = _AgedImages(self.file_systems, seed, scale)
        volume = max(self.file_bytes, int(256 * MIB * scale))
        self.seq_ops = volume // self.seq_io
        self.rand_ops = volume // self.rand_io
        rng = make_rng(seed, salt=_SALT_OFFSETS)
        span = self.file_bytes - self.rand_io + 1
        # the same offsets on every file system, so they are compared on
        # equal terms; byte-granular as in mmap_rw_benchmark
        self.offsets = [([rng.randrange(span) for _ in range(self.rand_ops)],
                         [rng.randrange(span) for _ in range(self.rand_ops)])
                        for _ in range(self.files)]

    def build(self):
        state = []
        for fs, ctx in self.images.restore(self.problems):
            handles = []
            for k in range(self.files):
                f = fs.create(f"/e2e-mmap-{k}", ctx)
                for _ in range(self.file_bytes // (4 * MIB)):
                    f.append_zeros(4 * MIB, ctx)
                f.fsync(ctx)
                handles.append(f)
            state.append((fs, ctx, handles, ctx.counters.as_dict(), ctx.now))
        return state

    def run(self, state):
        per_fs = []
        seq_io, rand_io = self.seq_io, self.rand_io
        seq_span = self.file_bytes - seq_io + 1
        for _fs, ctx, handles, _counters0, _now0 in state:
            done = got = 0
            mapped_4k = mapped_2m = 0
            try:
                for f, (reads, writes) in zip(handles, self.offsets):
                    region = f.mmap(ctx, length=self.file_bytes)
                    for i in range(self.seq_ops):
                        region.write_zeros((i * seq_io) % seq_span, seq_io,
                                           ctx)
                    done += self.seq_ops
                    for offset in reads:
                        got += len(region.read(offset, rand_io, ctx))
                    done += self.rand_ops
                    for offset in writes:
                        region.write_zeros(offset, rand_io, ctx)
                    done += self.rand_ops
                    mapped_4k += region.page_table.mapped_pages_4k
                    mapped_2m += region.page_table.mapped_pages_2m
                    region.unmap()
            except FSError:
                pass               # a phase cut short counts as failed ops
            per_fs.append((done, got, mapped_4k, mapped_2m))
        return per_fs

    def finish(self, state, raw) -> RepResult:
        problems = list(self.problems)
        ops_per_fs = self.files * (self.seq_ops + 2 * self.rand_ops)
        read_bytes = self.files * self.rand_ops * self.rand_io
        write_bytes = self.files * (self.seq_ops * self.seq_io
                                    + self.rand_ops * self.rand_io)
        counters: Dict[str, float] = {}
        failed = 0
        sim_ns = 0.0
        bandwidth, faults, hugepage_frac = {}, {}, {}
        for (fs, ctx, _h, counters0, now0), (done, got, m4k, m2m) \
                in zip(state, raw):
            mine: Dict[str, float] = {}
            _add_counters(mine, ctx.counters.as_dict(), counters0)
            _add_counters(counters, mine)
            elapsed = ctx.now - now0
            sim_ns += elapsed
            # ops not done, and short reads, are failed ops
            failed += ops_per_fs - done
            failed += -(-(read_bytes - got) // self.rand_io)
            bandwidth[fs.name] = (read_bytes + write_bytes) / elapsed
            faults[fs.name] = mine["page_faults_4k"] + mine["page_faults_2m"]
            hugepage_frac[fs.name] = _hugepage_mapped_frac(mine)
            if (m4k, m2m) != (mine["page_faults_4k"],
                              mine["page_faults_2m"]):
                problems.append(f"{fs.name}: page tables at unmap differ "
                                "from the fault counters")
            if m4k * BASE_PAGE + m2m * HUGE_PAGE \
                    != self.files * self.file_bytes:
                problems.append(f"{fs.name}: mapped bytes != file bytes")
        paper = {}
        for other in self.file_systems[1:]:
            paper[f"mmap_bw_WineFS_over_{other}"] = \
                bandwidth["WineFS"] / bandwidth[other]
            paper[f"faults_{other}_over_WineFS"] = \
                faults[other] / faults["WineFS"]
            if bandwidth["WineFS"] < TIE * bandwidth[other]:
                problems.append(f"WineFS mmap bandwidth below {other}")
            if faults["WineFS"] > faults[other]:
                problems.append(f"WineFS takes more faults than {other}")
        sim = _winefs_sim(state[0][0])
        sim["hugepage_mapped_frac"] = hugepage_frac["WineFS"]
        return RepResult(
            ops=ops_per_fs * len(state), failed=failed, sim_ns=sim_ns,
            user_bytes_written=write_bytes * len(state), counters=counters,
            sim=sim, paper=paper, problems=problems,
            digest=sim_digest([_fs_state(fs, ctx)
                               for fs, ctx, *_ in state]))


# -- ycsb_rocksdb ------------------------------------------------------------

class _CountingDB:
    """Stands in for the store in a dry run of the YCSB driver, whose
    random choices do not depend on the store's answers; counts the
    writes a seed will issue."""

    name = "dry-run"

    def __init__(self) -> None:
        self.puts = 0
        self.fs = self

    def put(self, key, ctx) -> None:
        self.puts += 1

    update = put

    def get(self, key, ctx) -> bytes:
        return b""


class YcsbRocksdb(Workload):
    """YCSB Load, A, C, F on the RocksDB model over aged images: small
    mapped writes and 1 KiB probes, plus SST/WAL file churn."""

    name = "ycsb_rocksdb"
    file_systems = ("WineFS", "ext4-DAX")
    value_size = 1 * KIB
    letters = ("A", "C", "F")
    #: loaded keys read back before close; they count as ops
    probes = 64
    paper_bands = {
        "ycsb_kops_WineFS_over_ext4-DAX": "Fig 7: +24% on Load, +4-11% on "
                                          "A/F, C ties",
        "faults_ext4-DAX_over_WineFS": "Table 2: WineFS takes the fewest "
                                       "faults (ext4 12x on Load)",
    }

    def prepare(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.images = _AgedImages(self.file_systems, seed, scale)
        self.records = max(500, int(50_000 * scale))
        self.phases = [("Load", self.records)] + [
            (letter, max(500, int(200_000 * scale)))
            for letter in self.letters]
        dry = _CountingDB()
        self._drive(dry, make_context(1))
        self.user_bytes = dry.puts * self.value_size
        rng = make_rng(seed, salt=_SALT_SAMPLE)
        self.sample = [rng.randrange(self.records)
                       for _ in range(self.probes)]

    def _drive(self, db, ctx) -> list:
        return [run_ycsb(db, YCSB_WORKLOADS[phase], ctx,
                         record_count=self.records, op_count=count,
                         seed=self.seed + index)
                for index, (phase, count) in enumerate(self.phases)]

    def build(self):
        return self.images.restore(self.problems)

    def run(self, state):
        out = []
        for fs, ctx in state:
            results, whole = [], 0
            try:
                db = RocksDBModel(fs, ctx, value_size=self.value_size,
                                  memtable_bytes=4 * MIB, sst_bytes=16 * MIB)
                results = self._drive(db, ctx)
                for key in self.sample:
                    whole += len(db.get(key, ctx)) == self.value_size
                db.close(ctx)
            except FSError:
                pass               # ops not done are counted as failed
            out.append((results, whole))
        return out

    def finish(self, state, raw) -> RepResult:
        problems = list(self.problems)
        ops_per_fs = sum(count for _phase, count in self.phases) \
            + self.probes
        counters: Dict[str, float] = {}
        failed = 0
        sim_ns = 0.0
        kops, faults, hugepage_frac = {}, {}, {}
        parts: List[object] = []
        for (fs, ctx), (results, whole) in zip(state, raw):
            mine = ctx.counters.as_dict()     # aged images start from zero
            _add_counters(counters, mine)
            sim_ns += ctx.now
            failed += ops_per_fs - sum(r.ops for r in results) - whole
            kops[fs.name] = ops_per_fs / ctx.now
            faults[fs.name] = mine["page_faults_4k"] + mine["page_faults_2m"]
            hugepage_frac[fs.name] = _hugepage_mapped_frac(mine)
            parts.append(_fs_state(fs, ctx))
            parts.append([(r.workload, r.ops, r.elapsed_ns, r.page_faults)
                          for r in results])
        paper = {"ycsb_kops_WineFS_over_ext4-DAX":
                 kops["WineFS"] / kops["ext4-DAX"],
                 "faults_ext4-DAX_over_WineFS":
                 faults["ext4-DAX"] / faults["WineFS"]}
        if kops["WineFS"] < TIE * kops["ext4-DAX"]:
            problems.append("WineFS YCSB throughput below ext4-DAX")
        if faults["WineFS"] > faults["ext4-DAX"]:
            problems.append("WineFS takes more faults than ext4-DAX")
        sim = _winefs_sim(state[0][0])
        sim["hugepage_mapped_frac"] = hugepage_frac["WineFS"]
        return RepResult(
            ops=ops_per_fs * len(state), failed=failed, sim_ns=sim_ns,
            user_bytes_written=self.user_bytes * len(state),
            counters=counters, sim=sim, paper=paper, problems=problems,
            digest=sim_digest(parts))


WORKLOADS = {cls.name: cls
             for cls in (ServeSwh, AgingChurn, AgedMmap, YcsbRocksdb)}
