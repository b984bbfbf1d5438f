"""The ``repro.serve`` service layer: conformance, differential, faults.

Five suites, matching the layer's five claims:

* **Conformance** — :class:`ObjStorageConformance` is one behavioural
  mixin run against every backend the factory can build: the in-memory
  reference, all nine simulated file systems and the multiplexer.  A
  storage passes the suite or it is not an ObjStorage.
* **Differential** — a seeded sweep (100 seeds by default; override
  with ``REPRO_SERVE_SEEDS``) proving the multiplexer adds nothing: a
  multi-tenant stream routed through it leaves every backend
  byte-identical (simulated ns, object bytes, metrics) to replaying the
  same stream against direct backends, and admission-control rejections
  are deterministic and leave no backend trace.
* **Index vs scan** — ``FSObjStorage`` packs objects into mapped shard
  files and answers every verb from a DRAM index; a seeded sweep over
  all nine FS models proves every warm answer (ids, probes, bytes)
  equals a fresh storage's cold scan of the same shards after every
  request — clean, under the serve fault campaign, a killed rotation
  and an EROFS degrade, across ``mkfs`` and a crash-remount under a
  live storage, and on a restored image that already holds shards —
  and pins the commit protocol (a body without its commit word is
  invisible and overwritten; at every fence of a put, a delete or a
  background prepare a crash image recovers to whole, acknowledged
  objects), the successor prepared on the idle core (an early rotation
  waits to exactly the prepare's end; one CPU reproduces the clocks of
  the commit before successors existed; idle successors are given up
  before a put is refused), the space rule, and what a warm answer is
  charged.
* **Faults** — a seeded fault campaign against a served WineFS burns
  the service error budget and degrades the mount but never aborts the
  load; masked vs surfaced outcomes land in the ledger and the
  degraded interval yields an MTTR sample; its allocator blip meets, by
  seed, a first rotation (a refused put) or a background prepare (none).
* **Snapshots** — an aged backend restored from the snapshot cache
  serves byte-identical results to a freshly re-aged one, and a corrupt
  snapshot falls back to re-aging with a warning instead of failing
  silently.
"""

from __future__ import annotations

import json
import os
import random
import re
import struct
import zlib
from datetime import timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clock import make_context
from repro.errors import (BusyError, FSError, InvalidArgumentError,
                          MediaError, NoSpaceError, NotFoundError,
                          ReadOnlyError)
from repro.faults import (FaultPlan, FaultSpec, crash_plan,
                          serve_campaign_plan)
from repro.harness.setup import SPECS_BY_NAME, fresh_fs
from repro.obs import Telemetry, slo_report
from repro.obs.trace import Tracer
from repro.mmu.mmap_region import MappedRegion
from repro.params import HUGE_PAGE, KIB, MIB
from repro.pm.device import PMDevice
from repro.serve import (FSObjStorage, LoadSpec, MemoryObjStorage,
                         ObjStorage, ObjStorageMultiplexer, compute_obj_id,
                         dump_objects, generate_stream, get_objstorage,
                         run_load)
from repro.snapshot import Archive, store as snapshot_store

from tests.test_snapshot import (flip_middle_byte, rewrite, stored_record,
                                 with_version)

SERVE_SIZE = 64 * MIB
SERVE_CPUS = 2
FS_NAMES = sorted(SPECS_BY_NAME)

#: differential sweep width; the CI smoke job narrows it via env
DIFF_SEEDS = range(int(os.environ.get("REPRO_SERVE_SEEDS", "100")))
#: index-vs-walk sweep width per FS model: 20, or wider via the same env
INDEX_SEEDS = range(max(20, int(os.environ.get("REPRO_SERVE_SEEDS", "0"))))


def make_fs_storage(name: str, size: int = SERVE_SIZE,
                    num_cpus: int = SERVE_CPUS, trace=None) -> FSObjStorage:
    device = PMDevice(size)
    fs = SPECS_BY_NAME[name].build(device, num_cpus, track_data=True)
    ctx = make_context(num_cpus, trace=trace)
    fs.mkfs(ctx)
    return FSObjStorage(fs, ctx, label=name)


# -- conformance -------------------------------------------------------------

class ObjStorageConformance:
    """Behavioural contract every ObjStorage must satisfy.

    Subclasses provide :meth:`make_storage`; each test gets a fresh
    instance, so tests are order-independent."""

    def make_storage(self):
        raise NotImplementedError

    def test_put_returns_content_id(self):
        storage = self.make_storage()
        data = b"the content is the address"
        assert storage.put("t00", data) == compute_obj_id(data)

    def test_put_get_roundtrip(self):
        storage = self.make_storage()
        for data in (b"x", b"\x00\xffuneven\x01" * 300, b"a" * (8 * KIB)):
            oid = storage.put("t00", data)
            assert storage.get("t00", oid) == data

    def test_put_idempotent(self):
        storage = self.make_storage()
        data = b"put me twice"
        oid = storage.put("t00", data)
        assert storage.put("t00", data) == oid
        assert storage.list_objects("t00") == [oid]

    def test_put_with_matching_id(self):
        storage = self.make_storage()
        data = b"precomputed"
        oid = compute_obj_id(data)
        assert storage.put("t00", data, obj_id=oid) == oid

    def test_put_id_mismatch_rejected(self):
        storage = self.make_storage()
        with pytest.raises(InvalidArgumentError):
            storage.put("t00", b"honest bytes",
                        obj_id=compute_obj_id(b"other bytes"))

    def test_get_missing_raises(self):
        storage = self.make_storage()
        with pytest.raises(NotFoundError):
            storage.get("t00", compute_obj_id(b"never stored"))

    def test_exists(self):
        storage = self.make_storage()
        oid = storage.put("t00", b"here")
        assert storage.exists("t00", oid)
        assert not storage.exists("t00", compute_obj_id(b"not here"))

    def test_delete(self):
        storage = self.make_storage()
        oid = storage.put("t00", b"short-lived")
        storage.delete("t00", oid)
        assert not storage.exists("t00", oid)
        with pytest.raises(NotFoundError):
            storage.get("t00", oid)
        assert storage.list_objects("t00") == []

    def test_delete_missing_raises(self):
        storage = self.make_storage()
        with pytest.raises(NotFoundError):
            storage.delete("t00", compute_obj_id(b"never stored"))

    def test_list_empty_tenant(self):
        storage = self.make_storage()
        assert storage.list_objects("t99") == []

    def test_list_sorted_and_complete(self):
        storage = self.make_storage()
        ids = {storage.put("t00", bytes([i]) * (64 + i))
               for i in range(12)}
        assert storage.list_objects("t00") == sorted(ids)

    def test_tenant_namespaces_isolated(self):
        storage = self.make_storage()
        data = b"shared content, separate namespaces"
        oid_a = storage.put("alice", data)
        oid_b = storage.put("bob", data)
        assert oid_a == oid_b
        storage.delete("alice", oid_a)
        assert not storage.exists("alice", oid_a)
        assert storage.get("bob", oid_b) == data

    def test_invalid_names_rejected(self):
        storage = self.make_storage()
        oid = compute_obj_id(b"x")
        with pytest.raises(InvalidArgumentError):
            storage.put("bad/tenant", b"x")
        with pytest.raises(InvalidArgumentError):
            storage.get("t00", "not-a-hex-id")
        with pytest.raises(InvalidArgumentError):
            storage.exists("", oid)

    def test_sim_ns_advances(self):
        storage = self.make_storage()
        before = storage.sim_ns()
        oid = storage.put("t00", b"z" * (4 * KIB))
        after_put = storage.sim_ns()
        storage.get("t00", oid)
        after_get = storage.sim_ns()
        assert before <= after_put <= after_get
        assert after_get > before


class TestMemoryConformance(ObjStorageConformance):
    def make_storage(self):
        return MemoryObjStorage()


class TestFSBackendConformance(ObjStorageConformance):
    """The full contract against every evaluated file system."""

    @pytest.fixture(autouse=True, params=FS_NAMES)
    def _pick_fs(self, request):
        self.fs_name = request.param

    def make_storage(self):
        return make_fs_storage(self.fs_name)


class TestMultiplexerConformance(ObjStorageConformance):
    """The contract through a mixed two-backend multiplexer."""

    def make_storage(self):
        return ObjStorageMultiplexer(
            [make_fs_storage("WineFS"), MemoryObjStorage()])


# -- multiplexer routing and admission ---------------------------------------

class TestRouting:
    def test_route_is_content_hash(self):
        mux = ObjStorageMultiplexer([MemoryObjStorage(f"m{i}")
                                     for i in range(3)])
        for tenant in ("t00", "alice", "bob", "t42"):
            expected = zlib.crc32(tenant.encode("utf-8")) % 3
            assert mux.route(tenant) == expected

    def test_tenant_affinity(self):
        backends = [MemoryObjStorage(f"m{i}") for i in range(4)]
        mux = ObjStorageMultiplexer(backends)
        oid = mux.put("alice", b"routed")
        home = backends[mux.route("alice")]
        assert home.exists("alice", oid)
        for i, backend in enumerate(backends):
            if i != mux.route("alice"):
                assert not backend.exists("alice", oid)

    def test_requests_counted_per_backend(self):
        backends = [MemoryObjStorage(f"m{i}") for i in range(2)]
        mux = ObjStorageMultiplexer(backends)
        oid = mux.put("t00", b"counted")
        mux.get("t00", oid)
        series = mux.admission
        backend = backends[mux.route("t00")].name
        assert series[f'serve_requests_total{{backend="{backend}",'
                      f'op="put"}}'] == 1
        assert series[f'serve_requests_total{{backend="{backend}",'
                      f'op="get"}}'] == 1

    def test_empty_fleet_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ObjStorageMultiplexer([])

    def test_backpressure_rejects_with_eagain(self):
        mux = ObjStorageMultiplexer([MemoryObjStorage()], queue_cap=1)
        mux.advance(0.0)
        mux.put("t00", b"first fills the queue")
        with pytest.raises(BusyError):
            mux.put("t00", b"second finds it full")
        # once simulated time passes the completion, the queue drains
        mux.advance(mux.backends[0].sim_ns() + 1.0)
        oid = mux.put("t00", b"third gets through")
        mux.advance(mux.backends[0].sim_ns() + 1.0)
        assert mux.exists("t00", oid)
        assert mux.admission == {
            'serve_queue_depth{backend="memory"}': 1,
            'serve_requests_total{backend="memory",op="put"}': 2,
            'serve_rejected_total{backend="memory",op="put"}': 1,
            'serve_requests_total{backend="memory",op="exists"}': 1}


# -- the seeded differential sweep -------------------------------------------

def _diff_backends(seed: int):
    """Two FS models per seed, rotating through all nine."""
    a = FS_NAMES[seed % len(FS_NAMES)]
    b = FS_NAMES[(seed // len(FS_NAMES) + seed + 1) % len(FS_NAMES)]
    return a, b


def _apply_direct(storage, req) -> None:
    """Replay one request the way ``run_load`` dispatches it."""
    try:
        if req.op == "put":
            storage.put(req.tenant, req.data, obj_id=req.obj_id)
        elif req.op == "get":
            storage.get(req.tenant, req.obj_id)
        elif req.op == "exists":
            storage.exists(req.tenant, req.obj_id)
        elif req.op == "delete":
            storage.delete(req.tenant, req.obj_id)
        else:
            storage.list_objects(req.tenant)
    except FSError:
        pass


def _backend_state(backends, tenants):
    """(sim_ns, counts, objects) per backend: the event counters, the
    device's byte totals and the index counts.  Clocks and counts are
    captured *before* the dump — dumping reads, which charges time."""
    sims = [b.sim_ns() for b in backends]
    counts = [(b.ctx.counters.as_dict(), b.fs.device.bytes_read,
               b.fs.device.bytes_written, b.fs.device.materialized_bytes,
               b.index_counters()) for b in backends]
    dumps = [dump_objects(b, tenants) for b in backends]
    return sims, counts, dumps


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_multiplexer_matches_direct_backends(seed):
    """Routing adds nothing: multiplexed and direct runs are identical."""
    name_a, name_b = _diff_backends(seed)
    spec = LoadSpec(seed=seed, tenants=3, ops=40, max_size=64 * KIB)
    stream = generate_stream(spec)
    tenants = [f"t{i:02d}" for i in range(spec.tenants)]

    mux_backends = [make_fs_storage(name_a), make_fs_storage(name_b)]
    mux = ObjStorageMultiplexer(mux_backends)
    report = run_load(mux, stream)
    assert report["rejected"] == 0

    direct = [make_fs_storage(name_a), make_fs_storage(name_b)]
    router = ObjStorageMultiplexer(direct)  # route() only; no dispatch
    for req in stream:
        _apply_direct(direct[router.route(req.tenant)], req)

    assert _backend_state(mux_backends, tenants) \
        == _backend_state(direct, tenants)


def test_differential_covers_every_fs_model():
    """The rotating pairing reaches all nine models within the sweep."""
    covered = set()
    for seed in DIFF_SEEDS:
        covered.update(_diff_backends(seed))
    assert covered == set(FS_NAMES)


def test_rejection_ordering_deterministic():
    """Same seed, same saturated stream → the same rejections, twice;
    and admitted work alone reproduces the backend state exactly."""
    spec = LoadSpec(seed=5, tenants=3, ops=120,
                    mean_interarrival_ns=800.0, max_size=16 * KIB)
    stream = generate_stream(spec)
    tenants = [f"t{i:02d}" for i in range(spec.tenants)]

    def saturated_run():
        backends = [make_fs_storage("WineFS"), make_fs_storage("NOVA")]
        mux = ObjStorageMultiplexer(backends, queue_cap=2)
        report = run_load(mux, stream)
        return backends, mux, report

    backends_1, _mux_1, report_1 = saturated_run()
    backends_2, _mux_2, report_2 = saturated_run()
    # capture each state exactly once: dumping reads, which charges time
    state_1 = _backend_state(backends_1, tenants)
    state_2 = _backend_state(backends_2, tenants)
    assert report_1["rejected"] > 0
    assert report_1["rejections"] == report_2["rejections"]
    assert state_1 == state_2

    # rejected requests leave no trace: direct replay of only the
    # admitted requests reproduces the saturated run's backend state
    rejected = set(report_1["rejections"])
    direct = [make_fs_storage("WineFS"), make_fs_storage("NOVA")]
    router = ObjStorageMultiplexer(direct)
    for req in stream:
        if req.index not in rejected:
            _apply_direct(direct[router.route(req.tenant)], req)
    assert _backend_state(direct, tenants) == state_1


# -- load generation ----------------------------------------------------------

class TestLoadgen:
    def test_stream_is_deterministic(self):
        spec = LoadSpec(seed=9, tenants=4, ops=80)
        assert generate_stream(spec) == generate_stream(spec)
        assert generate_stream(spec) \
            != generate_stream(LoadSpec(seed=10, tenants=4, ops=80))

    def test_clean_run_surfaces_no_errors(self):
        spec = LoadSpec(seed=2, tenants=4, ops=200)
        report = run_load(MemoryObjStorage(), generate_stream(spec))
        assert report["errors"] == {}
        assert report["rejected"] == 0
        assert report["requests"] == 200

    def test_swh_size_distribution(self):
        from repro.rng import make_rng
        from repro.serve import object_size
        rng = make_rng(1, salt=99)
        sizes = [object_size(rng) for _ in range(4000)]
        under_4k = sum(s <= 4 * KIB for s in sizes) / len(sizes)
        under_16k = sum(s <= 16 * KIB for s in sizes) / len(sizes)
        # the SWH shape: ~50% under 4 KiB, ~75% under 16 KiB
        assert 0.45 < under_4k < 0.56
        assert 0.70 < under_16k < 0.81

    def test_arrivals_monotonic(self):
        stream = generate_stream(LoadSpec(seed=4, ops=60))
        arrivals = [req.arrival_ns for req in stream]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0


class _FailingStorage(ObjStorage):
    """Every verb raises the next ``FSError`` subclass in turn."""

    name = "failing"
    _ERRORS = (NotFoundError, ReadOnlyError, NoSpaceError, MediaError,
               BusyError, InvalidArgumentError)

    def __init__(self):
        self.calls = 0

    def _fail(self, *_args, **_kwargs):
        self.calls += 1
        raise self._ERRORS[(self.calls - 1) % len(self._ERRORS)]("injected")

    put = get = exists = delete = list_objects = _fail

    def sim_ns(self):
        return 0.0


def test_load_over_a_storage_that_only_fails_completes_and_counts():
    """Degraded, never down — where the property lives: ``run_load``
    turns every ``FSError`` (admission rejections included) into a
    counted error and keeps going."""
    storage = _FailingStorage()
    stream = generate_stream(LoadSpec(seed=9, tenants=2, ops=60))
    telemetry = Telemetry()
    report = run_load(storage, stream, telemetry=telemetry)
    assert storage.calls == report["requests"] == 60
    assert report["errors"] == {"EAGAIN": 10, "EINVAL": 10, "EIO": 10,
                                "ENOENT": 10, "ENOSPC": 10, "EROFS": 10}
    assert sum(report["errors"].values()) == 60
    assert report["rejections"] == [r.index for r in stream][4::6]
    assert report["bytes_put"] == report["bytes_got"] == 0
    assert sum(n for by in telemetry.surfaced["serve"].values()
               for n in by.values()) == 60


# -- factory ------------------------------------------------------------------

class TestFactory:
    def test_unknown_class_rejected(self):
        with pytest.raises(InvalidArgumentError):
            get_objstorage(cls="tape-robot")

    def test_unknown_fs_rejected(self):
        with pytest.raises(InvalidArgumentError):
            get_objstorage(cls="fs", fs="btrfs")

    def test_multiplexer_config_recurses(self):
        storage = get_objstorage(cls="multiplexer", backends=[
            {"cls": "memory", "label": "m0"},
            {"cls": "fs", "fs": "WineFS", "size_gib": 0.0625,
             "num_cpus": 2},
        ], queue_cap=3)
        assert isinstance(storage, ObjStorageMultiplexer)
        assert storage.queue_cap == 3
        oid = storage.put("t00", b"via config")
        assert storage.get("t00", oid) == b"via config"


# -- the id index against the shards it caches --------------------------------

def _scan_storage(live: FSObjStorage) -> FSObjStorage:
    """A cold storage over the same shards (own metric label, so its
    scans are not counted as the live storage's)."""
    return FSObjStorage(live.fs, live.ctx, label="scan")


def _assert_index_matches_scan(live, tenants, seen) -> None:
    """Every tenant the live storage holds an index for must answer
    exactly as a fresh storage's cold scan of the shards does: same ids,
    same probes, same bytes.  Cold tenants are left cold — warming them
    here would hide from the stream every verb that meets a cold tenant."""
    scan = _scan_storage(live)
    for tenant in tenants:
        if tenant not in live._tenants:
            continue
        truth = scan.list_objects(tenant)
        assert live.list_objects(tenant) == truth
        present = set(truth)
        for obj_id in seen[tenant]:
            assert live.exists(tenant, obj_id) == (obj_id in present)
        for obj_id in truth:
            data = live.get(tenant, obj_id)
            assert compute_obj_id(data) == obj_id
            assert scan.get(tenant, obj_id) == data


def _drive_checked(live, stream, tenants, seen, hooks=None) -> None:
    """Replay *stream*, comparing index and shards after every request;
    ``hooks[i]`` runs before request *i*."""
    for i, req in enumerate(stream):
        if hooks and i in hooks:
            hooks[i]()
        if req.obj_id:
            seen[req.tenant].add(req.obj_id)
        _apply_direct(live, req)
        _assert_index_matches_scan(live, tenants, seen)


def _assert_public_answers_match_scan(live, tenants, seen) -> None:
    """The closing check, through the public verbs only (this one warms
    every tenant): lists, probes and bytes all agree with a cold scan."""
    for tenant in tenants:
        truth = _scan_storage(live).list_objects(tenant)
        assert live.list_objects(tenant) == truth
        for obj_id in seen[tenant]:
            assert live.exists(tenant, obj_id) == (obj_id in truth)
    assert dump_objects(live, tenants) \
        == dump_objects(_scan_storage(live), tenants)


def _index_case(seed: int, ops: int = 40):
    spec = LoadSpec(seed=seed, tenants=3, ops=ops, max_size=16 * KIB)
    tenants = [f"t{i:02d}" for i in range(spec.tenants)]
    return generate_stream(spec), tenants, {t: set() for t in tenants}


def _index_series(storage: FSObjStorage):
    """``{(family, reason-or-event-or-None): value}`` of the index-health
    and shard-event series."""
    out = {}
    for name, series in storage.index_counters().items():
        for labels, n in series.items():
            found = re.search(r'(?:reason|event)="([^"]*)"', labels)
            out[name, found.group(1) if found else None] = n
    return out


@pytest.mark.parametrize("seed", INDEX_SEEDS)
@pytest.mark.parametrize("name", FS_NAMES)
def test_index_matches_walk(name, seed):
    live = make_fs_storage(name)
    stream, tenants, seen = _index_case(seed)
    _drive_checked(live, stream, tenants, seen)
    _assert_public_answers_match_scan(live, tenants, seen)
    # a clean stream scans each tenant once, on its first verb
    series = _index_series(live)
    assert series["serve_index_walks_total", None] == len(tenants)
    assert series["serve_index_hits_total", None] > 0
    assert not any(series["serve_index_invalidations_total", reason]
                   for reason in ("error", "epoch", "read_only"))
    assert series["serve_shard_events_total", "rotate"] == sum(
        len(state.shards) for state in live._tenants.values())


@pytest.mark.parametrize("seed", INDEX_SEEDS)
@pytest.mark.parametrize("name", FS_NAMES)
def test_index_matches_walk_under_faults(name, seed):
    """Killed puts (a rotation that dies on its ``fallocate``, the serve
    fault campaign) and an EROFS degrade two thirds in: whatever the
    failed verbs left in the shards, warm answers never disagree with
    them, and a degraded mount refuses every put and delete."""
    live = make_fs_storage(name)
    fs = live.fs
    plan = serve_campaign_plan(seed)
    fs.attach_fault_plan(plan)
    stream, tenants, seen = _index_case(seed, ops=60)

    def kill_next_fallocate():
        def dies(ino, offset, size, ctx):
            del fs.fallocate            # one shot: back to the class's
            raise NoSpaceError("injected: rotation dies on fallocate")
        fs.fallocate = dies

    _drive_checked(live, stream, tenants, seen, hooks={
        0: kill_next_fallocate,
        40: lambda: fs.remount_read_only("test degrade", live.ctx)})
    assert fs.read_only
    _assert_public_answers_match_scan(live, tenants, seen)
    series = _index_series(live)
    assert series["serve_index_invalidations_total", "read_only"] == 1
    assert series["serve_index_invalidations_total", "error"] >= 1
    objects = dump_objects(live, tenants)
    stored = live.ctx.counters.pm_bytes_written
    with pytest.raises(ReadOnlyError):
        live.put(tenants[0], b"refused on a degraded mount")
    for tenant in tenants:
        for obj_id in objects[tenant]:
            with pytest.raises(ReadOnlyError):
                live.delete(tenant, obj_id)
    assert live.ctx.counters.pm_bytes_written == stored
    assert dump_objects(live, tenants) == objects


def _crash_remount(live: FSObjStorage, name: str) -> None:
    """WineFS recovers from the PM image alone, so it remounts onto a
    brand-new FS object (no unmount: a crash).  The other models keep
    their namespace in the object, so they cycle unmount/mount on it."""
    if name.startswith("WineFS"):
        fs2 = SPECS_BY_NAME[name].build(live.fs.device, SERVE_CPUS,
                                        track_data=True)
        fs2.mount(live.ctx)
        live.fs = fs2
    else:
        live.fs.unmount(live.ctx)
        live.fs.mount(live.ctx)


@pytest.mark.parametrize("seed", INDEX_SEEDS)
@pytest.mark.parametrize("name", FS_NAMES)
def test_index_follows_namespace_replacement(name, seed):
    """``mkfs`` under a live storage empties the namespace (and hands
    the old shards' blocks, records and all, to the new ones); a
    crash-remount swaps the FS object (or its mount) out from under it.
    Neither may leave a stale id, handle or mapping behind."""
    live = make_fs_storage(name)
    stream, tenants, seen = _index_case(seed, ops=60)
    _drive_checked(live, stream, tenants, seen, hooks={
        20: lambda: live.fs.mkfs(live.ctx),
        40: lambda: _crash_remount(live, name)})
    _assert_public_answers_match_scan(live, tenants, seen)
    series = _index_series(live)
    assert series["serve_index_invalidations_total", "epoch"] == 2


@pytest.mark.parametrize("name", FS_NAMES)
def test_mkfs_under_live_storage_forgets_every_id(name):
    live = make_fs_storage(name)
    obj_id = live.put("t", b"gone after mkfs")
    other = live.put("t", b"never put again")
    assert live.list_objects("t") == sorted([obj_id, other])
    live.fs.mkfs(live.ctx)
    assert live.list_objects("t") == []
    assert not live.exists("t", obj_id)
    # the new shard lands on the old one's blocks: its log must end
    # after the one new record, not run on into the old records
    assert live.put("t", b"gone after mkfs") == obj_id
    assert live.get("t", obj_id) == b"gone after mkfs"
    assert _scan_storage(live).list_objects("t") == [obj_id]


@pytest.mark.parametrize("name", FS_NAMES)
def test_restored_image_with_srv_walks_once(name, tmp_path, monkeypatch):
    """A restored image that already holds shards is foreign state: the
    first verb on a tenant scans, and everything after is a hit."""
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    origin = make_fs_storage(name)
    stream, tenants, seen = _index_case(5)
    run_load(origin, stream)
    key = snapshot_store.cache_key({"test": "srv-image", "fs": name})
    assert snapshot_store.save(key, {"fs": origin.fs, "ctx": origin.ctx})
    root, status = snapshot_store.load_ex(key)
    assert status == "hit"

    restored = FSObjStorage(root["fs"], root["ctx"], label=name)
    counters = root["ctx"].counters
    syscalls = counters.syscalls
    expected = origin.list_objects("t00")
    assert expected and restored.exists("t00", expected[0])
    assert _index_series(restored)["serve_index_walks_total", None] == 1
    # readdir, then open + mmap per shard
    shards = len(restored._tenants["t00"].shards)
    assert counters.syscalls == syscalls + 1 + 2 * shards
    syscalls = counters.syscalls
    assert restored.list_objects("t00") == expected
    assert all(compute_obj_id(restored.get("t00", obj_id)) == obj_id
               for obj_id in expected)
    assert _index_series(restored)["serve_index_walks_total", None] == 1
    assert counters.syscalls == syscalls
    # and the restored shards keep serving: probes, puts, deletes
    _drive_checked(restored, generate_stream(
        LoadSpec(seed=6, tenants=3, ops=30, max_size=16 * KIB)),
        tenants, seen)
    _assert_public_answers_match_scan(restored, tenants, seen)


def test_warm_list_charge_is_pinned():
    """A warm list of N ids costs one DRAM load plus 64 B per id at DRAM
    streaming bandwidth, a warm probe one DRAM load — no syscall, no
    other charge; and once a shard is mapped a put, get or delete
    crosses into the kernel zero times."""
    live = make_fs_storage("WineFS")
    n = 37
    ids = [live.put("t", bytes([i]) * 100) for i in range(n)]
    machine = live.fs.machine
    before, syscalls = live.sim_ns(), live.ctx.counters.syscalls
    assert len(live.list_objects("t")) == n
    assert live.sim_ns() == before + (
        machine.dram_load_ns + n * 64 / machine.dram_read_bw * 1e9)
    before = live.sim_ns()
    assert live.exists("t", "0" * 64) is False
    assert live.sim_ns() == before + machine.dram_load_ns
    live.put("t", b"one more record")
    assert live.get("t", ids[3]) == bytes([3]) * 100
    live.delete("t", ids[4])
    assert live.ctx.counters.syscalls == syscalls


def test_fs_exists_swallows_fs_errors_only(monkeypatch):
    live = make_fs_storage("NOVA")

    def boom(path, ctx=None):
        raise RuntimeError("not an FSError")
    monkeypatch.setattr(live.fs, "getattr", boom)
    with pytest.raises(RuntimeError):
        live.fs.exists("/srv")


def _used(fs):
    stats = fs.statfs()
    return stats.total_blocks - stats.free_blocks, stats.files


@pytest.mark.parametrize("name", FS_NAMES)
def test_delete_leaves_nothing_behind(name):
    """The reclamation rule, from the outside: 200 objects put and
    deleted return used blocks and the inode count to where an empty
    service stood, with its active shard and its prepared successor;
    with a random half deleted, space in use is at most twice the live
    bytes plus those two shards."""
    live = make_fs_storage(name)
    fs = live.fs
    block = fs.statfs().block_size
    live.delete("t", live.put("t", b"makes /srv/t and its first shard"))
    empty_blocks, empty_files = _used(fs)

    payloads = [b"%04d" % i * (8 * KIB) for i in range(200)]    # 32 KiB
    ids = [live.put("t", data) for data in payloads]
    assert len(live._tenants["t"].shards) > 2
    for obj_id in ids:
        live.delete("t", obj_id)
    blocks, files = _used(fs)
    assert files == empty_files
    assert blocks == empty_blocks
    assert sorted(fs.readdir("/srv/t", live.ctx)) \
        == [live._tenants["t"].shards[-1].path.rpartition("/")[2], "new"]
    assert _scan_storage(live).list_objects("t") == []

    ids = [live.put("t", data) for data in payloads]
    rng = random.Random(name)
    doomed = set(rng.sample(ids, len(ids) // 2))
    for obj_id in ids:
        if obj_id in doomed:
            live.delete("t", obj_id)
    live_bytes = sum(len(data) for data, obj_id in zip(payloads, ids)
                     if obj_id not in doomed)
    # the empty service held the active and the prepared shard
    in_shards = (_used(fs)[0] - empty_blocks) * block + 2 * HUGE_PAGE
    assert live_bytes < in_shards <= 2 * live_bytes + 2 * HUGE_PAGE
    assert _index_series(live)["serve_shard_events_total", "compact"] >= 1
    survivors = sorted(set(ids) - doomed)
    assert live.list_objects("t") == survivors
    assert dump_objects(_scan_storage(live), ["t"]) \
        == {"t": {obj_id: data for data, obj_id in zip(payloads, ids)
                  if obj_id not in doomed}}


def test_shard_emptied_while_active_goes_when_sealed():
    """Deletes never reclaim the active shard; the rotation that seals
    it applies the rule."""
    live = make_fs_storage("PMFS")
    ids = [live.put("t", bytes([i]) * (600 * KIB)) for i in range(3)]
    for obj_id in ids:
        live.delete("t", obj_id)
    assert sorted(live.fs.readdir("/srv/t", live.ctx)) \
        == ["00000000", "new"]
    last = live.put("t", b"\xff" * (600 * KIB))           # does not fit
    assert sorted(live.fs.readdir("/srv/t", live.ctx)) \
        == ["00000001", "new"]
    assert _scan_storage(live).list_objects("t") == [last]
    series = _index_series(live)
    assert series["serve_shard_events_total", "unlink"] == 1
    assert series["serve_shard_events_total", "compact"] == 0


def test_oversized_object_gets_its_own_rounded_shard():
    """A record the prepared 2 MiB successor cannot hold: the successor
    is given up, the 4 MiB shard is prepared by the rotation itself (a
    stall), and the idle core prepares the one ``new`` there is."""
    live = make_fs_storage("WineFS")
    small = live.put("t", b"in the first shard")
    assert live._tenants["t"].spare.size == HUGE_PAGE
    big = bytes(range(256)) * (9 * KIB)             # 2.25 MiB
    obj_id = live.put("t", big)
    shards = live._tenants["t"].shards
    assert [shard.size for shard in shards] == [HUGE_PAGE, 2 * HUGE_PAGE]
    assert live.get("t", obj_id) == big
    assert _scan_storage(live).get("t", obj_id) == big
    assert _scan_storage(live).list_objects("t") == sorted([small, obj_id])
    assert sorted(live.fs.readdir("/srv/t", live.ctx)) \
        == ["00000000", "00000001", "new"]
    assert live._tenants["t"].spare.size == HUGE_PAGE
    assert live.fs.getattr("/srv/t/new").blocks * 4 * KIB == HUGE_PAGE
    series = _index_series(live)
    assert series["serve_shard_events_total", "rotate"] == 2
    assert series["serve_shard_events_total", "stall"] == 2


def test_non_shard_names_are_ignored():
    live = make_fs_storage("ext4-DAX")
    obj_id = live.put("t", b"the only object")
    fs, ctx = live.fs, live.ctx
    fs.write_file("/srv/t/README", b"not a shard", ctx).close()
    fs.write_file("/srv/t/0000000x", b"nor this", ctx).close()
    fs.write_file("/srv/t/123", b"nor this", ctx).close()
    fs.mkdir("/srv/t/lost+found", ctx)
    scan = _scan_storage(live)
    assert scan.list_objects("t") == [obj_id]
    assert len(scan._tenants["t"].shards) == 1
    assert scan.put("t", b"a second object")
    assert sorted(fs.readdir("/srv/t", ctx)) == sorted(
        ["00000000", "0000000x", "123", "README", "lost+found", "new"])


def test_scan_restores_shards_in_name_order():
    """A cold scan lists the shards in name order, whatever order the
    directory hands them back in: the last shard is the one appends
    go to, so an order that follows a hash would append to a sealed
    shard under some ``PYTHONHASHSEED`` values and not others."""
    live = make_fs_storage("WineFS")
    _fill(live, "t", 16)
    scan = _scan_storage(live)
    scan.list_objects("t")
    names = [shard.path.rpartition("/")[2]
             for shard in scan._tenants["t"].shards]
    assert len(names) >= 8
    assert names == sorted(names)


@pytest.mark.parametrize("dies_in", ["fallocate", "fsync", "rename"])
def test_rotation_that_died_left_no_shard(dies_in):
    """A shard gets its name last, once its empty log is durable: a
    rotation that dies earlier leaves ``new``, which no scan reads and
    the next rotation replaces."""
    live = make_fs_storage("xfs-DAX")
    fs = live.fs

    def dies(*_args):
        delattr(fs, dies_in)                # one shot
        raise NoSpaceError(f"injected: the rotation's {dies_in} dies")
    setattr(fs, dies_in, dies)
    with pytest.raises(NoSpaceError):
        live.put("t", b"never stored")
    assert fs.readdir("/srv/t", live.ctx) == ["new"]
    assert live.list_objects("t") == []
    assert live._tenants["t"].shards == []
    obj_id = live.put("t", b"stored by the next rotation")
    assert sorted(fs.readdir("/srv/t", live.ctx)) == ["00000000", "new"]
    assert _scan_storage(live).list_objects("t") == [obj_id]


# -- the successor prepared on the idle core ----------------------------------

def _fill(live, tenant, count, size=900 * KIB, tag=0):
    """*count* distinct objects of *size* bytes: two fill a shard."""
    return [live.put(tenant, bytes([tag + i]) * size) for i in range(count)]


def test_rotation_that_outruns_the_prepare_waits_to_exactly_its_end():
    """Causality between the two cores goes through the lock manager:
    the prepare starts at the serving core's now, and a rotation that
    arrives before the idle core is done jumps to exactly that time —
    a ``lock.wait`` span, ``lock_wait_ns``, and a ``stall``."""
    live = make_fs_storage("NOVA", trace=Tracer())
    fs, ctx = live.fs, live.ctx
    live.put("t", b"\x00" * (900 * KIB))
    (begun,) = [span.start_ns for span in ctx.trace.spans()
                if span.name == "vfs.create" and span.cpu == 1]
    assert begun == ctx.now                  # right after the commit word
    live.put("t", b"\x01" * (900 * KIB))
    done = ctx.clock.now(1)
    arrives = ctx.now + fs.machine.dram_load_ns     # the warm probe
    assert arrives < done and ctx.counters.lock_wait_ns == 0
    ctx.trace.clear()
    live.put("t", b"\x02" * (900 * KIB))            # does not fit
    waits = [span for span in ctx.trace.spans() if span.name == "lock.wait"
             and span.attrs["lock"] == "serve-spare:t"]
    assert [(w.cpu, w.start_ns, w.end_ns) for w in waits] \
        == [(0, arrives, done)]
    assert ctx.counters.lock_wait_ns >= done - arrives
    (renamed,) = [span.start_ns for span in ctx.trace.spans()
                  if span.name == "vfs.rename"]
    assert renamed == done
    assert _index_series(live)["serve_shard_events_total", "stall"] == 2
    # a rotation that comes late enough waits for nothing
    ctx.clock.advance_to(0, ctx.clock.now(1))
    waited = ctx.counters.lock_wait_ns
    _fill(live, "t", 2, tag=3)
    assert ctx.counters.lock_wait_ns == waited
    series = _index_series(live)
    assert (series["serve_shard_events_total", "rotate"],
            series["serve_shard_events_total", "stall"]) == (3, 2)


#: clock and non-zero counters of :func:`_fixed_stream` on a one-CPU
#: backend, recorded from the commit before successors existed
_ONE_CPU_GOLDEN = {
    "WineFS": ([2943789.707937088], {
        "page_faults_2m": 10, "tlb_misses": 10, "tlb_hits": 68,
        "pm_bytes_read": 3686400, "pm_bytes_written": 17130264,
        "fault_ns": 26000.0, "copy_ns": 1341787.948567317,
        "journal_ns": 17398.81202110872, "syscalls": 55}),
    "ext4-DAX": ([3154229.849352326], {
        "page_faults_2m": 10, "tlb_misses": 10, "tlb_hits": 68,
        "pm_bytes_read": 3686400, "pm_bytes_written": 17102368,
        "fault_ns": 1528403.846153846, "copy_ns": 1341787.948567317,
        "journal_ns": 205095.13005183294, "syscalls": 55}),
    "NOVA": ([2939211.493076033], {
        "page_faults_2m": 10, "tlb_misses": 10, "tlb_hits": 68,
        "pm_bytes_read": 3686400, "pm_bytes_written": 17107488,
        "fault_ns": 26000.0, "copy_ns": 1341787.948567317,
        "journal_ns": 4766.797814002412, "syscalls": 55}),
}


def _fixed_stream(storage) -> None:
    """Two tenants, 600 KiB objects (three to a shard), three of every
    five deleted, then a record that needs a 4 MiB shard: nine
    rotations, four compactions, four unlinks."""
    rng = random.Random(18)
    ids = []
    for i in range(20):
        tenant = "t%d" % (i % 2)
        ids.append((tenant, storage.put(tenant, rng.randbytes(600 * KIB))))
        if i % 5 == 4:
            for tenant, obj_id in ids[i - 4:i - 1]:
                storage.delete(tenant, obj_id)
    storage.put("t0", rng.randbytes(2300 * KIB))
    for tenant, obj_id in ids[-2:]:
        assert compute_obj_id(storage.get(tenant, obj_id)) == obj_id


@pytest.mark.parametrize("name", sorted(_ONE_CPU_GOLDEN))
def test_one_cpu_backend_prepares_every_shard_as_before(name):
    """No idle core, no successor: the same code runs every prepare on
    the serving core, in the parent commit's order at its cost."""
    live = make_fs_storage(name, num_cpus=1)
    _fixed_stream(live)
    counters = live.ctx.counters.as_dict()
    assert (live.ctx.clock.snapshot(),
            {key: n for key, n in counters.items() if n}) \
        == _ONE_CPU_GOLDEN[name]
    series = _index_series(live)
    assert [series["serve_shard_events_total", event] for event in
            ("rotate", "compact", "unlink", "stall")] == [9, 4, 4, 9]
    assert all(state.spare is None for state in live._tenants.values())
    assert "new" not in live.fs.readdir("/srv/t0", live.ctx)
    # the same stream beside an idle core: same objects, and only the
    # two cold rotations and the oversized record prepare for themselves
    beside = make_fs_storage(name)
    _fixed_stream(beside)
    assert dump_objects(beside, ["t0", "t1"]) \
        == dump_objects(live, ["t0", "t1"])
    assert beside.sim_ns() < 0.75 * live.sim_ns()
    assert beside.ctx.clock.elapsed < 0.8 * live.ctx.clock.elapsed


@pytest.mark.parametrize("name", ["NOVA", "WineFS", "ext4-DAX"])
def test_first_touch_of_a_prepared_shard_is_a_tlb_miss_not_a_fault(name):
    """The page-table entry the idle core faulted in (zeroing included,
    on ext4-DAX) is handed over with the mapping; the serving core's
    TLB has never seen it."""
    live = make_fs_storage(name, trace=Tracer())
    ctx = live.ctx
    _fill(live, "t", 2)
    ctx.clock.advance_to(0, ctx.clock.now(1))       # the successor is ready
    ctx.trace.clear()
    faults, misses = ctx.counters.page_faults, ctx.counters.tlb_misses
    syscalls = ctx.counters.syscalls
    _fill(live, "t", 1, tag=2)                      # rotates onto it
    # the next successor's fault (and its first miss) are the idle core's
    assert [span.cpu for span in ctx.trace.spans()
            if span.name == "mmu.fault"] == [1]
    assert ctx.counters.page_faults == faults + 1
    assert ctx.counters.tlb_misses == misses + 2
    assert ctx.counters.page_faults_4k == 0
    # the serving core's whole rotation is one rename; the idle core's
    # prepare is create, fallocate, mmap, fsync
    assert [span.name for span in ctx.trace.spans()
            if span.name.startswith("vfs.") and span.cpu == 0] \
        == ["vfs.rename"]
    assert ctx.counters.syscalls == syscalls + 5
    assert _index_series(live)["serve_shard_events_total", "stall"] == 1


@pytest.mark.parametrize("name", FS_NAMES)
def test_idle_successors_are_given_up_before_a_put_is_refused(name):
    """Free space under one shard while three tenants hold idle
    successors: a fourth tenant's first put meets ENOSPC, the three
    ``new`` files are unmapped and unlinked, and the retry succeeds."""
    live = make_fs_storage(name)
    fs, ctx = live.fs, live.ctx
    ids = {tenant: live.put(tenant, tenant.encode() * 100)
           for tenant in ("a", "b", "c")}
    stats = fs.statfs()
    fs.create("/ballast", ctx).fallocate(
        0, stats.free_blocks * stats.block_size - MIB, ctx)
    fourth = live.put("d", b"a fourth tenant's first put")
    assert {tenant: sorted(fs.readdir(f"/srv/{tenant}", ctx))
            for tenant in "abcd"} == {
        "a": ["00000000"], "b": ["00000000"], "c": ["00000000"],
        "d": ["00000000", "new"]}
    assert [live._tenants[tenant].spare is None for tenant in "abcd"] \
        == [True, True, True, False]
    assert live.get("d", fourth) == b"a fourth tenant's first put"
    assert all(live.get(tenant, obj_id) == tenant.encode() * 100
               for tenant, obj_id in ids.items())
    assert _index_series(live)[
        "serve_index_invalidations_total", "error"] == 0
    # the same again costs the fourth tenant its successor; with nothing
    # left to give up, a shard more than the device holds is refused,
    # and that costs the tenant its warm state as before
    fs.create("/ballast2", ctx).fallocate(
        0, fs.statfs().free_blocks * stats.block_size - MIB, ctx)
    _fill(live, "a", 4)
    assert not any(state.spare for state in live._tenants.values())
    with pytest.raises(NoSpaceError):
        _fill(live, "a", 1, tag=4)
    assert "a" not in live._tenants
    assert live.get("a", ids["a"]) == b"a" * 100
    assert len(live.list_objects("a")) == 5


def test_background_prepare_killed_by_enospc_fails_no_verb():
    """An injected allocator ENOSPC under the idle core's prepare: no
    successor, no error, no invalidation; the next rotation prepares its
    own shard — and if the allocator still refuses, that put is the one
    answered ENOSPC, the tenant dropped, nothing acknowledged lost."""
    live = make_fs_storage("WineFS")
    # allocator call 0 is the first rotation's, call 1 the successor's
    plan = FaultPlan(1, [FaultSpec("enospc", at_op=1, count=1),
                         FaultSpec("enospc", at_op=4, count=2)])
    live.fs.attach_fault_plan(plan)
    ids = _fill(live, "t", 2)
    assert plan.count("enospc", "surfaced") == 1
    assert live._tenants["t"].spare is None
    ids += _fill(live, "t", 2, tag=2)               # call 2 (and 3, ahead)
    series = _index_series(live)
    assert (series["serve_shard_events_total", "rotate"],
            series["serve_shard_events_total", "stall"]) == (2, 2)
    assert series["serve_index_invalidations_total", "error"] == 0
    assert live._tenants["t"].spare is not None
    ids += _fill(live, "t", 2, tag=4)               # call 4 fails, ahead
    assert live._tenants["t"].spare is None
    assert live.list_objects("t") == sorted(ids)
    with pytest.raises(NoSpaceError):
        _fill(live, "t", 1, tag=6)                  # call 5 fails, here
    assert "t" not in live._tenants
    assert _index_series(live)[
        "serve_index_invalidations_total", "error"] == 1
    ids += _fill(live, "t", 1, tag=6)               # the blip is over
    for storage in (live, _scan_storage(live)):
        assert storage.list_objects("t") == sorted(ids)
    assert sorted(live.fs.readdir("/srv/t", live.ctx)) \
        == ["00000000", "00000001", "00000002", "00000003", "new"]


@pytest.mark.parametrize("name", FS_NAMES)
def test_zero_length_shard_name_is_skipped_and_replaced(name):
    """An eight-digit file with nothing in it cannot be mapped: a scan
    passes over it like any foreign name, and the rotation that reaches
    its number renames the new shard over it."""
    live = make_fs_storage(name)
    ids = _fill(live, "t", 2)
    live.fs.create("/srv/t/00000001", live.ctx).close()
    cold = _scan_storage(live)
    assert cold.list_objects("t") == sorted(ids)
    assert cold.get("t", ids[0]) == bytes([0]) * (900 * KIB)
    assert len(cold._tenants["t"].shards) == 1
    ids += _fill(cold, "t", 1, tag=2)               # rotates to number 1
    assert live.fs.getattr("/srv/t/00000001").size == HUGE_PAGE
    scan = _scan_storage(live)
    assert scan.list_objects("t") == sorted(ids)
    assert scan.get("t", ids[2]) == bytes([2]) * (900 * KIB)
    assert [shard.path[-8:] for shard in scan._tenants["t"].shards] \
        == ["00000000", "00000001"]
    # and a tenant that holds nothing else
    live.fs.mkdir("/srv/u", live.ctx)
    live.fs.create("/srv/u/00000007", live.ctx).close()
    assert live.list_objects("u") == []
    first = live.put("u", b"lands in shard 0")
    assert live.get("u", first) == b"lands in shard 0"
    assert sorted(live.fs.readdir("/srv/u", live.ctx)) \
        == ["00000000", "00000007", "new"]


# -- the commit protocol ------------------------------------------------------

def _torn_put(storage, monkeypatch, tenant, data) -> None:
    """A put of *data* that dies between its body and its commit word."""
    with monkeypatch.context() as patch:
        real_write = MappedRegion.write

        def dies_on_commit(self, offset, stored, ctx):
            if stored == (1).to_bytes(8, "little"):
                raise MediaError("injected: the commit word never lands")
            return real_write(self, offset, stored, ctx)
        patch.setattr(MappedRegion, "write", dies_on_commit)
        with pytest.raises(MediaError):
            storage.put(tenant, data)


def test_body_without_commit_word_is_invisible_and_overwritten(monkeypatch):
    """A put that dies between its body and its commit word leaves
    nothing a scan can see, and the next put reuses its space."""
    live = make_fs_storage("WineFS")
    kept = live.put("t", b"committed before the torn put")
    tail = live._tenants["t"].shards[-1].tail
    torn = b"torn: " + b"x" * 5000
    _torn_put(live, monkeypatch, "t", torn)
    # the body is on the media, the record is not in the log
    for storage in (live, _scan_storage(live)):
        assert storage.list_objects("t") == [kept]
        assert not storage.exists("t", compute_obj_id(torn))
        assert storage._tenants["t"].shards[-1].tail == tail
    shard = live._tenants["t"].shards[-1]
    assert torn in shard.region.read(tail, 8192, live.ctx)
    after = live.put("t", b"lands where the torn body was")
    assert live._tenants["t"].where[after][:2] == (shard, tail)
    assert _scan_storage(live).list_objects("t") == sorted([kept, after])
    assert live.get("t", after) == b"lands where the torn body was"


@pytest.mark.parametrize("name", FS_NAMES)
def test_first_record_torn_on_recycled_blocks_is_invisible(
        name, monkeypatch):
    """After ``mkfs`` a tenant's first shard lands on blocks that still
    hold the old shard's records; a put that rotates onto them and dies
    before its commit word must not bring the old first record back."""
    live = make_fs_storage(name)
    old = live.put("t", b"the old shard's first record")
    live.fs.mkfs(live.ctx)
    _torn_put(live, monkeypatch, "t", b"never committed")
    assert live.list_objects("t") == []
    assert not _scan_storage(live).exists("t", old)


def test_compaction_dying_before_its_unlink_resurrects_nothing():
    """Re-puts done, unlink not: the id is live in two shards.  A scan
    writes nothing; the newest record of an id decides, so the stale
    copy is dead weight, a later delete of the id survives every later
    scan, and the emptied shard goes at the tenant's next rotation."""
    live = make_fs_storage("NOVA")
    fs = live.fs
    big_a, big_b, keep, big_d = (bytes([i]) * (900 * KIB) for i in range(4))
    keep = keep[:100]
    ids = [live.put("t", data) for data in (big_a, big_b, keep, big_d)]
    assert len(live._tenants["t"].shards) == 2
    live.delete("t", ids[0])

    def dies(path, ctx):
        del fs.unlink
        raise MediaError("injected: the compaction's unlink dies")
    fs.unlink = dies
    with pytest.raises(MediaError):
        live.delete("t", ids[1])            # compacts `keep`, then dies
    assert "t" not in live._tenants

    written = live.ctx.counters.pm_bytes_written
    assert live.list_objects("t") == sorted(ids[2:])        # rescans
    assert live.ctx.counters.pm_bytes_written == written
    assert sorted(fs.readdir("/srv/t", live.ctx)) \
        == ["00000000", "00000001", "new"]
    stale, active = live._tenants["t"].shards
    assert (stale.live, live._tenants["t"].where[ids[2]][0]) == (0, active)
    live.delete("t", ids[2])
    assert live.list_objects("t") == [ids[3]]
    assert _scan_storage(live).list_objects("t") == [ids[3]]
    live.put("t", bytes([9]) * (1200 * KIB))                # rotates
    assert sorted(fs.readdir("/srv/t", live.ctx)) \
        == ["00000001", "00000002", "new"]
    assert _scan_storage(live).list_objects("t") == live.list_objects("t")


def test_get_returns_the_put_object_on_a_hugepage_mapped_shard():
    """A payload is held by reference: on a shard mapped with 2 MiB
    pages ``get`` hands back the very object ``put`` was given — after
    the put, after compaction moved it, and in a dump — while a copy the
    client mutates afterwards never reaches PM."""
    live = make_fs_storage("WineFS")
    keep = bytes(range(256)) * (2 * KIB)                      # 512 KiB
    source = bytearray(b"\x07" * (600 * KIB))
    doomed = [bytes([i]) * (600 * KIB) for i in range(2)]
    ids = [live.put("t", data) for data in (*doomed, keep, source)]
    source[:] = bytes(len(source))                 # the client reuses it
    assert live.get("t", ids[2]) is keep
    assert live.get("t", ids[3]) == b"\x07" * (600 * KIB)
    (sealed, active) = live._tenants["t"].shards
    assert active.region.page_table.mapped_pages_2m >= 1
    for obj_id in ids[:2]:
        live.delete("t", obj_id)                   # the second compacts
    assert _index_series(live)["serve_shard_events_total", "compact"] == 1
    assert live._tenants["t"].where[ids[2]][0] is active
    assert sealed not in live._tenants["t"].shards
    assert live.get("t", ids[2]) is keep
    assert dump_objects(live, ["t"])["t"][ids[2]] is keep
    assert _scan_storage(live).get("t", ids[2]) is keep


def test_get_returns_the_put_object_under_a_page():
    """Below 4 KiB too: a 100-byte payload on a shard mapped as one
    physical run is held by reference, and ``get`` returns the very
    object ``put`` was given, next to other records in the same page."""
    live = make_fs_storage("WineFS")
    small = bytes(range(100))
    before, obj_id, after = (live.put("t", small[:50]), live.put("t", small),
                             live.put("t", small[::-1]))
    (shard,) = live._tenants["t"].shards
    assert len(shard.region._segments(0, shard.size)) == 1
    assert live.get("t", obj_id) is small
    assert live.get("t", before) == small[:50]
    assert live.get("t", after) == small[::-1]


def _crash_points(device, verb):
    """Run *verb* under store capture; yield one crash image per fence
    it issued — taken the instant before the fence retired, once with
    none and once with all of that epoch's stores on the media — and
    one for whatever was never fenced."""
    device.start_capture()
    verb()
    for epoch, seqs in device.end_capture():
        for surviving in {(), tuple(seqs)}:
            yield device.capture_crash_image(epoch, surviving)
    device.drain()


def _recovered_objects(image, tenant):
    """What a cold scan serves from a crash image, SHA-256-checked, and
    whether the image holds a ``new`` — which the scan must not have
    opened: it pays one readdir, then open + mmap per numbered shard."""
    fs = SPECS_BY_NAME["WineFS"].build(image, SERVE_CPUS, track_data=True)
    ctx = make_context(SERVE_CPUS)
    fs.mount(ctx)
    storage = FSObjStorage(fs, ctx)
    syscalls = ctx.counters.syscalls
    ids = storage.list_objects(tenant)
    shards = storage._tenants[tenant].shards
    assert all(shard.path[-8:].isdigit() for shard in shards)
    assert ctx.counters.syscalls == syscalls + 1 + 2 * len(shards)
    for obj_id in ids:
        assert compute_obj_id(storage.get(tenant, obj_id)) == obj_id
    return ids, fs.exists(f"/srv/{tenant}/new")


def test_crash_at_every_fence_serves_whole_acknowledged_objects():
    """Durability at the service, on WineFS with every store tracked:
    crash before any fence of a put or delete (five rotations, two
    compactions and their unlinks, and every background prepare
    included) and a cold scan of the recovered image lists the
    acknowledged-live ids, with or without the verb in flight — never a
    record whose bytes do not hash to its id, never a deleted one back,
    never reading ``new`` — and, once the verb returned, exactly its
    outcome, a finished but unpublished successor beside the shards."""
    device = PMDevice(SERVE_SIZE, track_stores=True)
    fs = SPECS_BY_NAME["WineFS"].build(device, SERVE_CPUS, track_data=True)
    ctx = make_context(SERVE_CPUS)
    fs.mkfs(ctx)
    live = FSObjStorage(fs, ctx)
    device.drain()
    rng = random.Random(15)
    a, b, c, d, e, f, g, h = (rng.randbytes(size) for size in
                              (900 * KIB, 900 * KIB, 60, 1100 * KIB, 5000,
                               1200 * KIB, 900 * KIB, 1200 * KIB))
    # a, b, c fill shard 0; d rotates onto the first prepared successor;
    # a and b dying leave sealed shard 0 over half dead, so c is
    # compacted into shard 1 and shard 0 unlinked; f rotates; d dying
    # compacts e out of shard 1, whose blocks — e's stale live record
    # among them — the idle core recycles for the successor it prepares
    # when g rotates; e is deleted in its new home; h rotates onto them
    script = [("put", a), ("put", b), ("put", c), ("put", d),
              ("delete", a), ("delete", b), ("put", e), ("delete", c),
              ("put", f), ("delete", d), ("delete", e), ("put", g),
              ("put", h)]
    acknowledged = set()
    points = unpublished = 0
    homes = []
    for op, data in script:
        homes.append(live._tenants["t"].shards[-1].region._segments(0, 8)
                     if live._tenants else None)
        obj_id = compute_obj_id(data)
        if op == "put":
            verb, after = (lambda: live.put("t", data)), \
                acknowledged | {obj_id}
        else:
            verb, after = (lambda: live.delete("t", obj_id)), \
                acknowledged - {obj_id}
        for image in _crash_points(device, verb):
            points += 1
            ids, has_new = _recovered_objects(image, "t")
            unpublished += has_new
            assert set(ids) in (acknowledged, after), (op, obj_id)
        acknowledged = after
        # between a finished prepare and its publish
        assert _recovered_objects(device.crash_image(), "t") \
            == (sorted(acknowledged), True)
    series = _index_series(live)
    assert series["serve_shard_events_total", "rotate"] == 5
    assert series["serve_shard_events_total", "compact"] == 2
    assert series["serve_shard_events_total", "unlink"] == 2
    # the cold tenant's first rotation, and four that outran the idle
    # core (such a put is some 70 simulated us, a prepare over 150)
    assert series["serve_shard_events_total", "stall"] == 5
    # h's shard sits where shard 1 was, on e's stale record
    assert live._tenants["t"].shards[-1].region._segments(0, 8) == homes[4]
    assert points > 150 and points > unpublished > 100


def test_clean_load_reports_index_health(tmp_path):
    """The index and shard series ride the report's ``counters``: a
    clean 400-op load shows hits, no invalidation, at most one scan per
    tenant and at least one rotation per backend."""
    from repro.harness.fleet import CAMPAIGNS

    tenants = 4
    cells = CAMPAIGNS["serve"].matrix(["NOVA", "WineFS"], [1],
                                      size_gib=0.0625, num_cpus=2, ops=400,
                                      tenants=tenants)
    report = CAMPAIGNS["serve"].run(cells)
    assert not report["cells"][0]["load"]["errors"]
    counters = report["counters"]
    assert set(counters) == {"serve_index_hits_total",
                             "serve_index_walks_total",
                             "serve_index_invalidations_total",
                             "serve_shard_events_total"}
    assert all(n == 0 for n in
               counters["serve_index_invalidations_total"].values())
    assert {labels.count("reason=") for labels in
            counters["serve_index_invalidations_total"]} == {1}
    for labels, scans in counters["serve_index_walks_total"].items():
        assert scans <= tenants, labels
    assert all(n > 0 for n in counters["serve_index_hits_total"].values())
    events = counters["serve_shard_events_total"]
    assert {labels.count("event=") for labels in events} == {1}
    assert all(n >= tenants for labels, n in events.items()
               if 'event="rotate"' in labels)
    # a cold tenant's first rotation finds no successor: the fallback
    # is counted, and never more often than there were rotations
    for backend in ("NOVA", "WineFS"):
        stalls = events[f'{{backend="{backend}",event="stall"}}']
        assert tenants <= stalls \
            <= events[f'{{backend="{backend}",event="rotate"}}']
    assert counters["serve_index_walks_total"]['{backend="WineFS"}'] \
        == tenants
    assert counters["serve_index_invalidations_total"][
        '{backend="NOVA",reason="read_only"}'] == 0
    assert events['{backend="NOVA",event="unlink"}'] == 0
    assert events['{backend="NOVA",event="stall"}'] == tenants


# -- fault campaign against a served file system ------------------------------

def test_serve_fault_campaign_degrades_but_never_crashes():
    """The served campaign end to end: a seeded fault plan mid-load
    burns the service error budget; a post-crash scar degrades the mount
    to read-only (puts raise EROFS, reads keep working); a heal
    closes the degraded interval into an MTTR sample."""
    def fresh():
        return fresh_fs("WineFS", size_gib=0.0625, num_cpus=SERVE_CPUS,
                        track_data=True)
    # The campaign as `serve_cell` runs it: attached to a fresh file
    # system, four tenants.  At seed 3 its allocator blip opens on the
    # first tenant's background prepare (no failed verb) and is still
    # open for the second tenant's first rotation, which has no idle
    # successor to give up: one ENOSPC response.  The masked damage is a
    # bad line under free space in the first shard — found on a twin,
    # since a fresh image places it deterministically — which the first
    # put's body covers and heals.
    twin = FSObjStorage(*fresh())
    twin.put("t00", b"maps the first shard")
    (free_addr, _run), = twin._tenants["t00"].shards[-1].region._segments(
        256, 64)
    fs, ctx = fresh()
    campaign = serve_campaign_plan(3)
    plan = FaultPlan(campaign.seed, [*campaign.specs, FaultSpec(
        "poison", addr=free_addr - free_addr % 64, length=64)])
    fs.attach_fault_plan(plan)
    backend = FSObjStorage(fs, ctx)
    telemetry = Telemetry()
    mux = ObjStorageMultiplexer([backend])
    mux.attach_telemetry(telemetry)
    stream = generate_stream(LoadSpec(seed=3, tenants=4, ops=150))
    report = run_load(mux, stream, telemetry=telemetry)

    # the campaign surfaced damage into the load, which kept going
    assert report["requests"] == 150
    # (the refused put, and later verbs on the id it never stored)
    assert report["errors"] == {"ENOSPC": 1, "ENOENT": 2}
    assert plan.count("enospc", "surfaced") == 2
    series = _index_series(backend)
    assert series["serve_index_invalidations_total", "error"] == 1
    assert series["serve_shard_events_total", "stall"] >= 5
    telemetry.absorb_fault_plan(fs.name, plan)
    outcomes = telemetry.faults["WineFS"].values()
    assert sum(by.get("surfaced", 0) for by in outcomes) >= 1
    assert sum(by.get("masked", 0) for by in outcomes) >= 1

    # crash without unmount, scar the journal head, remount degraded
    damage = crash_plan(3, fs.journal.journals[0].base)
    fs2 = SPECS_BY_NAME["WineFS"].build(fs.device, SERVE_CPUS,
                                        track_data=True)
    fs2.attach_fault_plan(damage)
    fs2.attach_telemetry(telemetry)
    fs2.mount(ctx)
    assert fs2.read_only

    # the degraded mount serves reads and refuses writes with EROFS
    degraded = FSObjStorage(fs2, ctx)
    with pytest.raises(ReadOnlyError):
        degraded.put("t00", b"rejected")
    survivor_ids = FSObjStorage(fs2, ctx).list_objects("t00")
    assert survivor_ids, "post-crash namespace should not be empty"
    assert degraded.get("t00", survivor_ids[0])

    # heal: a re-format closes the degraded interval into an MTTR sample
    fs2.mkfs(ctx)
    assert not fs2.read_only
    telemetry.absorb_fault_plan(fs2.name, damage)
    telemetry.finalize(ctx.clock.elapsed)
    report = slo_report([telemetry.as_dict()])
    avail = report["availability"]["WineFS"]
    assert avail["degradations"] == 1
    assert avail["degraded_ns"] > 0
    assert avail["mttr_ns"] > 0

    # the surfaced errors blew the service error budget — visibly
    service = [r for r in report["results"]
               if r["slo"] == "service" and r["fs"] == "serve"]
    assert len(service) == 1
    assert service[0]["budget_burn"] > 1.0
    assert not service[0]["ok"]


def test_serve_campaign_blip_lands_inside_the_warm_up():
    """The plan's allocator blip is two calls wide and starts within a
    four-tenant warm-up (calls 0-7: first rotation, then successor, per
    tenant), so across seeds it is met both ways.  Starting on a first
    rotation it outlasts the retry that gives up idle successors: an
    ENOSPC response (two when it starts on the very first, which the
    refused tenant's next put meets again).  Starting on a background
    prepare while someone holds a successor to give up: no failed verb.
    The ledger counts what the allocator raised, either way."""
    from repro.harness.fleet import serve_cell

    refused = {}
    for seed in range(12):
        specs = serve_campaign_plan(seed).specs
        assert [spec.kind for spec in specs] \
            == ["latency", "latency", "enospc"]
        assert specs[-1].at_op in range(8) and specs[-1].count == 2
        cell = serve_cell({"fs": "WineFS", "seed": seed, "size_gib": 0.0625,
                           "num_cpus": 2, "ops": 150, "tenants": 4,
                           "faults": True})
        assert cell["telemetry"]["faults"]["WineFS"]["enospc"] \
            == {"injected": 2, "surfaced": 2}
        refused.setdefault(specs[-1].at_op, set()).add(
            cell["load"]["errors"].get("ENOSPC", 0))
    assert refused == {0: {2}, 1: {1}, 2: {1}, 3: {0}, 4: {1}, 6: {1}}


def test_media_error_on_a_mapped_read_is_the_requests_error():
    """Mapped loads and stores meet the media directly: a poisoned line
    under one object's payload fails that object's gets with EIO — a
    typed error, on the live storage and on a cold scan alike, while every
    other verb keeps working — and a put whose body covers a poisoned
    free line heals it."""
    live = make_fs_storage("WineFS")
    ids = [live.put("t", bytes([i]) * 200) for i in range(3)]
    shard, offset, _length = live._tenants["t"].where[ids[1]]
    (payload_addr, _run), = shard.region._segments(offset + 48, 200)
    (free_addr, _run), = shard.region._segments(shard.tail + 256, 64)
    plan = FaultPlan(1, [
        FaultSpec("poison", addr=payload_addr + 64 - payload_addr % 64,
                  length=64),
        FaultSpec("poison", addr=free_addr - free_addr % 64, length=64)])
    live.fs.attach_fault_plan(plan)

    for storage in (live, _scan_storage(live)):
        with pytest.raises(MediaError):
            storage.get("t", ids[1])
        assert storage.list_objects("t") == sorted(ids)
        assert storage.get("t", ids[0]) == bytes([0]) * 200
        assert storage.get("t", ids[2]) == bytes([2]) * 200
    assert plan.count("poison", "surfaced") == 2
    healed = live.put("t", b"covers the poisoned free line " * 40)
    assert plan.count("poison", "masked") == 1
    assert live.get("t", healed) == b"covers the poisoned free line " * 40
    live.delete("t", ids[1])                    # the header is readable
    assert _scan_storage(live).list_objects("t") \
        == sorted([ids[0], ids[2], healed])


def test_poisoned_payload_in_a_compacting_shard_costs_one_object():
    """A bad line under a live payload in a sealed, over-half-dead shard:
    the delete that triggers the compaction succeeds, the unreadable
    record stays where it is (and keeps its shard), every other object
    and verb keeps working warm and cold, no scan writes, and deleting
    the damaged object lets the shard go."""
    live = make_fs_storage("WineFS")
    big_a, big_b, big_d = (bytes([i]) * (900 * KIB) for i in range(3))
    hurt, well = b"\xaa" * 300, b"\xbb" * 300
    ids = [live.put("t", data) for data in
           (big_a, big_b, hurt, well, big_d)]         # big_d rotates
    shard, offset, _length = live._tenants["t"].where[ids[2]]
    assert shard is live._tenants["t"].shards[0]
    (addr, _run), = shard.region._segments(offset + 48, 300)
    plan = FaultPlan(1, [FaultSpec("poison", addr=addr + 64 - addr % 64,
                                   length=64)])
    live.fs.attach_fault_plan(plan)
    live.delete("t", ids[0])
    live.delete("t", ids[1])                # over half dead: compacts
    series = _index_series(live)
    assert series["serve_shard_events_total", "compact"] == 1
    assert series["serve_shard_events_total", "unlink"] == 0
    assert series["serve_index_invalidations_total", "error"] == 0
    assert live._tenants["t"].where[ids[2]][0] is shard
    assert live._tenants["t"].where[ids[3]][0] is not shard

    written = live.ctx.counters.pm_bytes_written
    for storage in (live, _scan_storage(live)):
        assert storage.list_objects("t") == sorted(ids[2:])
        assert storage.get("t", ids[3]) == well
        assert storage.get("t", ids[4]) == big_d
        assert storage.exists("t", ids[2])
        with pytest.raises(MediaError):
            storage.get("t", ids[2])
    assert live.ctx.counters.pm_bytes_written == written
    cold = _scan_storage(live)
    assert cold.get("t", cold.put("t", b"a cold put still lands")) \
        == b"a cold put still lands"
    cold.delete("t", ids[2])                # the header is readable
    assert sorted(live.fs.readdir("/srv/t", live.ctx)) \
        == ["00000001", "new"]
    assert ids[2] not in _scan_storage(live).list_objects("t")


def test_poisoned_header_costs_what_follows_it_in_that_shard():
    """A scan cannot step over a header it cannot read: the records
    behind it in that shard are lost to a cold storage and the shard
    takes no more appends — but the tenant, its other shards and the
    records in front of the damage keep serving."""
    live = make_fs_storage("NOVA")
    # 48 B header + 464 B: every record starts on its own cacheline
    first, hurt, behind = (live.put("t", bytes([i]) * 464) for i in range(3))
    shard, offset, _length = live._tenants["t"].where[hurt]
    (addr, _run), = shard.region._segments(offset, 48)
    live.fs.device.set_fault_plan(FaultPlan(1, [
        FaultSpec("poison", addr=addr - addr % 64, length=64)]))
    assert live.get("t", behind) == bytes([2]) * 464    # warm: indexed
    cold = _scan_storage(live)
    assert cold.list_objects("t") == [first]
    assert cold.get("t", first) == bytes([0]) * 464
    after = cold.put("t", b"lands in a new shard")
    assert [s.path[-8:] for s in cold._tenants["t"].shards] \
        == ["00000000", "00000001"]
    assert _scan_storage(live).list_objects("t") == sorted([first, after])


_U64 = st.integers(0, 2 ** 64 - 1)


@settings(max_examples=120, deadline=timedelta(seconds=5))
@given(overwrites=st.lists(st.tuples(
    st.integers(0, 5),                                  # which record
    st.one_of(st.sampled_from([0, 1, 2]), _U64),        # its state word
    st.one_of(_U64, st.integers(0, 4096),               # its length: any,
              st.tuples(st.just("end"),                 # small, or within
                        st.integers(-64, 64)))),        # 64 B of shard end
    min_size=1, max_size=6))
@example(overwrites=[(5, 1, ("end", 0))])       # fills the shard: valid
@example(overwrites=[(5, 1, ("end", 1))])       # one byte over: ends the log
@example(overwrites=[(0, 2 ** 64 - 1, 2 ** 64 - 1)])
@example(overwrites=[(2, 1, 0), (4, 2, 8)])     # the walk lands mid-payload
def test_hostile_record_headers_end_the_log_and_harm_nothing_else(overwrites):
    """Shard record headers are the input a cold scan trusts: whatever
    state words and lengths (to 2^64-1, or straddling the shard end) sit
    in them, every verb answers — in bounded time, with a value or a
    typed ``FSError`` — exactly what a walk of the file's bytes up to the
    first invalid header holds, and the next put lands and survives."""
    live = make_fs_storage("WineFS")
    ids = [live.put("t", bytes([i]) * (200 + 40 * i)) for i in range(6)]
    (shard,) = live._tenants["t"].shards
    for record, word, length in overwrites:
        _shard, offset, _length = live._tenants["t"].where[ids[record]]
        if isinstance(length, tuple):
            length = shard.size - offset - 48 + length[1]
        shard.region.write(offset, struct.pack("<QQ", word, length),
                           live.ctx)

    # the reference: the file's bytes through the read path, walked here
    blob = live.fs.read_file(shard.path, live.ctx)
    expected, offset = {}, 0
    while offset + 48 <= len(blob):
        word, length, raw = struct.unpack_from("<QQ32s", blob, offset)
        end = offset + 48 + (length + 7 & ~7)
        if word not in (1, 2) or end > len(blob):
            break
        expected.pop(raw.hex(), None)
        if word == 1:
            expected[raw.hex()] = blob[offset + 48:offset + 48 + length]
        offset = end

    cold = _scan_storage(live)
    assert cold.list_objects("t") == sorted(expected)
    for obj_id, data in expected.items():
        assert cold.exists("t", obj_id)
        assert cold.get("t", obj_id) == data
    for obj_id in set(ids) - set(expected):     # behind the damage: gone
        assert not cold.exists("t", obj_id)
        with pytest.raises(NotFoundError):
            cold.get("t", obj_id)
        with pytest.raises(NotFoundError):
            cold.delete("t", obj_id)
    if expected:
        cold.delete("t", min(expected))
        assert cold.list_objects("t") == sorted(expected)[1:]
    fresh = b"lands after the damage " * 9
    fresh_id = cold.put("t", fresh)
    assert cold.get("t", fresh_id) == fresh
    again = _scan_storage(live)
    assert again.get("t", fresh_id) == fresh
    assert again.list_objects("t") == cold.list_objects("t")


def test_serve_campaign_cell_is_deterministic():
    from repro.harness.fleet import serve_cell

    cell = {"fs": "WineFS", "seed": 7, "size_gib": 0.0625,
            "num_cpus": 2, "ops": 80, "tenants": 3, "queue_cap": 2,
            "faults": True}
    assert serve_cell(dict(cell)) == serve_cell(dict(cell))


# -- snapshot-restored backends ----------------------------------------------

_AGED_KWARGS = dict(cls="fs", fs="WineFS", size_gib=0.0625, num_cpus=2,
                    aged=True, seed=11, utilization=0.4,
                    churn_multiple=0.5)


def _serve_on(storage):
    stream = generate_stream(LoadSpec(seed=21, tenants=2, ops=60,
                                      max_size=16 * KIB))
    run_load(storage, stream)
    sim = storage.sim_ns()
    return sim, dump_objects(storage, ["t00", "t01"])


def test_snapshot_restored_backend_serves_identical_bytes(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    aged = get_objstorage(**_AGED_KWARGS)            # ages, saves
    assert len(os.listdir(tmp_path / "images")) == 1
    re_aged = get_objstorage(**_AGED_KWARGS, snapshot=False)
    restored = get_objstorage(**_AGED_KWARGS)        # cache hit
    state = _serve_on(aged)
    assert _serve_on(re_aged) == state
    assert _serve_on(restored) == state


def test_corrupt_snapshot_falls_back_and_is_counted(tmp_path, monkeypatch,
                                                    restore_warnings):
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    baseline = _serve_on(get_objstorage(**_AGED_KWARGS))
    archive = Archive(str(tmp_path))
    (key,) = archive.keys()
    rewrite(archive.path(key), flip_middle_byte)     # break the CRC

    # falls back and re-ages, with one warning
    storage, warned = restore_warnings(get_objstorage, **_AGED_KWARGS)
    assert len(warned) == 1
    assert "WineFS" in warned[0] and "(corrupt)" in warned[0]
    assert _serve_on(storage) == baseline            # results unchanged
    _, warned = restore_warnings(get_objstorage, **_AGED_KWARGS)
    assert warned == []                              # the cache healed


def test_load_ex_classifies_every_failure(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    key, other = "c" * 64, "e" * 64
    assert snapshot_store.save(key, {"v": 1})
    value, status = snapshot_store.load_ex(key)
    assert (value, status) == ({"v": 1}, "hit")
    assert snapshot_store.load_ex("0" * 64) == (None, "miss")

    path = stored_record(key)
    good = open(path, "rb").read()
    rewrite(path, flip_middle_byte)                              # flipped
    assert snapshot_store.load_ex(key) == (None, "corrupt")
    rewrite(path, lambda blob: good[:len(good) // 2])            # truncated
    assert snapshot_store.load_ex(key) == (None, "corrupt")
    assert snapshot_store.save(other, {"v": 2})                  # another
    rewrite(path, lambda _blob: open(stored_record(other), "rb").read())
    assert snapshot_store.load_ex(key) == (None, "corrupt")      # key's image
    rewrite(path, lambda _blob: with_version(
        snapshot_store.FORMAT_VERSION + 1)(good))                # future version
    assert snapshot_store.load_ex(key) == (None, "stale")
    rewrite(path, lambda _blob: good)
    assert snapshot_store.load_ex(key)[1] == "hit"
    assert snapshot_store.load(key) == {"v": 1}
    # an image whose CRC holds around a payload the codec cannot read
    assert Archive(str(tmp_path)).put_payload("d" * 64, b"\xffnot a stream")
    assert snapshot_store.load_ex("d" * 64) == (None, "decode_error")


# -- the `repro serve` CLI ----------------------------------------------------

class TestServeCLI:
    def test_demo_mode(self, capsys):
        from repro.cli import main
        assert main(["serve", "--fs", "WineFS", "--size-gib",
                     "0.0625"]) == 0
        out = capsys.readouterr().out
        assert "served 50 requests" in out
        assert "errors none" in out

    def test_load_mode_byte_identical(self, tmp_path, monkeypatch):
        from repro.cli import main
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path / "cache"))

        def run(tag):
            out = tmp_path / f"report-{tag}.json"
            argv = ["serve", "--load", "--fs", "WineFS", "--seeds", "1",
                    "--ops", "60", "--queue-cap", "2", "--size-gib",
                    "0.0625", "--out", str(out)]
            assert main(argv) == 0
            return out.read_bytes()

        first = run("a")
        assert run("b") == first
        report = json.loads(first)
        assert report["schema"] == "repro.serve-report/1"
        assert report["totals"]["requests"] == 60
        assert any(r["slo"] == "service" for r in report["results"])
