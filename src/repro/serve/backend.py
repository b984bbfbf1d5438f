"""Concrete object-storage backends: simulated-FS-backed and in-memory.

:class:`FSObjStorage` lays objects out on any simulated file system as
``/srv/<tenant>/<id[:2]>/<id[2:34]>/<id[34:]>`` — SWH-style pathslicing.
The two-hex-character fan-out keeps top-level entry counts bounded under
the small-object workload (billions of mostly-tiny objects in the real
archive; the directory index here is the same structure the aging
profiles stress), and the remaining slices keep every path component
within the strictest on-PM name limit of the evaluated file systems
(WineFS packs names into its 128-byte inode slot, ``MAX_NAME = 36``).
The full object id is reconstructed from the slice components on list,
so nothing is lost to the split.

That limit gives every object its own ``<id[2:34]>`` directory, so
listing a tenant from the tree is ``1 + buckets + objects`` ``readdir``
syscalls — and on PM the kernel crossings, not the media, are the cost
(WineFS §2.1; SplitFS makes the same argument).  The backend therefore
keeps a per-tenant **id index** in DRAM and answers the metadata-only
work — ``list_objects``, ``exists`` and ``put``'s dedup probe — from it.
The index is a pure cache; the tree stays the source of truth:

* a tenant turns *warm* by the tree walk on its first ``list_objects``
  (restored, aged or foreign images), or for free when this storage
  itself creates the tenant directory (born empty);
* ``put``/``delete`` write through: the tree first, then the index;
* a tenant's index is dropped — the next list walks again — when any
  ``FSError`` escapes the FS calls of a mutating verb; every tenant's is
  dropped when the mount turns read-only or ``FileSystem.
  namespace_epoch`` moves (``mkfs``/``mount``) or ``fs`` is rebound;
* a warm answer costs no syscall; it is charged one DRAM load plus
  64 bytes per returned id at DRAM streaming bandwidth
  (``MachineParams.dram_load_ns`` / ``dram_read_bw``).

A cold tenant's probes and every data-moving verb map to plain VFS
calls on the wrapped file system, charged exactly as a local application
would be, and an attached SLO telemetry frame sees those VFS ops too.
The storage assumes it is the only writer under ``/srv`` within an epoch.

:class:`MemoryObjStorage` is the reference implementation: a dict with a
trivial deterministic cost model.  The conformance suite runs it first —
if a behavioural test fails on it, the test (not a backend) is wrong.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Set

from ..clock import SimContext
from ..errors import ExistsError, FSError, NotEmptyError, NotFoundError
from ..obs.metrics import Counter
from ..vfs.interface import FileSystem
from .interface import OBJ_ID_LEN, ObjStorage, check_obj_id, check_tenant

__all__ = ["FSObjStorage", "MemoryObjStorage", "SERVE_ROOT"]

#: object namespace root on every FS backend (own directory so serving
#: composes with aged images, whose churn files live elsewhere)
SERVE_ROOT = "/srv"

#: why warm indexes were dropped (``serve_index_invalidations_total``)
_INVALIDATION_REASONS = ("error", "epoch", "read_only")


def _find(ids: List[str], obj_id: str) -> int:
    """Position of *obj_id* in the sorted *ids*, or -1."""
    at = bisect_left(ids, obj_id)
    return at if at < len(ids) and ids[at] == obj_id else -1


class FSObjStorage(ObjStorage):
    """Objects stored as files on one simulated file system."""

    def __init__(self, fs: FileSystem, ctx: SimContext,
                 label: Optional[str] = None) -> None:
        self.fs = fs
        self.ctx = ctx
        self.name = label if label is not None else fs.name
        #: tenant -> sorted live ids; a tenant is present only while warm
        self._index: Dict[str, List[str]] = {}
        #: ``/srv``, ``/srv/<tenant>`` and ``/srv/<tenant>/<id[:2]>``
        #: directories known to exist — at most 1 + tenants * 257 paths,
        #: never one per object
        self._known_dirs: Set[str] = set()
        #: the mount the caches describe, and whether it had degraded
        self._mount = (fs, fs.namespace_epoch)
        self._read_only = fs.read_only
        registry = ctx.counters.registry
        self._hits = registry.counter("serve_index_hits_total",
                                      backend=self.name)
        self._walks = registry.counter("serve_index_walks_total",
                                       backend=self.name)
        self._invalidations = {
            reason: registry.counter("serve_index_invalidations_total",
                                     backend=self.name, reason=reason)
            for reason in _INVALIDATION_REASONS}

    # -- path layout --------------------------------------------------------

    #: pathslicing bounds: ``id[:2] / id[2:_MID] / id[_MID:]``; every
    #: component stays within WineFS's 36-byte inode-slot name limit
    _MID = 34

    @staticmethod
    def _tenant_dir(tenant: str) -> str:
        return f"{SERVE_ROOT}/{tenant}"

    @classmethod
    def _middle_dir(cls, tenant: str, obj_id: str) -> str:
        return (f"{cls._tenant_dir(tenant)}/{obj_id[:2]}"
                f"/{obj_id[2:cls._MID]}")

    @classmethod
    def _object_path(cls, tenant: str, obj_id: str) -> str:
        return f"{cls._middle_dir(tenant, obj_id)}/{obj_id[cls._MID:]}"

    def _ensure_dirs(self, tenant: str, obj_id: str) -> None:
        tenant_dir = self._tenant_dir(tenant)
        bucket_dir = f"{tenant_dir}/{obj_id[:2]}"
        known = self._known_dirs
        for path in (SERVE_ROOT, tenant_dir, bucket_dir):
            if path in known:
                continue
            try:
                self.fs.mkdir(path, self.ctx)
                if path == tenant_dir:
                    # born empty under our hands: warm for free
                    self._index[tenant] = []
            except ExistsError:
                pass
            known.add(path)
        try:
            self.fs.mkdir(self._middle_dir(tenant, obj_id), self.ctx)
        except ExistsError:
            pass          # left behind by a put that died after its mkdir

    # -- the id index -------------------------------------------------------

    def _warm_ids(self, tenant: str) -> Optional[List[str]]:
        """*tenant*'s index if it can be trusted, else ``None``.

        Every verb comes through here first, so this is also where a
        replaced namespace (``mkfs``/``mount``, or ``fs`` rebound to a
        remounted object) or a read-only remount empties the caches.
        """
        fs = self.fs
        if self._mount != (fs, fs.namespace_epoch):
            self._drop_all("epoch")
            self._mount = (fs, fs.namespace_epoch)
            self._read_only = fs.read_only
        elif fs.read_only and not self._read_only:
            self._drop_all("read_only")
            self._read_only = True
        return self._index.get(tenant)

    def _drop_all(self, reason: str) -> None:
        if self._index:
            self._invalidations[reason].value += 1
        self._index.clear()
        self._known_dirs.clear()

    def _drop(self, tenant: str) -> None:
        """An ``FSError`` escaped a mutating verb: whatever it left in
        the tree, the next list of *tenant* finds it by walking."""
        if self._index.pop(tenant, None) is not None:
            self._invalidations["error"].value += 1
        self._known_dirs.clear()

    def _charge_warm(self, returned_ids: int = 0) -> None:
        """One DRAM load, plus streaming the ids handed back."""
        machine = self.fs.machine
        self.ctx.charge(machine.dram_load_ns
                        + returned_ids * OBJ_ID_LEN / machine.dram_read_bw
                        * 1e9)
        self._hits.value += 1

    def _probe(self, tenant: str, obj_id: str) -> bool:
        """Is the object there?  From the index when warm, else one
        ``getattr`` on the tree."""
        ids = self._warm_ids(tenant)
        if ids is None:
            return self.fs.exists(self._object_path(tenant, obj_id),
                                  self.ctx)
        self._charge_warm()
        return _find(ids, obj_id) >= 0

    # -- verbs --------------------------------------------------------------

    def put(self, tenant: str, data: bytes,
            obj_id: Optional[str] = None) -> str:
        computed = self._resolve_put(tenant, data, obj_id)
        if self._probe(tenant, computed):
            return computed
        try:
            self._ensure_dirs(tenant, computed)
            f = self.fs.write_file(self._object_path(tenant, computed),
                                   bytes(data), self.ctx)
            f.close()
        except FSError:
            self._drop(tenant)
            raise
        ids = self._index.get(tenant)
        if ids is not None:
            insort(ids, computed)
        return computed

    def get(self, tenant: str, obj_id: str) -> bytes:
        check_tenant(tenant)
        check_obj_id(obj_id)
        return self.fs.read_file(self._object_path(tenant, obj_id),
                                 self.ctx)

    def exists(self, tenant: str, obj_id: str) -> bool:
        check_tenant(tenant)
        check_obj_id(obj_id)
        return self._probe(tenant, obj_id)

    def delete(self, tenant: str, obj_id: str) -> None:
        check_tenant(tenant)
        check_obj_id(obj_id)
        ids = self._warm_ids(tenant)
        try:
            self.fs.unlink(self._object_path(tenant, obj_id), self.ctx)
            try:
                # the object's own directory goes with it
                self.fs.rmdir(self._middle_dir(tenant, obj_id), self.ctx)
            except (NotEmptyError, NotFoundError):
                pass
        except FSError:
            self._drop(tenant)
            raise
        if ids is not None:
            at = _find(ids, obj_id)
            if at >= 0:
                del ids[at]

    def list_objects(self, tenant: str) -> List[str]:
        check_tenant(tenant)
        ids = self._warm_ids(tenant)
        if ids is not None:
            self._charge_warm(len(ids))
            return list(ids)
        # cold: walk the tree, and keep what it says
        self._walks.value += 1
        tenant_dir = self._tenant_dir(tenant)
        try:
            buckets = self.fs.readdir(tenant_dir, self.ctx)
        except NotFoundError:
            return []
        ids = []
        for bucket in sorted(buckets):
            bucket_dir = f"{tenant_dir}/{bucket}"
            try:
                middles = self.fs.readdir(bucket_dir, self.ctx)
            except NotFoundError:
                continue
            for middle in sorted(middles):
                try:
                    tails = self.fs.readdir(f"{bucket_dir}/{middle}",
                                            self.ctx)
                except NotFoundError:
                    continue
                ids.extend(f"{bucket}{middle}{tail}"
                           for tail in sorted(tails))
        ids.sort()      # a no-op unless foreign names broke the slicing
        self._index[tenant] = ids
        return list(ids)

    # -- accounting ---------------------------------------------------------

    def sim_ns(self) -> float:
        return self.ctx.now

    def index_counters(self) -> List[Counter]:
        """The index-health series, for a telemetry frame to absorb."""
        return [self._hits, self._walks, *self._invalidations.values()]

    def attach_telemetry(self, telemetry) -> None:
        self.fs.attach_telemetry(telemetry)


#: deterministic cost model for the in-memory reference (simulated ns):
#: a flat per-verb charge plus a per-byte term for data-moving verbs
_MEM_BASE_NS = {"put": 800.0, "get": 500.0, "exists": 300.0,
                "delete": 400.0, "list": 300.0}
_MEM_BYTE_NS = 0.25
_MEM_ENTRY_NS = 50.0


class MemoryObjStorage(ObjStorage):
    """Dict-backed reference storage with a synthetic clock."""

    def __init__(self, label: str = "memory") -> None:
        self.name = label
        self._tenants: Dict[str, Dict[str, bytes]] = {}
        self._ns = 0.0

    def put(self, tenant: str, data: bytes,
            obj_id: Optional[str] = None) -> str:
        computed = self._resolve_put(tenant, data, obj_id)
        self._ns += _MEM_BASE_NS["put"] + _MEM_BYTE_NS * len(data)
        store = self._tenants.setdefault(tenant, {})
        if computed not in store:
            store[computed] = bytes(data)
        return computed

    def get(self, tenant: str, obj_id: str) -> bytes:
        check_tenant(tenant)
        check_obj_id(obj_id)
        store = self._tenants.get(tenant, {})
        if obj_id not in store:
            self._ns += _MEM_BASE_NS["get"]
            raise NotFoundError(f"no object {obj_id[:16]}... for "
                                f"tenant {tenant}")
        data = store[obj_id]
        self._ns += _MEM_BASE_NS["get"] + _MEM_BYTE_NS * len(data)
        return data

    def exists(self, tenant: str, obj_id: str) -> bool:
        check_tenant(tenant)
        check_obj_id(obj_id)
        self._ns += _MEM_BASE_NS["exists"]
        return obj_id in self._tenants.get(tenant, {})

    def delete(self, tenant: str, obj_id: str) -> None:
        check_tenant(tenant)
        check_obj_id(obj_id)
        self._ns += _MEM_BASE_NS["delete"]
        store = self._tenants.get(tenant, {})
        if obj_id not in store:
            raise NotFoundError(f"no object {obj_id[:16]}... for "
                                f"tenant {tenant}")
        del store[obj_id]

    def list_objects(self, tenant: str) -> List[str]:
        check_tenant(tenant)
        ids = sorted(self._tenants.get(tenant, {}))
        self._ns += _MEM_BASE_NS["list"] + _MEM_ENTRY_NS * len(ids)
        return ids

    def sim_ns(self) -> float:
        return self._ns
