"""Concrete object-storage backends: simulated-FS-backed and in-memory.

:class:`FSObjStorage` packs each tenant's objects into **shards**: files
``/srv/<tenant>/<seq:08d>`` of one hugepage (``HUGE_PAGE``; an object
that does not fit gets a shard rounded up to the next multiple), each
created, fallocated, fsynced and memory-mapped once.  WineFS exists so
that an application can reach its data with loads and stores through
hugepage mappings instead of kernel crossings (paper §1-2; SplitFS and
the Winery shard format argue the same for small objects), so after a
shard is mapped a ``put``, ``get`` or ``delete`` costs no syscall and no
namespace operation.  This is per-tenant packing only: there is no
global ``signature2shard`` index and no cross-tenant dedup.

A shard is a log of records ``state u64 | length u64 | raw id 32 B |
payload``, padded to 8 bytes:

* ``put`` writes everything but the state word through the mapping
  (non-temporal stores + fence: durable when ``MappedRegion.write``
  returns), then **commits** with one aligned 8-byte store of
  ``state = live``.  State 0 ends a shard's log, so a body without its
  commit word is invisible and the next put overwrites it.  The FS
  models charge zero-on-allocate but recycle block contents, so state 0
  is stored, not assumed: the body write also clears the *next*
  record's state word, and a shard is created as ``new``, its word 0
  cleared, and only then renamed to its number — a crash in between
  leaves a name no scan reads and the next prepare replaces.
* Rotation: a warm tenant keeps one prepared successor — ``new``,
  created, fallocated, mapped, cleared and fsynced by the machine's last
  core, idle while one core serves, starting when the put that rotated
  has committed — so the put that fills a shard pays one rename.  The
  hand-over is a ``serve-spare:<tenant>`` lock: a rotation that arrives
  early waits.  Finding no successor ready (cold tenant, oversized
  record, failed or unfinished prepare, one-CPU machine) is a ``stall``:
  the rotation runs the same prepare itself, giving up the other
  tenants' idle successors first if the device is full.
* ``get`` is one mapped read at the indexed offset; ``delete`` is one
  8-byte store of ``state = dead``.
* Space: a sealed (non-active) shard with no live record is unmapped and
  unlinked; one whose dead bytes exceed half its size has its live
  records re-put into the active shard first.  The rule is applied to a
  sealed shard when a delete hits it and when a rotation seals it —
  never by a scan, so a verb that only reads never writes.  A crash
  between the re-puts and the unlink leaves ids live twice: the newest
  record of an id decides, the stale copies count as dead, and the
  emptied shard goes at the tenant's next rotation.  A record whose
  payload the media will not give back (``EIO``) is left where it is
  and keeps its shard; deleting it still works.  Behind a header the
  media will not give back a scan finds nothing more in that shard.

The per-tenant DRAM **index** maps id -> (shard, offset, length).  It is
a pure cache of the shards and has one cold path, the **scan** of a
tenant's record headers on its first verb of any kind (fresh, restored,
aged and foreign images alike; names that are not eight digits are
ignored).  A tenant's index, shard handles and mappings are forgotten —
the next verb scans again — when any ``FSError`` escapes a mutating
verb; every tenant's when the mount turns read-only or ``FileSystem.
namespace_epoch`` moves (``mkfs``/``mount``) or ``fs`` is rebound: they
point at dead inodes.  Mapped stores never reach the file system's own
write guard, so ``put``/``delete`` raise ``EROFS`` themselves on a
read-only mount, before any store.  Every warm answer is charged one
DRAM load, plus 64 bytes per returned id at DRAM streaming bandwidth
(``MachineParams.dram_load_ns`` / ``dram_read_bw``).  Verbs touch the
serving core's TLB (a successor arrives faulted in but not in it), so a
file system that hands out unaligned extents pays for its 4 KiB
mappings here exactly as in the mmap benchmarks.  The storage
assumes it is the only writer under ``/srv`` within an epoch.

:class:`MemoryObjStorage` is the reference implementation: a dict with a
trivial deterministic cost model.  The conformance suite runs it first —
if a behavioural test fails on it, the test (not a backend) is wrong.
"""

from __future__ import annotations

import re
from struct import Struct
from typing import Dict, List, Optional, Tuple

from ..clock import SimContext
from ..errors import (ExistsError, FSError, MediaError, NoSpaceError,
                      NotFoundError, ReadOnlyError)
from ..mmu.mmap_region import MappedRegion
from ..params import HUGE_PAGE
from ..vfs.interface import FileSystem
from .interface import OBJ_ID_LEN, ObjStorage, check_obj_id, check_tenant

__all__ = ["FSObjStorage", "MemoryObjStorage", "SERVE_ROOT"]

#: object namespace root on every FS backend (own directory so serving
#: composes with aged images, whose churn files live elsewhere)
SERVE_ROOT = "/srv"

#: why warm indexes were dropped (``serve_index_invalidations_total``)
_INVALIDATION_REASONS = ("error", "epoch", "read_only")
#: what happened to a shard (``serve_shard_events_total``); a ``stall`` is
#: a rotation that found no ready successor and waited or prepared its own
_SHARD_EVENTS = ("rotate", "compact", "unlink", "stall")

#: record header: state word, payload length, raw SHA-256
_HEADER = Struct("<QQ32s")
_FREE, _LIVE, _DEAD = range(3)
_WORD = [state.to_bytes(8, "little") for state in (_FREE, _LIVE, _DEAD)]
_SHARD_NAME = re.compile(r"[0-9]{8}$")


def _record_size(length: int) -> int:
    """Header plus payload, padded so every state word is 8-aligned."""
    return _HEADER.size + (length + 7 & ~7)


class _Shard:
    """One mapped shard file and its log accounting."""

    __slots__ = ("path", "region", "size", "tail", "live", "dead")

    def __init__(self, path: str, region: MappedRegion) -> None:
        self.path = path        # /srv/<tenant>/<seq:08d>; new until rotated in
        self.region = region
        self.size = region.length
        self.tail = 0           # where the next record goes
        self.live = 0           # live records
        self.dead = 0           # bytes of dead records


#: where a live object is: (shard, record offset, payload length)
_Location = Tuple[_Shard, int, int]


class _Tenant:
    """A warm tenant: its index, its shards (the active one last) and
    the prepared successor, still named ``new``, if there is one."""

    __slots__ = ("where", "shards", "spare")

    def __init__(self) -> None:
        self.where: Dict[str, _Location] = {}
        self.shards: List[_Shard] = []
        self.spare: Optional[_Shard] = None


class FSObjStorage(ObjStorage):
    """Objects packed into mapped shard files on one simulated FS."""

    def __init__(self, fs: FileSystem, ctx: SimContext,
                 label: Optional[str] = None) -> None:
        self.fs = fs
        self.ctx = ctx
        self.name = label if label is not None else fs.name
        #: a tenant is present only while warm
        self._tenants: Dict[str, _Tenant] = {}
        #: where successors are prepared: the machine's last core, idle
        #: while one core serves; None on a one-CPU machine
        idle = ctx.clock.num_cpus - 1
        self._idle = None if idle == ctx.cpu else ctx.on_cpu(idle)
        #: the mount the caches describe, and whether it had degraded
        self._mount = (fs, fs.namespace_epoch)
        self._read_only = fs.read_only
        #: index health and shard events; :meth:`index_counters`
        #: names them
        self._hits = 0
        self._walks = 0
        self._invalidations = dict.fromkeys(_INVALIDATION_REASONS, 0)
        self._events = dict.fromkeys(_SHARD_EVENTS, 0)

    # -- the index and its one cold path ------------------------------------

    def _tenant(self, tenant: str, mutating: bool = False) -> _Tenant:
        """*tenant*'s warm state, scanning its shards if it is cold.

        Every verb comes through here first, so this is also where a
        replaced namespace (``mkfs``/``mount``, or ``fs`` rebound to a
        remounted object) or a read-only remount empties the caches, and
        where a mutating verb fails closed on a read-only mount.
        """
        fs = self.fs
        if self._mount != (fs, fs.namespace_epoch):
            self._drop_all("epoch")
            self._mount = (fs, fs.namespace_epoch)
            self._read_only = fs.read_only
        elif fs.read_only and not self._read_only:
            self._drop_all("read_only")
            self._read_only = True
        if mutating and fs.read_only:
            raise ReadOnlyError(
                f"{fs.name} is read-only: {fs.degraded_reason}")
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = self._scan(tenant)
        return state

    def _scan(self, tenant: str) -> _Tenant:
        """Rebuild *tenant* from its shards' record headers.

        The newest record of an id decides: an older live copy is what a
        compaction that died before its unlink left behind.
        """
        self._walks += 1
        fs, ctx = self.fs, self.ctx
        state = _Tenant()
        tenant_dir = f"{SERVE_ROOT}/{tenant}"
        try:
            names = fs.readdir(tenant_dir, ctx)
        except NotFoundError:
            return state
        for name in sorted(filter(_SHARD_NAME.match, names)):
            path = f"{tenant_dir}/{name}"
            f = fs.open(path, ctx)
            if not fs.getattr_ino(f.ino).size:
                f.close()
                continue                    # nothing to map: a foreign name
            shard = _Shard(path, f.mmap(ctx))
            f.close()
            state.shards.append(shard)
            read, offset = shard.region.read, 0
            while offset + _HEADER.size <= shard.size:
                try:
                    word, length, raw = _HEADER.unpack(
                        read(offset, _HEADER.size, ctx))
                except MediaError:
                    offset = shard.size     # what follows is lost: no room
                    break
                end = offset + _record_size(length)
                if word not in (_LIVE, _DEAD) or end > shard.size:
                    break                   # state 0 ends the log
                self._retire(state, raw.hex())
                if word == _DEAD:
                    shard.dead += end - offset
                else:
                    state.where[raw.hex()] = (shard, offset, length)
                    shard.live += 1
                offset = end
            shard.tail = offset
        return state

    @staticmethod
    def _retire(state: _Tenant, obj_id: str) -> None:
        """Take *obj_id* out of the index: its record is dead weight."""
        location = state.where.pop(obj_id, None)
        if location is not None:
            shard, _offset, length = location
            shard.live -= 1
            shard.dead += _record_size(length)

    def _drop_all(self, reason: str) -> None:
        if self._tenants:
            self._invalidations[reason] += 1
        # the dropped mappings' TLB entries are never looked up again, so
        # LRU evicts them before any live one: no shootdown needed
        self._tenants.clear()

    def _drop(self, tenant: str) -> None:
        """An ``FSError`` escaped a mutating verb: whatever it left in
        the shards, the next verb on *tenant* finds it by scanning."""
        state = self._tenants.pop(tenant, None)
        if state is not None:
            self._invalidations["error"] += 1
            for shard in filter(None, (*state.shards, state.spare)):
                shard.region.unmap()

    def _charge_warm(self, returned_ids: int = 0) -> None:
        """One DRAM load, plus streaming the ids handed back."""
        machine = self.fs.machine
        self.ctx.charge(machine.dram_load_ns
                        + returned_ids * OBJ_ID_LEN / machine.dram_read_bw
                        * 1e9)
        self._hits += 1

    # -- the shard log ------------------------------------------------------

    def _prepare(self, tenant: str, size: int, ctx: SimContext) -> _Shard:
        """Create, size, map and sync — once — a shard of *size* bytes
        under the name ``new``, on *ctx*'s core: the idle one ahead of
        need, or the serving one inside a stalled rotation."""
        fs, unnamed = self.fs, f"{SERVE_ROOT}/{tenant}/new"
        try:
            f = fs.create(unnamed, ctx)
        except ExistsError:
            fs.unlink(unnamed, ctx)
            f = fs.create(unnamed, ctx)
        f.fallocate(0, size, ctx)
        shard = _Shard(unnamed, f.mmap(ctx))
        shard.region.write(0, _WORD[_FREE], ctx)
        f.fsync(ctx)
        f.close()
        return shard

    def _prepare_ahead(self, tenant: str, state: _Tenant) -> None:
        """Start *tenant*'s next successor on the idle core, no earlier
        than the serving core's now, under the lock a rotation takes."""
        idle = self._idle
        if idle is None:
            return
        idle.clock.advance_to(idle.cpu, self.ctx.now)
        idle.locks.acquire(f"serve-spare:{tenant}", idle.cpu)
        try:
            state.spare = self._prepare(tenant, HUGE_PAGE, idle)
        except FSError:
            pass        # no successor: the next rotation prepares its own
        finally:
            idle.locks.release(f"serve-spare:{tenant}", idle.cpu)

    def _take_spare(self, tenant: str, state: _Tenant) -> Optional[_Shard]:
        """*tenant*'s successor and its mapping, once the core preparing
        it is done: the serving core waits (``lock_wait_ns``)."""
        ctx = self.ctx
        ctx.locks.acquire(f"serve-spare:{tenant}", ctx.cpu)
        ctx.locks.release(f"serve-spare:{tenant}", ctx.cpu)
        spare, state.spare = state.spare, None
        return spare

    def _rotate(self, tenant: str, state: _Tenant, need: int) -> None:
        """Give the shard that becomes active, big enough for a record
        of *need* bytes, its number — last, when its empty log is
        durable.  See *Rotation* in the module docstring."""
        fs, ctx, shards = self.fs, self.ctx, state.shards
        tenant_dir = f"{SERVE_ROOT}/{tenant}"
        if shards:
            seq = int(shards[-1].path.rpartition("/")[2]) + 1
        else:
            seq = 0
            for path in (SERVE_ROOT, tenant_dir):
                try:
                    fs.mkdir(path, ctx)
                except ExistsError:
                    pass
        arrived = ctx.now
        shard = self._take_spare(tenant, state)
        if shard is not None and shard.size < need:
            shard.region.unmap()
            shard = None
        if shard is None or ctx.now > arrived:
            self._events["stall"] += 1
        if shard is None:
            size = -(-need // HUGE_PAGE) * HUGE_PAGE
            try:
                shard = self._prepare(tenant, size, ctx)
            except NoSpaceError:
                held = [(other, holder) for other, holder
                        in self._tenants.items() if holder.spare]
                if not held:
                    raise
                for other, holder in held:
                    self._take_spare(other, holder).region.unmap()
                    fs.unlink(f"{SERVE_ROOT}/{other}/new", ctx)
                shard = self._prepare(tenant, size, ctx)
        shard.path = f"{tenant_dir}/{seq:08d}"
        fs.rename(f"{tenant_dir}/new", shard.path, ctx)
        shards.append(shard)
        self._events["rotate"] += 1

    def _append(self, tenant: str, state: _Tenant, obj_id: str,
                data: bytes) -> None:
        """Write one record into the active shard and commit it."""
        ctx, shards = self.ctx, state.shards
        need = _record_size(len(data))
        rotated = not shards or shards[-1].tail + need > shards[-1].size
        if rotated:
            self._rotate(tenant, state, need)
        shard = shards[-1]
        offset = shard.tail
        # everything after the state word, then the word that ends the
        # log after this record (unless the record ends the shard), as
        # one gathered write: the payload reaches PM as the client's own
        # object, so the device can hold it by reference
        shard.region.write(offset + 8, (
            _HEADER.pack(_FREE, len(data), bytes.fromhex(obj_id))[8:],
            data, bytes(need - _HEADER.size - len(data))
            + (_WORD[_FREE] if offset + need < shard.size else b"")), ctx)
        shard.region.write(offset, _WORD[_LIVE], ctx)   # the commit
        shard.tail = offset + need
        shard.live += 1
        state.where[obj_id] = (shard, offset, len(data))
        if rotated:
            self._prepare_ahead(tenant, state)
            # the shard just sealed, and any a crash left empty
            for sealed in [s for s in shards[:-1]
                           if s is shards[-2] or not s.live]:
                self._reclaim(tenant, state, sealed)

    def _reclaim(self, tenant: str, state: _Tenant, shard: _Shard) -> None:
        """The one space rule, for a sealed shard: gone when nothing in
        it is live, compacted away when over half of it is dead.  A
        record whose payload cannot be read stays, and keeps the shard.
        """
        if shard.live and shard.dead * 2 <= shard.size:
            return
        if shard.live:
            self._events["compact"] += 1
            moving = sorted((offset, length, obj_id) for obj_id,
                            (home, offset, length) in state.where.items()
                            if home is shard)
            for offset, length, obj_id in moving:
                try:
                    data = shard.region.read(offset + _HEADER.size, length,
                                             self.ctx)
                except MediaError:
                    continue
                self._append(tenant, state, obj_id, data)
                shard.live -= 1
            if shard.live:
                return
        shard.region.unmap()
        state.shards.remove(shard)
        self.fs.unlink(shard.path, self.ctx)
        self._events["unlink"] += 1

    # -- verbs --------------------------------------------------------------

    def _locate(self, tenant: str, obj_id: str,
                mutating: bool = False) -> Tuple[_Tenant, _Location]:
        check_tenant(tenant)
        check_obj_id(obj_id)
        state = self._tenant(tenant, mutating)
        self._charge_warm()
        location = state.where.get(obj_id)
        if location is None:
            raise NotFoundError(f"no object {obj_id[:16]}... for "
                                f"tenant {tenant}")
        return state, location

    def put(self, tenant: str, data: bytes,
            obj_id: Optional[str] = None) -> str:
        computed = self._resolve_put(tenant, data, obj_id)
        state = self._tenant(tenant, mutating=True)
        self._charge_warm()
        if computed not in state.where:
            try:
                self._append(tenant, state, computed, bytes(data))
            except FSError:
                self._drop(tenant)
                raise
        return computed

    def get(self, tenant: str, obj_id: str) -> bytes:
        _state, (shard, offset, length) = self._locate(tenant, obj_id)
        return shard.region.read(offset + _HEADER.size, length, self.ctx)

    def exists(self, tenant: str, obj_id: str) -> bool:
        check_tenant(tenant)
        check_obj_id(obj_id)
        state = self._tenant(tenant)
        self._charge_warm()
        return obj_id in state.where

    def delete(self, tenant: str, obj_id: str) -> None:
        state, (shard, offset, _length) = self._locate(tenant, obj_id,
                                                       mutating=True)
        try:
            shard.region.write(offset, _WORD[_DEAD], self.ctx)
            self._retire(state, obj_id)
            if shard is not state.shards[-1]:
                self._reclaim(tenant, state, shard)
        except FSError:
            self._drop(tenant)
            raise

    def list_objects(self, tenant: str) -> List[str]:
        check_tenant(tenant)
        ids = sorted(self._tenant(tenant).where)
        self._charge_warm(len(ids))
        return ids

    # -- accounting ---------------------------------------------------------

    def sim_ns(self) -> float:
        return self.ctx.now

    def index_counters(self) -> Dict[str, Dict[str, int]]:
        """The index-health and shard-event counts as ``{name: {labels:
        n}}``, for :meth:`~repro.obs.Telemetry.absorb_counters`."""
        backend = f'backend="{self.name}"'
        return {
            "serve_index_hits_total": {f"{{{backend}}}": self._hits},
            "serve_index_walks_total": {f"{{{backend}}}": self._walks},
            "serve_index_invalidations_total": {
                f'{{{backend},reason="{reason}"}}': n
                for reason, n in self._invalidations.items()},
            "serve_shard_events_total": {
                f'{{{backend},event="{event}"}}': n
                for event, n in self._events.items()},
        }

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
