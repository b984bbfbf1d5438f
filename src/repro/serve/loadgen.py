"""Seeded multi-tenant load: the SWH small-object workload, served.

The size distribution follows the Software Heritage object statistics
(SNIPPETS.md): mostly-small objects, 50% under 4 KiB and 75% under
16 KiB, with a thin heavy tail.  Tenants draw from a harmonic weight
ladder (tenant 0 is the heavy hitter), arrivals are an open-loop seeded
exponential process, and the verb mix leans write-heavy the way an
ingest-facing archive does.

Generation is execution-independent: the stream tracks its own model of
each tenant's live objects, so a clean run surfaces zero errors, while a
fault campaign that kills puts makes later gets of those ids surface
``ENOENT`` — exactly the downstream damage a real archive would see.

:func:`run_load` drives any :class:`~repro.serve.ObjStorage` with a
stream, records service latencies and surfaced errors into optional
SLO telemetry (service ops appear under the ``serve`` label, next
to the per-FS VFS series the attached backends record), and returns a
deterministic report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import BusyError, FSError
from ..params import KIB
from ..rng import make_rng
from .interface import ObjStorage, compute_obj_id

__all__ = ["LoadSpec", "Request", "object_size", "generate_stream",
           "run_load", "dump_objects"]

#: salt separating the serve stream from other users of the same seed
_STREAM_SALT = 23

#: verb mix (percent rolls): writes dominate, reads close behind
_PUT_PCT, _GET_PCT, _EXISTS_PCT, _DELETE_PCT = 40, 35, 10, 8


@dataclass(frozen=True)
class LoadSpec:
    """One seeded load's shape; every field feeds the stream exactly."""

    seed: int
    tenants: int = 4
    ops: int = 400
    mean_interarrival_ns: float = 50_000.0
    max_size: int = 256 * KIB


@dataclass(frozen=True)
class Request:
    """One generated service request."""

    index: int
    op: str                      # put / get / exists / delete / list
    tenant: str
    arrival_ns: float
    obj_id: str = ""
    data: bytes = field(default=b"", repr=False)


def object_size(rng, max_size: int = 256 * KIB) -> int:
    """Draw one object size from the SWH distribution."""
    roll = rng.random()
    if roll < 0.50:
        size = 64 + rng.randrange(4 * KIB - 64)
    elif roll < 0.75:
        size = 4 * KIB + rng.randrange(12 * KIB)
    elif roll < 0.92:
        size = 16 * KIB + rng.randrange(48 * KIB)
    else:
        size = 64 * KIB + rng.randrange(192 * KIB)
    return min(size, max_size)


def generate_stream(spec: LoadSpec) -> List[Request]:
    """The deterministic request stream for *spec*."""
    rng = make_rng(spec.seed, salt=_STREAM_SALT)
    tenants = [f"t{i:02d}" for i in range(spec.tenants)]
    weights = [1.0 / (i + 1) for i in range(spec.tenants)]
    live: Dict[str, List[str]] = {t: [] for t in tenants}
    stream: List[Request] = []
    arrival = 0.0
    for index in range(spec.ops):
        arrival += rng.expovariate(1.0 / spec.mean_interarrival_ns)
        tenant = rng.choices(tenants, weights)[0]
        roll = rng.randrange(100)
        ids = live[tenant]
        if roll < _PUT_PCT or not ids:
            data = rng.randbytes(object_size(rng, spec.max_size))
            obj_id = compute_obj_id(data)
            if obj_id not in ids:
                ids.append(obj_id)
            stream.append(Request(index, "put", tenant, arrival,
                                  obj_id=obj_id, data=data))
        elif roll < _PUT_PCT + _GET_PCT:
            stream.append(Request(index, "get", tenant, arrival,
                                  obj_id=ids[rng.randrange(len(ids))]))
        elif roll < _PUT_PCT + _GET_PCT + _EXISTS_PCT:
            stream.append(Request(index, "exists", tenant, arrival,
                                  obj_id=ids[rng.randrange(len(ids))]))
        elif roll < _PUT_PCT + _GET_PCT + _EXISTS_PCT + _DELETE_PCT:
            obj_id = ids.pop(rng.randrange(len(ids)))
            stream.append(Request(index, "delete", tenant, arrival,
                                  obj_id=obj_id))
        else:
            stream.append(Request(index, "list", tenant, arrival))
    return stream


def run_load(storage: ObjStorage, stream: List[Request],
             telemetry=None) -> Dict[str, object]:
    """Drive *storage* with *stream*; returns a deterministic report.

    Admission rejections (``EAGAIN``) and surfaced file-system errors
    never abort the run: they are counted (and fed to *telemetry*'s
    error ledger under the ``serve`` label) and the stream continues —
    the service analogue of the fault campaigns' "degraded, never
    down" discipline.
    """
    ops: Dict[str, int] = {}
    errors: Dict[str, int] = {}
    rejections: List[int] = []
    bytes_put = 0
    bytes_got = 0
    for req in stream:
        storage.advance(req.arrival_ns)
        ops[req.op] = ops.get(req.op, 0) + 1
        start_ns = storage.sim_ns()
        try:
            if req.op == "put":
                storage.put(req.tenant, req.data, obj_id=req.obj_id)
                bytes_put += len(req.data)
            elif req.op == "get":
                bytes_got += len(storage.get(req.tenant, req.obj_id))
            elif req.op == "exists":
                storage.exists(req.tenant, req.obj_id)
            elif req.op == "delete":
                storage.delete(req.tenant, req.obj_id)
            else:
                storage.list_objects(req.tenant)
        except BusyError:
            rejections.append(req.index)
            errors["EAGAIN"] = errors.get("EAGAIN", 0) + 1
            if telemetry is not None:
                telemetry.record_error("serve", req.op, "EAGAIN")
            continue
        except FSError as exc:
            errors[exc.errno_name] = errors.get(exc.errno_name, 0) + 1
            if telemetry is not None:
                telemetry.record_error("serve", req.op, exc.errno_name)
            continue
        if telemetry is not None:
            telemetry.record_op("serve", req.op,
                                storage.sim_ns() - start_ns)
    return {
        "schema": "repro.serve-load/1",
        "requests": len(stream),
        "ops": dict(sorted(ops.items())),
        "errors": dict(sorted(errors.items())),
        "rejected": len(rejections),
        "rejections": rejections,
        "bytes_put": bytes_put,
        "bytes_got": bytes_got,
        "sim_ns": storage.sim_ns(),
    }


def dump_objects(storage: ObjStorage,
                 tenants: List[str]) -> Dict[str, Dict[str, bytes]]:
    """Every tenant's live objects as ``{tenant: {id: bytes}}`` — the
    byte-level state the differential suite compares."""
    out: Dict[str, Dict[str, bytes]] = {}
    for tenant in tenants:
        out[tenant] = {obj_id: storage.get(tenant, obj_id)
                       for obj_id in storage.list_objects(tenant)}
    return out
