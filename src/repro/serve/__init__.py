"""repro.serve: a multi-tenant object service over simulated PM file
systems.

The service layer answers the roadmap's "millions of users" question:
what does a WineFS-class file system buy an actual storage service?  It
stacks an SWH-style content-addressed object interface (put / get /
exists / delete / list) on any simulated FS model, routes per-tenant
namespaces across a fleet through a deterministic multiplexer with
loss-based admission control, and exposes the whole thing through the
``repro serve`` CLI.

Everything stays a pure function of seeds: streams come from
:func:`~repro.serve.loadgen.generate_stream`, routing is content-hashed,
service time is simulated-clock deltas — so the differential suite can
demand byte-identical state between multiplexed and direct runs.
"""

from .backend import SERVE_ROOT, FSObjStorage, MemoryObjStorage
from .factory import get_objstorage
from .interface import (OBJ_ID_LEN, ObjStorage, check_obj_id, check_tenant,
                        compute_obj_id)
from .loadgen import (LoadSpec, Request, dump_objects, generate_stream,
                      object_size, run_load)
from .multiplexer import ObjStorageMultiplexer

__all__ = [
    "OBJ_ID_LEN", "ObjStorage", "check_obj_id", "check_tenant",
    "compute_obj_id",
    "SERVE_ROOT", "FSObjStorage", "MemoryObjStorage",
    "ObjStorageMultiplexer", "get_objstorage",
    "LoadSpec", "Request", "object_size",
    "generate_stream", "run_load", "dump_objects",
]
