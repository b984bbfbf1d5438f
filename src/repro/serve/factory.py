"""Backend factory: build any storage from a plain config.

``get_objstorage`` mirrors the swh-objstorage factory idiom: one entry
point that turns a JSON-able config into a live storage, recursing for
composite classes.  Because configs are plain data they cross process
boundaries — fleet cells carry their whole fleet as configs.

Supported classes:

* ``memory`` — the dict-backed reference backend;
* ``fs`` — one simulated file system (any of the nine evaluated
  configurations), mounted fresh or restored from an aged snapshot
  image via :func:`repro.harness.setup.aged_fs` (same cache keys, same
  bit-identical restore guarantees; the image comes out of the
  archive under ``$REPRO_SNAPSHOT_DIR`` — e.g. one pre-built there by
  ``repro snapshot build --track-data``; a corrupt or stale snapshot
  falls back to re-aging with a ``RuntimeWarning`` and is replaced by
  that run);
* ``multiplexer`` — a fleet of recursively-built backends behind the
  deterministic tenant router with optional admission control.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..errors import InvalidArgumentError
from .backend import FSObjStorage, MemoryObjStorage
from .interface import ObjStorage
from .multiplexer import ObjStorageMultiplexer

__all__ = ["get_objstorage"]


def _build_fs(fs: str = "WineFS", *, size_gib: float = 0.25,
              num_cpus: int = 2, aged: bool = False, snapshot: bool = True,
              seed: int = 7, utilization: float = 0.5,
              churn_multiple: float = 1.0,
              label: Optional[str] = None) -> FSObjStorage:
    from ..harness.setup import SPECS_BY_NAME, aged_fs, fresh_fs

    if fs not in SPECS_BY_NAME:
        raise InvalidArgumentError(f"unknown file system {fs!r}")
    # track_data: an object store must serve back the bytes it accepted,
    # so the simulated FS keeps real file contents (not just lengths)
    if aged:
        built, ctx = aged_fs(fs, size_gib=size_gib, num_cpus=num_cpus,
                             utilization=utilization,
                             churn_multiple=churn_multiple, seed=seed,
                             snapshot=snapshot, track_data=True)
    else:
        built, ctx = fresh_fs(fs, size_gib=size_gib, num_cpus=num_cpus,
                              track_data=True)
    return FSObjStorage(built, ctx, label=label)


def _build_multiplexer(backends: Sequence[Dict[str, Any]] = (),
                       queue_cap: int = 0,
                       label: str = "multiplexer"
                       ) -> ObjStorageMultiplexer:
    if not backends:
        raise InvalidArgumentError("multiplexer config needs backends")
    built = [get_objstorage(**dict(cfg)) for cfg in backends]
    return ObjStorageMultiplexer(built, queue_cap=queue_cap, label=label)


def get_objstorage(cls: str = "memory", **kwargs) -> ObjStorage:
    """Build one storage from a plain config (see module docstring)."""
    if cls == "memory":
        return MemoryObjStorage(**kwargs)
    if cls == "fs":
        return _build_fs(**kwargs)
    if cls == "multiplexer":
        return _build_multiplexer(**kwargs)
    raise InvalidArgumentError(f"unknown objstorage class {cls!r}")
