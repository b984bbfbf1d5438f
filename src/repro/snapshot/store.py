"""Content-addressed on-disk cache for aged-image snapshots.

A snapshot is keyed by everything that determines the aged state: file
system name, device size, CPU count, aging profile, seed, churn volume,
target utilization, machine parameters, and the codec format version.
Same inputs → same key → cache hit; any change re-ages.

Images live under ``$REPRO_SNAPSHOT_DIR`` (default ``~/.cache/repro``)
in one pack archive: :mod:`repro.snapshot.archive` owns the container,
and ``repro snapshot build`` pointed at the same directory pre-warms it.
Every failure mode (no entry, stale version, CRC or key mismatch,
truncation, decode error, unusable directory) makes :func:`load` return
``None`` so callers re-age; :func:`load_ex` also names the failure so
the harness can count the non-``miss`` ones — a corrupt cache that
re-ages on every run looks like a healthy cold cache unless something
counts it.  The :func:`save` after such a re-age replaces the damaged
entry, so the next run is a hit.  ``$REPRO_SNAPSHOT_MAX_BYTES`` caps the
directory: every save evicts packs, least recently loaded first, until
the cap holds.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Optional

__all__ = ["FORMAT_VERSION", "LOAD_STATUSES", "cache_key", "snapshot_dir",
           "save", "load", "load_ex"]

#: bump whenever the codec stream or the simulated state layout changes;
#: old records are then ignored (and replaced by the next save), never
#: misread (3: codec v2 columnar stream became the default encoding; 4:
#: directory indexes stopped carrying a red-black tree beside their dict;
#: 5: persisted attributes renamed or dropped when the FS mechanics moved
#: into BaseFS — every baseline's pools are ``_pools`` (was ``_pool`` on
#: three), ext4 / SplitFS / xfs keep their running transaction in
#: ``_log_pending`` / ``log_forces`` (were ``_pending_handles`` /
#: ``jbd2_commits`` and ``_pending_items``), ``BaseFS._free_blocks`` and
#: ``PMDevice._fast`` / ``_dirty_lines`` are gone; 6: WineFS keeps its
#: pools, ``aligned_out`` and ``quarantined`` on the FS itself — its
#: ``allocator`` object is gone; 7: ``SimClock`` holds one TLB slot per
#: CPU, ``tlbs``)
FORMAT_VERSION = 7

#: every status ``load_ex`` can report.  ``hit`` carries a value; the
#: rest carry ``None``.  ``miss`` (no entry) is the healthy cold-cache
#: case; the other three mean a record existed but could not be used.
LOAD_STATUSES = ("hit", "miss", "corrupt", "stale", "decode_error")


def _canonical(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return {"__class__": type(value).__name__, **asdict(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    return value


def cache_key(params: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of the aging parameters."""
    doc = {"format_version": FORMAT_VERSION}
    doc.update({k: _canonical(v) for k, v in params.items()})
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def snapshot_dir() -> str:
    override = os.environ.get("REPRO_SNAPSHOT_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _cache() -> Any:
    """The archive behind the cache: one image is one evictable pack."""
    from .archive import Archive  # imports this module for FORMAT_VERSION

    return Archive(snapshot_dir())


def save(key: str, root: Any, meta: Optional[Dict[str, Any]] = None) -> bool:
    """Encode *root* and store it under *key*, replacing any older entry.

    Returns False when the graph is not serializable or the directory is
    not writable: snapshotting is an optimization, never a requirement.
    """
    try:
        cache = _cache()
        saved = cache.put(key, root, meta=meta)
        cap = os.environ.get("REPRO_SNAPSHOT_MAX_BYTES", "")
        if saved and cap.isdecimal():  # unset or not a byte count: no cap
            cache.gc(int(cap))
        return saved
    except OSError:
        return False


def load_ex(key: str) -> tuple:
    """Decode the snapshot stored under *key*: ``(value, "hit")``, else
    ``(None, status)`` with *status* from :data:`LOAD_STATUSES` — ``miss``
    when nothing is stored under the key, ``stale`` for a record of
    another format version, ``corrupt`` for structural damage (truncation,
    CRC mismatch, a record written for another key), ``decode_error``
    when the integrity-checked payload fails the codec."""
    try:
        return _cache().load_ex(key)
    except OSError:
        return None, "miss"


def load(key: str) -> Optional[Any]:
    """Decode the snapshot stored under *key*; ``None`` on any failure."""
    return load_ex(key)[0]
