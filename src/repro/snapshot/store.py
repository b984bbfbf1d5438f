"""Content-addressed on-disk store for aged-image snapshots.

A snapshot is keyed by everything that determines the aged state: file
system name, device size, CPU count, aging profile, seed, churn volume,
target utilization, machine parameters, and the codec format version.
Same inputs → same key → cache hit; any change re-ages.

Files live under ``$REPRO_SNAPSHOT_DIR`` (default ``~/.cache/repro``) as
``<sha256>.snap``:

    magic "REPROSNP" | u16 version | u32 meta_len | meta JSON |
    u64 payload_len | payload | u32 crc32(meta + payload)

The meta JSON repeats the key parameters for inspection; integrity and
version checks happen before any payload byte reaches the codec.  Every
failure mode — missing file, bad magic, stale version, CRC mismatch,
truncation, decode error — makes :func:`load` return ``None`` so callers
fall back to re-aging; :func:`load_ex` additionally classifies the
failure (``miss`` / ``stale`` / ``corrupt`` / ``decode_error``) so the
harness can count non-miss failures instead of losing them — a corrupt
cache that silently re-ages on every run looks exactly like a healthy
cold cache unless something counts it.

Two environment knobs change where and how much:

* ``$REPRO_SNAPSHOT_ARCHIVE`` routes :func:`save`/:func:`load_ex` to a
  sharded pack archive rooted there (:mod:`repro.snapshot.archive`)
  instead of one flat file per key — same statuses, same fail-closed
  behavior, plus content dedup across keys;
* ``$REPRO_SNAPSHOT_MAX_BYTES`` caps the flat directory: after every
  save, least-recently-used ``.snap`` files (by mtime — loads touch
  their file) are evicted until the cap holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import zlib
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Optional

from . import codec

__all__ = ["FORMAT_VERSION", "LOAD_STATUSES", "cache_key", "snapshot_dir",
           "snapshot_path", "save", "load", "load_ex", "evict_lru"]

#: bump whenever the codec stream or the simulated state layout changes;
#: old files are then ignored (and eventually overwritten), never misread
#: (3: codec v2 columnar stream became the default encoding; 4: directory
#: indexes stopped carrying a red-black tree beside their dict)
FORMAT_VERSION = 4

_MAGIC = b"REPROSNP"
_HEAD = struct.Struct("<HI")   # version, meta_len
_PLEN = struct.Struct("<Q")    # payload_len
_CRC = struct.Struct("<I")


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


def snapshot_path(key: str) -> str:
    return os.path.join(snapshot_dir(), f"{key}.snap")


def _archive() -> Optional[Any]:
    """The routed archive when ``$REPRO_SNAPSHOT_ARCHIVE`` is set."""
    from . import archive as archive_mod

    root = archive_mod.archive_root()
    if root is None:
        return None
    try:
        return archive_mod.Archive(root)
    except OSError:
        return None


def _max_bytes() -> Optional[int]:
    raw = os.environ.get("REPRO_SNAPSHOT_MAX_BYTES")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def evict_lru(directory: str, max_bytes: int) -> Dict[str, Any]:
    """Evict ``.snap`` files, oldest mtime first, until the directory's
    snapshot bytes fit in *max_bytes*.

    Returns ``{"evicted", "freed_bytes", "kept_bytes"}``.  Loads touch
    their file's mtime, so eviction order is true LRU, not FIFO.
    """
    sized = []
    total = 0
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    for name in names:
        if not name.endswith(".snap"):
            continue
        path = os.path.join(directory, name)
        try:
            info = os.stat(path)
        except OSError:
            continue
        sized.append((info.st_mtime, path, info.st_size))
        total += info.st_size
    sized.sort()
    evicted = []
    freed = 0
    for _mtime, path, size in sized:
        if total <= max_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
        freed += size
        evicted.append(os.path.basename(path))
    return {"evicted": evicted, "freed_bytes": freed, "kept_bytes": total}


def save(key: str, root: Any, meta: Optional[Dict[str, Any]] = None) -> bool:
    """Encode *root* and atomically write it under *key*.

    Returns False (leaving no partial file behind) when the graph is not
    serializable or the directory is not writable; snapshotting is an
    optimization, never a correctness requirement.
    """
    routed = _archive()
    if routed is not None:
        return routed.put(key, root, meta=meta)
    try:
        payload = codec.encode(root)
    except codec.SnapshotUnsupported:
        return False
    meta_blob = json.dumps(_canonical(meta or {}), sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    body = (_HEAD.pack(FORMAT_VERSION, len(meta_blob)) + meta_blob
            + _PLEN.pack(len(payload)) + payload)
    crc = zlib.crc32(meta_blob + payload) & 0xFFFFFFFF
    target = snapshot_path(key)
    try:
        os.makedirs(os.path.dirname(target), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                                   prefix=".snap-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(body)
                handle.write(_CRC.pack(crc))
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False
    cap = _max_bytes()
    if cap is not None:
        evict_lru(os.path.dirname(target), cap)
    return True


#: every status ``load_ex`` can report.  ``hit`` carries a value; the
#: rest carry ``None``.  ``miss`` (no file) is the healthy cold-cache
#: case; the other three mean a file existed but could not be used.
LOAD_STATUSES = ("hit", "miss", "corrupt", "stale", "decode_error")


def load_ex(key: str) -> tuple:
    """Decode the snapshot stored under *key*.

    Returns ``(value, "hit")`` on success, else ``(None, status)`` with
    *status* one of :data:`LOAD_STATUSES`: ``miss`` when no file exists,
    ``stale`` for a readable file with an old format version, ``corrupt``
    for structural damage (bad magic, truncation, CRC mismatch), and
    ``decode_error`` when the integrity-checked payload fails the codec.
    """
    routed = _archive()
    if routed is not None:
        return routed.load_ex(key)
    path = snapshot_path(key)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return None, "miss"
    except OSError:
        return None, "corrupt"
    try:
        os.utime(path)  # mtime = recency, for evict_lru
    except OSError:
        pass
    try:
        if not blob.startswith(_MAGIC):
            return None, "corrupt"
        offset = len(_MAGIC)
        if len(blob) < offset + _HEAD.size + _PLEN.size + _CRC.size:
            return None, "corrupt"
        version, meta_len = _HEAD.unpack_from(blob, offset)
        if version != FORMAT_VERSION:
            return None, "stale"
        offset += _HEAD.size
        meta_end = offset + meta_len
        payload_off = meta_end + _PLEN.size
        if payload_off > len(blob) - _CRC.size:
            return None, "corrupt"
        (payload_len,) = _PLEN.unpack_from(blob, meta_end)
        payload_end = payload_off + payload_len
        if payload_end != len(blob) - _CRC.size:
            return None, "corrupt"
        (crc,) = _CRC.unpack_from(blob, payload_end)
        if zlib.crc32(blob[offset:meta_end]
                      + blob[payload_off:payload_end]) & 0xFFFFFFFF != crc:
            return None, "corrupt"
    except struct.error:
        return None, "corrupt"
    try:
        return codec.decode(blob[payload_off:payload_end]), "hit"
    except (codec.SnapshotDecodeError, struct.error, ValueError):
        return None, "decode_error"


def load(key: str) -> Optional[Any]:
    """Decode the snapshot stored under *key*; ``None`` on any failure."""
    value, _status = load_ex(key)
    return value
