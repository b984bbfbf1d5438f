"""Content-addressed on-disk cache for aged-image snapshots.

A snapshot is keyed by everything that determines the aged state: file
system name, device size, CPU count, aging profile, seed, churn volume,
target utilization, machine parameters, and the codec format version.
Same inputs → same key → cache hit; any change re-ages.

Images live under ``$REPRO_SNAPSHOT_DIR`` (default ``~/.cache/repro``),
one self-checking file per key, ``images/<key>.img``::

    magic | version | key_len | meta_len | payload_len | key | meta
          | payload | crc32(key + meta + payload)

An image is written to a temp file in ``images/``, fsynced and published
with ``os.replace``, so a reader sees the old file or the new one, never
a torn one; ``repro snapshot build`` pointed at the same directory
pre-warms it.  The version sits outside the CRC, so bumping
:data:`FORMAT_VERSION` invalidates every image even against a CRC
collision.  A key must be 64 lowercase hex characters before it forms a
path.

Every failure mode (no image, stale version, CRC or key mismatch,
truncation, decode error, unusable directory) makes :func:`load` return
``None`` so callers re-age; :func:`load_ex` also names the failure so
the harness can count the non-``miss`` ones — a corrupt cache that
re-ages on every run looks like a healthy cold cache unless something
counts it.  The :func:`save` after such a re-age replaces the damaged
image, so the next run is a hit.  ``$REPRO_SNAPSHOT_MAX_BYTES`` caps the
directory: every save evicts images, least recently loaded first, until
the cap holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import struct
import tempfile
import zlib
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, List, Optional, Tuple

from . import codec

__all__ = ["FORMAT_VERSION", "LOAD_STATUSES", "Archive", "cache_key",
           "env_max_bytes", "snapshot_dir", "save", "load", "load_ex"]

#: bump whenever the codec stream or the simulated state layout changes;
#: old images are then ignored (and replaced by the next save), never
#: misread.
FORMAT_VERSION = 11

#: every status ``load_ex`` can report.  ``hit`` carries a value; the
#: rest carry ``None``.  ``miss`` (no image) is the healthy cold-cache
#: case; the other three mean an image existed but could not be used.
LOAD_STATUSES = ("hit", "miss", "corrupt", "stale", "decode_error")

_MAGIC = b"REPROIMG"
# header after the magic: store version | key_len | meta_len | payload_len
_HEAD = struct.Struct("<HHIQ")
_CRC = struct.Struct("<I")
_KEY = re.compile(r"[0-9a-f]{64}\Z")
_SUFFIX = ".img"


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


def _check_key(key: str) -> str:
    if not isinstance(key, str) or _KEY.match(key) is None:
        raise ValueError(f"snapshot key must be 64 lowercase hex "
                         f"characters, not {key!r}")
    return key


def _frame(key: str, meta_blob: bytes, payload: bytes) -> bytes:
    raw_key = key.encode("ascii")
    crc = zlib.crc32(raw_key + meta_blob + payload) & 0xFFFFFFFF
    return (_MAGIC + _HEAD.pack(FORMAT_VERSION, len(raw_key), len(meta_blob),
                                len(payload))
            + raw_key + meta_blob + payload + _CRC.pack(crc))


def _parse(blob: bytes) -> Optional[Tuple[str, int, bytes]]:
    """``(key, version, payload)`` of an intact image file, else None:
    bad magic, lengths that do not add up to the file, CRC mismatch."""
    body = len(_MAGIC) + _HEAD.size
    if len(blob) < body + _CRC.size or not blob.startswith(_MAGIC):
        return None
    version, key_len, meta_len, payload_len = _HEAD.unpack_from(
        blob, len(_MAGIC))
    end = body + key_len + meta_len + payload_len
    if end + _CRC.size != len(blob):
        return None
    if zlib.crc32(blob[body:end]) & 0xFFFFFFFF != _CRC.unpack_from(
            blob, end)[0]:
        return None
    key = blob[body:body + key_len].decode("latin-1")
    return key, version, blob[end - payload_len:end]


class Archive:
    """The image files under one root directory.

    Holds no state but the root: every call looks at the files, so
    concurrent writers in other processes are always visible.  Writers
    need no lock — each publishes one whole file with ``os.replace``.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._images = os.path.join(root, "images")
        os.makedirs(self._images, exist_ok=True)

    def path(self, key: str) -> str:
        """The file that holds *key*'s image (ValueError: malformed key)."""
        return os.path.join(self._images, _check_key(key) + _SUFFIX)

    # -- write path -----------------------------------------------------------

    def put(self, key: str, root_obj: Any,
            meta: Optional[Dict[str, Any]] = None) -> bool:
        """Encode *root_obj* and store it under *key*, replacing whatever
        the key held: the cache's write, where the last writer wins and a
        damaged image is healed by the run that re-aged it.

        Returns False when the graph is unserializable or the directory
        is unwritable — snapshotting is an optimization, never a
        correctness requirement.
        """
        _check_key(key)
        try:
            payload = codec.encode(root_obj)
        except codec.SnapshotUnsupported:
            return False
        return self._store(key, payload, meta, replace=True) is not None

    def put_payload(self, key: str, payload: bytes,
                    meta: Optional[Dict[str, Any]] = None) -> Optional[str]:
        """Store already-encoded *payload* bytes under *key* unless an
        image is there already (the first writer wins, so re-running a
        corpus build changes nothing).

        The corpus builder encodes in worker processes and archives in
        the parent (in sorted cell order) through this entry point.
        Returns ``"stored"`` or ``"existing"``, ``None`` when the
        directory is unwritable.  Two processes racing on one absent key
        may both store it; the file is then the later one's, whole.
        """
        return self._store(key, payload, meta, replace=False)

    def _store(self, key: str, payload: bytes, meta: Optional[Dict[str, Any]],
               replace: bool) -> Optional[str]:
        path = self.path(key)
        if not replace and os.path.exists(path):
            return "existing"
        meta_blob = json.dumps(_canonical(meta or {}), sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
        try:
            fd, tmp = tempfile.mkstemp(dir=self._images, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_frame(key, meta_blob, payload))
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError:
            return None
        return "stored"

    # -- read path ------------------------------------------------------------

    def load_ex(self, key: str) -> Tuple[Optional[Any], str]:
        """Decode the image under *key*; statuses as :func:`load_ex`."""
        path = self.path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return None, "miss"
        except OSError:
            return None, "corrupt"
        with contextlib.suppress(OSError):
            os.utime(path)  # mtime = recency, the order gc evicts in
        parsed = _parse(blob)
        if parsed is None or parsed[0] != key:
            return None, "corrupt"
        if parsed[1] != FORMAT_VERSION:
            return None, "stale"
        try:
            return codec.decode(parsed[2]), "hit"
        except codec.SnapshotDecodeError:
            return None, "decode_error"

    def _files(self) -> List[Tuple[str, str]]:
        """``(key, path)`` of every image file, in key order."""
        try:
            names = os.listdir(self._images)
        except OSError:
            return []
        return [(name[:-len(_SUFFIX)], os.path.join(self._images, name))
                for name in sorted(names) if name.endswith(_SUFFIX)
                and _KEY.match(name[:-len(_SUFFIX)])]

    def keys(self) -> List[str]:
        return [key for key, _path in self._files()]

    def stats(self) -> Dict[str, int]:
        sizes = []
        for _key, path in self._files():
            with contextlib.suppress(OSError):
                sizes.append(os.path.getsize(path))
        return {"images": len(sizes), "bytes": sum(sizes)}

    # -- maintenance ----------------------------------------------------------

    def scrub(self) -> Dict[str, Any]:
        """Check every image file; quarantine damaged ones; reclaim what
        killed writers left.

        Returns ``{"images", "quarantined", "reclaimed"}``.  An image is
        damaged when it fails the CRC or structure check or names
        another key; it moves to ``quarantine/``, so its key re-ages on
        next use.  A stale image is intact and stays: the next save
        replaces it.  ``*.tmp`` files are what a writer killed before its
        ``os.replace`` leaves; they are unlinked and listed under
        ``reclaimed`` (a writer racing the scrub loses its temp file and
        reports the save as failed).
        """
        quarantined: List[str] = []
        files = self._files()
        for key, path in files:
            try:
                with open(path, "rb") as handle:
                    parsed = _parse(handle.read())
            except OSError:
                parsed = None
            if parsed is None or parsed[0] != key:
                qdir = os.path.join(self.root, "quarantine")
                os.makedirs(qdir, exist_ok=True)
                os.replace(path, os.path.join(qdir, os.path.basename(path)))
                quarantined.append(key)
        reclaimed = sorted(name for name in os.listdir(self._images)
                           if name.endswith(".tmp"))
        for name in reclaimed:
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(self._images, name))
        return {"images": len(files), "quarantined": quarantined,
                "reclaimed": reclaimed}

    def gc(self, max_bytes: int) -> Dict[str, Any]:
        """Evict images, least recently loaded or stored first, until the
        rest fit in *max_bytes*.  Returns ``{"evicted", "freed_bytes"}``
        (the evicted keys)."""
        sized = []
        for key, path in self._files():
            with contextlib.suppress(OSError):
                info = os.stat(path)
                sized.append((info.st_mtime, key, path, info.st_size))
        sized.sort()
        total = sum(size for *_rest, size in sized)
        evicted: List[str] = []
        freed = 0
        for _mtime, key, path, size in sized:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            freed += size
            evicted.append(key)
        return {"evicted": sorted(evicted), "freed_bytes": freed}


def snapshot_dir() -> str:
    override = os.environ.get("REPRO_SNAPSHOT_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def env_max_bytes() -> Optional[int]:
    """``$REPRO_SNAPSHOT_MAX_BYTES`` as a byte count; None when unset or
    empty.  Any other value that is not a decimal byte count raises
    ValueError: :func:`save` then applies no cap, and ``repro snapshot
    gc`` refuses it."""
    raw = os.environ.get("REPRO_SNAPSHOT_MAX_BYTES", "")
    if not raw:
        return None
    if not raw.isdecimal():
        raise ValueError(f"$REPRO_SNAPSHOT_MAX_BYTES={raw!r} is not a "
                         "byte count")
    return int(raw)


def save(key: str, root: Any, meta: Optional[Dict[str, Any]] = None) -> bool:
    """Encode *root* and store it under *key*, replacing any older image.

    Returns False when the graph is not serializable or the directory is
    not writable: snapshotting is an optimization, never a requirement.
    """
    _check_key(key)
    try:
        cap = env_max_bytes()
    except ValueError:          # not a byte count: no cap
        cap = None
    try:
        cache = Archive(snapshot_dir())
        saved = cache.put(key, root, meta=meta)
        if saved and cap is not None:
            cache.gc(cap)
        return saved
    except OSError:
        return False


def load_ex(key: str) -> tuple:
    """Decode the snapshot stored under *key*: ``(value, "hit")``, else
    ``(None, status)`` with *status* from :data:`LOAD_STATUSES` — ``miss``
    when nothing is stored under the key, ``stale`` for an image of
    another format version, ``corrupt`` for structural damage (truncation,
    CRC mismatch, an image written for another key), ``decode_error``
    when the integrity-checked payload fails the codec."""
    _check_key(key)
    try:
        return Archive(snapshot_dir()).load_ex(key)
    except OSError:
        return None, "miss"


def load(key: str) -> Optional[Any]:
    """Decode the snapshot stored under *key*; ``None`` on any failure."""
    return load_ex(key)[0]
