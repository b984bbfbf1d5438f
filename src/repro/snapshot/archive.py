"""Pack archive: the one container aged images live in.

The snapshot cache (:mod:`repro.snapshot.store`) and the fleet corpus
builder (``repro.harness.fleet.CAMPAIGNS["snapshot"]``) write through the
same path: every new record becomes a sealed pack of its own, so one
image is one evictable file, and identical payloads (every un-ageable
PMFS cell, every duplicate parameter point) are stored once.

sealed pack
    ``packs/pack-NNNNNN.pack`` holds a header and one CRC-framed object
    record.  It is created exclusively under the index lock, fsynced and
    chmod'ed read-only before the index names it, so a crashed writer
    leaves at worst a pack no entry names.  Packs are immutable: readers
    can hold offsets into them forever.

index
    One ``index.json`` maps every object key to ``(relpath, offset,
    length)``.  The index is published by write-to-temp + ``os.replace``
    under an ``fcntl`` file lock, so readers always see a complete JSON
    document and concurrent writers serialize their merges.  A
    ``contents`` section maps payload digests to the first key that
    wrote them: later keys with identical payload bytes become *aliases*
    (entries ``[relpath, offset, length, owner]`` sharing the owner's
    record) and write nothing.  A record names the key it was written
    for and is served to that key and its aliases only: an entry that
    has come to point at other bytes (a pack number reused after an
    eviction the index never heard of) reads ``corrupt``.  The index is
    outside input: entries that are malformed, or name anything but this
    archive's own packs, are ignored.

scrub
    Walks every indexed pack record-by-record, re-verifying each
    record's CRC.  A pack with structural damage or a failed CRC is
    moved to ``quarantine/`` and its index entries are dropped, so the
    next restore of an affected key falls back to re-aging.  Packs no
    entry names and stray index temp files — what a killed writer
    leaves — are unlinked.

All integrity failures on the read path degrade to the store's statuses
(``miss`` / ``corrupt`` / ``stale`` / ``decode_error``); nothing in a
damaged archive can stop a run, only slow it down to cold-aging speed.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import re
import stat
import struct
import tempfile
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import codec, store

__all__ = ["Archive", "ARCHIVE_VERSION", "INDEX_SCHEMA"]

#: bumped when the pack/record layout changes; packs carry it in their
#: header so foreign files are quarantined, never misparsed
ARCHIVE_VERSION = 1

INDEX_SCHEMA = "repro.snapshot-archive/1"

_PACK_MAGIC = b"REPROPAK"
_PACK_HEAD = struct.Struct("<H")          # archive version
_REC_MAGIC = b"ROBJ"
# record header: magic | store version | key_len | meta_len | payload_len
_REC_HEAD = struct.Struct("<4sHHIQ")
_REC_CRC = struct.Struct("<I")
#: the only files an index entry may name: what this module itself writes
_DATA_FILE = re.compile(r"packs/pack-\d+\.pack\Z")


def _valid_entry(entry: Any) -> bool:
    """``[relpath, offset >= 0, length > 0]`` (+ owner, for an alias)."""
    return (isinstance(entry, list) and len(entry) in (3, 4)
            and all(type(v) is t for v, t in zip(entry, (str, int, int, str)))
            and _DATA_FILE.match(entry[0]) is not None
            and entry[1] >= 0 and entry[2] > 0)


def _owner(key: str, entry: List[Any]) -> str:
    """The key whose record *entry* points at (itself unless an alias)."""
    return entry[3] if len(entry) > 3 else key


def _frame_record(key: str, meta_blob: bytes, payload: bytes) -> bytes:
    raw_key = key.encode("utf-8")
    crc = zlib.crc32(raw_key + meta_blob + payload) & 0xFFFFFFFF
    head = _REC_HEAD.pack(_REC_MAGIC, store.FORMAT_VERSION, len(raw_key),
                          len(meta_blob), len(payload))
    return head + raw_key + meta_blob + payload + _REC_CRC.pack(crc)


def _parse_record(blob: bytes, offset: int
                  ) -> Optional[Tuple[str, int, bytes, bytes, int]]:
    """``(key, version, meta, payload, end_offset)`` or None if invalid.

    CRC-checks the record; any structural problem (bad magic, lengths
    past EOF, CRC mismatch) returns None so callers treat the enclosing
    file as damaged from this point on.
    """
    head_end = offset + _REC_HEAD.size
    if head_end > len(blob):
        return None
    magic, version, key_len, meta_len, payload_len = _REC_HEAD.unpack_from(
        blob, offset)
    if magic != _REC_MAGIC:
        return None
    body_end = head_end + key_len + meta_len + payload_len
    end = body_end + _REC_CRC.size
    if end > len(blob):
        return None
    raw_key = blob[head_end:head_end + key_len]
    meta_blob = blob[head_end + key_len:head_end + key_len + meta_len]
    payload = blob[head_end + key_len + meta_len:body_end]
    (crc,) = _REC_CRC.unpack_from(blob, body_end)
    if zlib.crc32(raw_key + meta_blob + payload) & 0xFFFFFFFF != crc:
        return None
    try:
        key = raw_key.decode("utf-8")
    except UnicodeDecodeError:
        return None
    return key, version, meta_blob, payload, end


def _pack_header() -> bytes:
    return _PACK_MAGIC + _PACK_HEAD.pack(ARCHIVE_VERSION)


_HEADER_LEN = len(_PACK_MAGIC) + _PACK_HEAD.size


def _valid_header(blob: bytes) -> bool:
    if len(blob) < _HEADER_LEN or not blob.startswith(_PACK_MAGIC):
        return False
    (version,) = _PACK_HEAD.unpack_from(blob, len(_PACK_MAGIC))
    return version == ARCHIVE_VERSION


class _IndexLock:
    """``flock`` on ``<root>/.lock`` serializing index publication."""

    def __init__(self, root: str) -> None:
        self._path = os.path.join(root, ".lock")
        self._fd: Optional[int] = None

    def __enter__(self) -> "_IndexLock":
        self._fd = os.open(self._path, os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None


class Archive:
    """One pack archive rooted at a directory.

    Thread-unsafe per instance, multi-process safe per directory: every
    pack write and index mutation happens under the directory's file
    lock, and the index is published atomically.  Instances are cheap —
    the index is re-read from disk on every lookup so concurrent writers
    are always visible.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(os.path.join(root, "packs"), exist_ok=True)

    # -- paths and index I/O --------------------------------------------------

    def _path(self, relpath: str) -> str:
        return os.path.join(self.root, relpath)

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.json")

    def _read_index(self) -> Dict[str, Any]:
        try:
            with open(self.index_path, "rb") as handle:
                doc = json.load(handle)
        except (ValueError, OSError):
            doc = None
        if not isinstance(doc, dict) or doc.get("schema") != INDEX_SCHEMA:
            doc = {}
        objects, contents = doc.get("objects"), doc.get("contents")
        objects = {key: entry for key, entry in objects.items()
                   if _valid_entry(entry)} if isinstance(objects, dict) else {}
        # a digest is worth keeping only while the key that stored it lives
        contents = {digest: key for digest, key in contents.items()
                    if isinstance(key, str) and key in objects
                    } if isinstance(contents, dict) else {}
        return {"schema": INDEX_SCHEMA, "objects": objects,
                "contents": contents}

    def _publish_index(self, doc: Dict[str, Any]) -> None:
        blob = json.dumps(doc, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".index-",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.index_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- write path -----------------------------------------------------------

    def put(self, key: str, root_obj: Any,
            meta: Optional[Dict[str, Any]] = None) -> bool:
        """Encode *root_obj* and store it under *key*, replacing whatever
        the index held there: the cache's write, where the last writer
        wins and a damaged image is healed by the run that re-aged it.

        Returns False when the graph is unserializable or the directory
        is unwritable — snapshotting is an optimization, never a
        correctness requirement.
        """
        try:
            payload = codec.encode(root_obj)
        except codec.SnapshotUnsupported:
            return False
        return self._store(key, payload, meta, replace=True) is not None

    def put_payload(self, key: str, payload: bytes,
                    meta: Optional[Dict[str, Any]] = None) -> Optional[str]:
        """Store already-encoded *payload* bytes under *key* unless the
        index already holds the key (the first writer wins, so re-running
        a corpus build changes nothing).

        The corpus builder encodes in worker processes and archives in
        the parent (in sorted cell order) through this entry point.
        Identical payload bytes already present become an alias entry:
        no data is written, the key simply points at the first record.
        Returns ``"stored"``, ``"alias"``, or ``"existing"`` on success,
        ``None`` when the directory is unwritable.
        """
        return self._store(key, payload, meta, replace=False)

    def _store(self, key: str, payload: bytes, meta: Optional[Dict[str, Any]],
               replace: bool) -> Optional[str]:
        meta_blob = json.dumps(store._canonical(meta or {}), sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
        digest = hashlib.sha256(payload).hexdigest()
        try:
            with _IndexLock(self.root):
                doc = self._read_index()
                objects, contents = doc["objects"], doc["contents"]
                old = objects.get(key)
                if old is not None:
                    if not replace:
                        return "existing"
                    del objects[key]
                    for stale in [d for d, k in contents.items() if k == key]:
                        del contents[stale]
                alias = contents.get(digest)
                # a replacement is always a fresh record: the one the digest
                # names may be the very record that just failed this key
                if alias is not None and old is None:
                    objects[key] = objects[alias][:3] + [
                        _owner(alias, objects[alias])]
                    status = "alias"
                else:
                    record = _frame_record(key, meta_blob, payload)
                    pack_rel = self._next_pack_name()
                    self._write_pack(pack_rel, record)
                    objects[key] = [pack_rel, _HEADER_LEN, len(record)]
                    contents[digest] = key
                    status = "stored"
                self._publish_index(doc)
                if old is not None and all(
                        entry[0] != old[0] for entry in objects.values()):
                    with contextlib.suppress(OSError):
                        os.unlink(self._path(old[0]))  # the pack it orphaned
        except OSError:
            return None
        return status

    def _next_pack_name(self) -> str:
        """One past the highest pack number on disk (lock held)."""
        taken = [int(rel[len("packs/pack-"):-len(".pack")])
                 for rel in self._data_files() if _DATA_FILE.match(rel)]
        return f"packs/pack-{max(taken, default=-1) + 1:06d}.pack"

    def _write_pack(self, pack_rel: str, record: bytes) -> None:
        """Seal *record* into a new read-only pack (lock held): durable
        before any index entry can name it."""
        path = self._path(pack_rel)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        with os.fdopen(fd, "wb") as handle:
            handle.write(_pack_header() + record)
            handle.flush()
            os.fsync(handle.fileno())
        os.chmod(path, stat.S_IRUSR | stat.S_IRGRP | stat.S_IROTH)

    # -- read path ------------------------------------------------------------

    def load_ex(self, key: str) -> Tuple[Optional[Any], str]:
        """Decode the object under *key*; statuses match ``store.load_ex``."""
        entry = self._read_index()["objects"].get(key)
        if entry is None:
            return None, "miss"
        relpath, offset, length = entry[:3]
        path = self._path(relpath)
        try:
            with open(path, "rb") as handle:
                if offset + length > os.fstat(handle.fileno()).st_size:
                    return None, "corrupt"
                handle.seek(offset)
                blob = handle.read(length)
        except FileNotFoundError:
            return None, "miss"  # evicted or replaced under this reader
        except OSError:
            return None, "corrupt"
        with contextlib.suppress(OSError):
            os.utime(path)  # mtime = recency, the order gc evicts in
        parsed = _parse_record(blob, 0)
        if parsed is None:
            return None, "corrupt"
        written_for, version, _meta, payload, end = parsed
        if end != len(blob) or written_for != _owner(key, entry):
            return None, "corrupt"
        if version != store.FORMAT_VERSION:
            return None, "stale"
        try:
            return codec.decode(payload), "hit"
        except codec.SnapshotDecodeError:
            return None, "decode_error"

    def contains(self, key: str) -> bool:
        return key in self._read_index()["objects"]

    def objects(self) -> Iterator[Tuple[str, str, int, int]]:
        """Yield ``(key, relpath, offset, length)`` in sorted key order."""
        objects = self._read_index()["objects"]
        for key in sorted(objects):
            relpath, offset, length = objects[key][:3]
            yield key, relpath, offset, length

    def stats(self) -> Dict[str, Any]:
        doc = self._read_index()
        files: Dict[str, int] = {}
        for name in self._data_files():
            try:
                files[name] = os.path.getsize(self._path(name))
            except OSError:
                continue
        locations = {tuple(entry[:3]) for entry in doc["objects"].values()}
        return {
            "objects": len(doc["objects"]),
            "unique_records": len(locations),
            "aliases": len(doc["objects"]) - len(locations),
            "packs": len(files),
            "bytes": sum(files.values()),
        }

    # -- maintenance ----------------------------------------------------------

    def _data_files(self) -> List[str]:
        packs_dir = os.path.join(self.root, "packs")
        if not os.path.isdir(packs_dir):
            return []
        return sorted(f"packs/{name}" for name in os.listdir(packs_dir)
                      if name.endswith(".pack"))

    def scrub(self) -> Dict[str, Any]:
        """Verify every indexed record CRC; quarantine damaged packs;
        reclaim what killed writers left.

        Returns ``{"files", "objects", "quarantined", "dropped_keys",
        "reclaimed"}``.  A pack is damaged when its header is wrong or
        any record fails to parse/CRC before EOF; damaged packs move to
        ``quarantine/`` and every index entry that is not a verified
        record of its owner (it points into such a pack, at no record, or
        at another key's) is dropped, aliases included, so affected keys
        re-age on next use.  Every pack write and index publish runs
        under the lock held here, so packs no remaining entry names and
        ``.index-*.tmp`` files are crash leftovers: they are unlinked and
        listed under ``reclaimed``.
        """
        with _IndexLock(self.root):
            doc = self._read_index()
            named = {entry[0] for entry in doc["objects"].values()}
            valid: Dict[str, Dict[Tuple[int, int], str]] = {}
            quarantined: List[str] = []
            objects_seen = 0
            for relpath in self._data_files():
                if relpath not in named:
                    continue
                path = self._path(relpath)
                try:
                    with open(path, "rb") as handle:
                        blob = handle.read()
                except OSError:
                    quarantined.append(relpath)
                    continue
                ok = _valid_header(blob)
                spans: Dict[Tuple[int, int], str] = {}
                offset = _HEADER_LEN
                while ok and offset < len(blob):
                    parsed = _parse_record(blob, offset)
                    if parsed is None:
                        ok = False
                        break
                    spans[offset, parsed[4] - offset] = parsed[0]
                    objects_seen += 1
                    offset = parsed[4]
                if ok:
                    valid[relpath] = spans
                else:
                    self._quarantine(relpath)
                    quarantined.append(relpath)
            dropped = sorted(
                key for key, entry in doc["objects"].items()
                if valid.get(entry[0], {}).get((entry[1], entry[2]))
                != _owner(key, entry))
            for key in dropped:
                del doc["objects"][key]
            self._publish_index(doc)
            named = {entry[0] for entry in doc["objects"].values()}
            reclaimed = [relpath for relpath in self._data_files()
                         if relpath not in named]
            reclaimed += sorted(name for name in os.listdir(self.root)
                                if name.startswith(".index-")
                                and name.endswith(".tmp"))
            for relpath in reclaimed:
                with contextlib.suppress(OSError):
                    os.unlink(self._path(relpath))
        return {
            "files": len(valid) + len(quarantined),
            "objects": objects_seen,
            "quarantined": quarantined,
            "dropped_keys": dropped,
            "reclaimed": reclaimed,
        }

    def _quarantine(self, relpath: str) -> None:
        qdir = os.path.join(self.root, "quarantine")
        os.makedirs(qdir, exist_ok=True)
        target = os.path.join(qdir, os.path.basename(relpath))
        try:
            os.chmod(self._path(relpath), 0o644)
        except OSError:
            pass
        os.replace(self._path(relpath), target)

    def gc(self, max_bytes: int) -> Dict[str, Any]:
        """Evict packs, least-recently-modified first, until the
        archive's packs fit in *max_bytes*.

        Returns ``{"evicted", "freed_bytes", "dropped_keys"}``.
        """
        with _IndexLock(self.root):
            doc = self._read_index()
            sized = []
            total = 0
            for relpath in self._data_files():
                try:
                    info = os.stat(self._path(relpath))
                except OSError:
                    continue
                total += info.st_size
                sized.append((info.st_mtime, relpath, info.st_size))
            sized.sort()
            evicted: List[str] = []
            freed = 0
            for _mtime, relpath, size in sized:
                if total <= max_bytes:
                    break
                try:
                    os.chmod(self._path(relpath), 0o644)
                    os.unlink(self._path(relpath))
                except OSError:
                    continue
                total -= size
                freed += size
                evicted.append(relpath)
            dropped: List[str] = []
            if evicted:
                gone = set(evicted)
                for key, entry in list(doc["objects"].items()):
                    if entry[0] in gone:
                        del doc["objects"][key]
                        dropped.append(key)
                self._publish_index(doc)
        return {"evicted": evicted, "freed_bytes": freed,
                "dropped_keys": sorted(dropped)}
