"""Versioned, pickle-free snapshots of aged simulation state.

``codec`` turns a whitelisted object graph into a tagged binary stream
whose restore is bit-identical (exact floats, preserved dict order and
shared references); ``store`` is the content-addressed cache under
``$REPRO_SNAPSHOT_DIR`` — one CRC-checked file per aged image, published
atomically and read fail-closed, so corrupt or stale images fall back to
re-aging.  ``harness.aged_fs`` is the consumer.
"""

from .codec import SnapshotDecodeError, SnapshotUnsupported, decode, encode
from .store import (FORMAT_VERSION, Archive, cache_key, load, load_ex, save,
                    snapshot_dir)

__all__ = [
    "Archive",
    "SnapshotDecodeError",
    "SnapshotUnsupported",
    "decode",
    "encode",
    "FORMAT_VERSION",
    "cache_key",
    "load",
    "load_ex",
    "save",
    "snapshot_dir",
]
