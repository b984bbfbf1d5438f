"""Versioned, pickle-free snapshots of aged simulation state.

``codec`` turns a whitelisted object graph into a tagged binary stream
whose restore is bit-identical (exact floats, preserved dict order and
shared references); ``archive`` is the one on-disk container — one
sealed pack per CRC-framed record, an atomically published index and
fail-closed reads, so corrupt or stale records fall back to re-aging;
``store`` is the content-addressed cache over it under
``$REPRO_SNAPSHOT_DIR``.  ``harness.aged_fs`` is the consumer.
"""

from .archive import Archive
from .codec import SnapshotDecodeError, SnapshotUnsupported, decode, encode
from .store import (FORMAT_VERSION, cache_key, load, load_ex, save,
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
