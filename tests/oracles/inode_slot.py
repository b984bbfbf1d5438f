"""The one-shot inode slot encoder :class:`repro.core.layout.InodeSlot`
replaced: it builds every 128 B slot anew from an
:class:`~repro.core.layout.InodeRecord`, where the slot record rewrites
only the fields that changed in its reusable buffer."""

from __future__ import annotations

from repro.core.layout import (_EXT, _INODE_HEAD, FLAG_ALIGNED_HINT,
                               FLAG_DIR, INLINE_EXTENTS, INODE_SLOT_BYTES,
                               MAX_NAME, InodeRecord)
from repro.errors import FSError


def pack_inode(rec: InodeRecord, indirect_block: int = 0) -> bytes:
    """Serialize the fixed 128B slot (inline part only)."""
    name_bytes = rec.name.encode()
    if len(name_bytes) > MAX_NAME:
        raise FSError(f"name too long for inode slot: {rec.name!r}")
    flags = (FLAG_DIR if rec.is_dir else 0) | \
            (FLAG_ALIGNED_HINT if rec.aligned_hint else 0)
    head = _INODE_HEAD.pack(1 if rec.valid else 0, flags, rec.nlink,
                            len(rec.extents), rec.size, rec.parent_ino,
                            indirect_block)
    inline = b"".join(_EXT.pack(e.start, e.length)
                      for e in rec.extents[:INLINE_EXTENTS])
    inline = inline.ljust(INLINE_EXTENTS * _EXT.size, b"\x00")
    name_field = bytes([len(name_bytes)]) + name_bytes
    body = head + inline + name_field
    if len(body) > INODE_SLOT_BYTES:
        raise FSError("inode slot overflow")
    return body.ljust(INODE_SLOT_BYTES, b"\x00")
