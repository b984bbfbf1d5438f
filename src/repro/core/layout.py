"""WineFS on-PM layout and metadata serialization.

Per paper §3.2/Fig 5, the partition is split per logical CPU; each CPU owns
a journal, an inode table, and a data pool (aligned extents + holes).
Metadata structures get dedicated, in-place-updated locations ("controlled
fragmentation", §3.4) at the front of the partition, so they never chew up
aligned data extents.

Layout (blocks)::

    [0]                superblock
    [1 .. J*ncpu]      per-CPU journals            (J blocks each)
    [.. + T*ncpu]      per-CPU inode tables        (T blocks each)
    [data ...]         per-CPU data pools, each starting 2MB-aligned

Inode records are 128B fixed slots.  WineFS embeds the (parent_ino, name)
back-pointer in the inode so recovery can rebuild the namespace with a
parallel scan of the per-CPU inode tables (§5.2: recovery time depends on
the number of files).  Extent maps are inline up to 4 extents with a chain
of indirect extent blocks beyond that.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..errors import CorruptionError, FSError
from ..params import BLOCK_SIZE, BLOCKS_PER_HUGEPAGE
from ..pm.device import PMDevice
from ..structures.extents import Extent, ExtentList, align_up

SUPERBLOCK_MAGIC = 0x57494E45        # "WINE"
INODE_SLOT_BYTES = 128
JOURNAL_BLOCKS_PER_CPU = 64          # 256KB journal per CPU
INODE_TABLE_BLOCKS_PER_CPU = 512     # 2MB => 16K inodes per CPU
INODES_PER_CPU = INODE_TABLE_BLOCKS_PER_CPU * BLOCK_SIZE // INODE_SLOT_BYTES
MAX_NAME = 36
INLINE_EXTENTS = 4
# indirect extent block: 8B next-chain pointer + (start,len) u32 pairs
EXTENTS_PER_INDIRECT = (BLOCK_SIZE - 8) // 8

_SB = struct.Struct("<IIIIQ")        # magic, ncpus, clean, version, total_blocks
_INODE_HEAD = struct.Struct("<BBHIQQQ")   # valid, flags, nlink, n_extents,
                                          # size, parent_ino, indirect_block
_EXT = struct.Struct("<II")               # start, length
#: one Struct per inline-extent count, so n extents pack in a single call
_INLINE_PACKERS = [struct.Struct("<" + "II" * n)
                   for n in range(INLINE_EXTENTS + 1)]
# pre-bound pack_into methods for the per-update serialize path: skips
# one attribute dispatch per call on the hottest aging function
_HEAD_PACK_INTO = _INODE_HEAD.pack_into
_INLINE_PACK_INTO = tuple(s.pack_into for s in _INLINE_PACKERS)

FLAG_DIR = 0x1
FLAG_ALIGNED_HINT = 0x2


@dataclass(frozen=True)
class Layout:
    """Computed block addresses for one formatted WineFS partition."""

    num_cpus: int
    total_blocks: int

    @property
    def superblock_block(self) -> int:
        return 0

    def journal_start(self, cpu: int) -> int:
        return 1 + cpu * JOURNAL_BLOCKS_PER_CPU

    @property
    def journal_blocks(self) -> int:
        return JOURNAL_BLOCKS_PER_CPU

    @property
    def inodes_per_cpu(self) -> int:
        return INODES_PER_CPU

    @property
    def meta_end_block(self) -> int:
        """First block after all metadata regions."""
        return 1 + self.num_cpus * (JOURNAL_BLOCKS_PER_CPU
                                    + INODE_TABLE_BLOCKS_PER_CPU)

    @property
    def data_start_block(self) -> int:
        """Data area starts at the next hugepage boundary (so pools begin
        aligned and metadata never splits an aligned extent)."""
        return align_up(self.meta_end_block)

    @property
    def data_blocks(self) -> range:
        """Every block an extent or an indirect block may name."""
        return range(self.data_start_block, self.total_blocks)

    def data_pool_range(self, cpu: int) -> Tuple[int, int]:
        """(start, length) in blocks of one CPU's data pool, 2MB-aligned."""
        data_blocks = self.total_blocks - self.data_start_block
        huge_chunks = data_blocks // BLOCKS_PER_HUGEPAGE
        per_cpu = huge_chunks // self.num_cpus
        start = self.data_start_block + cpu * per_cpu * BLOCKS_PER_HUGEPAGE
        if cpu == self.num_cpus - 1:
            end = self.data_start_block + huge_chunks * BLOCKS_PER_HUGEPAGE
        else:
            end = start + per_cpu * BLOCKS_PER_HUGEPAGE
        return start, end - start

    # -- inode addressing ---------------------------------------------------------

    def cpu_of_ino(self, ino: int) -> int:
        return (ino - 1) // INODES_PER_CPU

    def first_ino(self, cpu: int) -> int:
        return cpu * INODES_PER_CPU + 1

    def inode_addr(self, ino: int) -> int:
        """PM byte address of *ino*'s slot: its CPU's inode table follows
        the superblock, every CPU's journal and the lower CPUs' tables."""
        cpu = (ino - 1) // INODES_PER_CPU
        if cpu >= self.num_cpus:
            raise FSError(f"ino {ino} outside inode tables")
        return ((1 + self.num_cpus * JOURNAL_BLOCKS_PER_CPU
                 + cpu * INODE_TABLE_BLOCKS_PER_CPU) * BLOCK_SIZE
                + (ino - 1) % INODES_PER_CPU * INODE_SLOT_BYTES)


# -- superblock ---------------------------------------------------------------------


def write_superblock(device: PMDevice, layout: Layout, clean: bool) -> None:
    raw = _SB.pack(SUPERBLOCK_MAGIC, layout.num_cpus, 1 if clean else 0, 1,
                   layout.total_blocks)
    device.persist(layout.superblock_block * BLOCK_SIZE, raw)


def read_superblock(device: PMDevice) -> Tuple[Layout, bool]:
    raw = device.load(0, _SB.size)
    magic, ncpus, clean, _version, total_blocks = _SB.unpack(raw)
    if magic != SUPERBLOCK_MAGIC:
        raise CorruptionError("bad WineFS superblock magic")
    if ncpus < 1 or total_blocks <= 0:
        raise CorruptionError("implausible superblock fields")
    return Layout(num_cpus=ncpus, total_blocks=total_blocks), bool(clean)


# -- inode records ---------------------------------------------------------------------


@dataclass
class InodeRecord:
    """The on-PM image of one inode."""

    ino: int
    valid: bool
    is_dir: bool
    aligned_hint: bool
    nlink: int
    size: int
    parent_ino: int
    name: str
    extents: List[Extent]

    def to_inode(self):
        from ..fs.common.inode import _GENERATION, Inode
        # a recovered inode is a new live object: a fresh generation
        # keeps its lock name apart from every inode freed before
        inode = Inode(ino=self.ino, is_dir=self.is_dir, size=self.size,
                      nlink=self.nlink, extents=ExtentList(self.extents),
                      gen=_GENERATION.take())
        inode.aligned_hint = self.aligned_hint
        return inode


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


class InodePacker:
    """:func:`pack_inode` specialized for the serialize-on-every-update
    path: keeps one preallocated slot buffer per inode and rewrites only
    the regions that changed since the last pack.

    The head is re-packed in place every call (size/nlink change often);
    the inline-extent region is rewritten only when the identity-cached
    extent tuple (:meth:`ExtentList.as_tuple`) changes, the name field
    only when the name string changes.  No per-call allocation, no
    concatenation, no trailing-pad copy — the returned buffer is always
    the full slot.  Output is byte-identical to :func:`pack_inode` of
    the equivalent record.

    The returned ``bytearray`` is reused by the next ``pack`` of the
    same inode: callers must consume it immediately (the device's sparse
    store copies it on write).  Entries must be dropped when an inode is
    freed (ino numbers are reused).
    """

    __slots__ = ("_slots",)

    _INLINE_OFF = _INODE_HEAD.size
    _NAME_OFF = _INODE_HEAD.size + INLINE_EXTENTS * _EXT.size

    def __init__(self) -> None:
        # ino -> [slot bytearray, extents tuple, n_inline_bytes,
        #         name str, name_end]
        self._slots: dict = {}

    def drop(self, ino: int) -> None:
        self._slots.pop(ino, None)

    def pack(self, inode, extents: tuple, indirect_block: int) -> bytearray:
        entry = self._slots.get(inode.ino)
        if entry is None:
            entry = [bytearray(INODE_SLOT_BYTES), None, 0, None, 0]
            self._slots[inode.ino] = entry
        buf = entry[0]
        flags = (FLAG_DIR if inode.is_dir else 0) | \
                (FLAG_ALIGNED_HINT if inode.aligned_hint else 0)
        _HEAD_PACK_INTO(buf, 0, 1, flags, inode.nlink, len(extents),
                        inode.size, inode.parent_ino, indirect_block)
        if entry[1] is not extents:
            flat = []
            for e in extents[:INLINE_EXTENTS]:
                flat.append(e.start)
                flat.append(e.length)
            off = self._INLINE_OFF
            _INLINE_PACK_INTO[len(flat) // 2](buf, off, *flat)
            used = len(flat) * 4
            if used < entry[2]:
                # fewer inline extents than last time: zero the stale tail
                buf[off + used:off + entry[2]] = bytes(entry[2] - used)
            entry[1] = extents
            entry[2] = used
        name = inode.name
        if entry[3] is not name:
            name_bytes = name.encode()
            if len(name_bytes) > MAX_NAME:
                raise FSError(f"name too long for inode slot: {name!r}")
            off = self._NAME_OFF
            buf[off] = len(name_bytes)
            end = off + 1 + len(name_bytes)
            buf[off + 1:end] = name_bytes
            if end < entry[4]:
                buf[end:entry[4]] = bytes(entry[4] - end)
            entry[3] = name
            entry[4] = end
        return buf


def walk_chain(ino: int, head: int, data_blocks: range,
               load) -> Iterator[Tuple[int, bytes]]:
    """``(block, load(block))`` along an inode's on-PM indirect chain.

    The chain starts at the slot's *head* pointer; each block's first 8
    bytes name the next one (0 ends it).  Every pointer must name a block
    of *data_blocks* not yet on the chain before it is loaded, so a
    corrupt image fails closed in bounded time instead of reading past
    the device or cycling forever.
    """
    seen = set()
    block = head
    while block:
        if block not in data_blocks:
            raise CorruptionError(f"inode {ino}: indirect block "
                                  f"{block} outside the data area")
        if block in seen:
            raise CorruptionError(f"inode {ino}: indirect chain "
                                  f"revisits block {block}")
        seen.add(block)
        blob = load(block)
        yield block, blob
        block = struct.unpack_from("<Q", blob, 0)[0]


def unpack_inode(ino: int, raw: bytes, read_indirect,
                 data_blocks: range) -> Optional[InodeRecord]:
    """Parse a slot; *read_indirect(block) -> bytes* loads chain blocks,
    which :func:`walk_chain` bounds to *data_blocks*.

    Returns None for empty/invalid slots; raises CorruptionError on
    garbage that claims to be valid.
    """
    if len(raw) != INODE_SLOT_BYTES:
        raise CorruptionError(f"inode slot wrong size: {len(raw)}")
    valid, flags, nlink, n_extents, size, parent_ino, indirect = \
        _INODE_HEAD.unpack(raw[:_INODE_HEAD.size])
    if not valid:
        return None
    if valid != 1 or size < 0:
        raise CorruptionError(f"corrupt inode {ino}")
    pos = _INODE_HEAD.size
    extents: List[Extent] = []
    for i in range(min(n_extents, INLINE_EXTENTS)):
        start, length = _EXT.unpack(raw[pos + i * 8: pos + i * 8 + 8])
        if length == 0:
            raise CorruptionError(f"inode {ino}: zero-length extent")
        extents.append(Extent(start, length))
    pos += INLINE_EXTENTS * _EXT.size
    name_len = raw[pos]
    if name_len > MAX_NAME:
        raise CorruptionError(f"inode {ino}: bad name length {name_len}")
    name = raw[pos + 1: pos + 1 + name_len].decode(errors="strict")
    remaining = n_extents - len(extents)
    if remaining:
        for _block, blob in walk_chain(ino, indirect, data_blocks,
                                       read_indirect):
            count = min(remaining, EXTENTS_PER_INDIRECT)
            for i in range(count):
                start, length = _EXT.unpack_from(blob, 8 + i * 8)
                if length == 0:
                    raise CorruptionError(
                        f"inode {ino}: zero-length extent")
                extents.append(Extent(start, length))
            remaining -= count
            if not remaining:
                break
        else:
            raise CorruptionError(f"inode {ino}: extent chain truncated")
    return InodeRecord(ino=ino, valid=True, is_dir=bool(flags & FLAG_DIR),
                       aligned_hint=bool(flags & FLAG_ALIGNED_HINT),
                       nlink=nlink, size=size, parent_ino=parent_ino,
                       name=name, extents=extents)


def pack_indirect(next_block: int, extents: List[Extent]) -> bytes:
    if len(extents) > EXTENTS_PER_INDIRECT:
        raise FSError("too many extents for one indirect block")
    body = struct.pack("<Q", next_block) + \
        b"".join(_EXT.pack(e.start, e.length) for e in extents)
    return body.ljust(BLOCK_SIZE, b"\x00")
