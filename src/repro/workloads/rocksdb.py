"""RocksDB access-pattern model (memory-mapped reads and writes).

The paper runs RocksDB "configured to use memory-mapped reads and writes"
under YCSB (§5.4).  What shapes its I/O on a PM file system:

* a write-ahead log per memtable: sequential appends, fsync'd;
* SST files written at flush/compaction: large sequential writes into
  files created with big allocations, then memory-mapped for reads;
* reads: binary-search probes into memory-mapped SSTs — random
  ``memcpy`` reads whose cost depends on hugepage mappability of the SST
  files (the Table 2 page-fault counts).

The model keeps an in-DRAM index (key -> (sst file, offset)) and performs
the same file operations the engine would; it does not re-implement
compaction heuristics beyond size-triggered flush.  Keys are YCSB record
numbers (non-negative ints, dense, inserts extend the range), so the
index is one packed ``array('q')`` indexed by key rather than a dict of
tuples: 8 bytes a key instead of ~170.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..clock import SimContext
from ..errors import NotFoundError
from ..mmu.mmap_region import MappedRegion
from ..params import MIB
from ..vfs.interface import FileSystem


_WAL_REC_LEN = 72
#: one absent index entry; ``_ABSENT * n`` grows the index by n
_ABSENT = array("q", [-1])


@dataclass
class _SST:
    path: str
    ino: int
    region: Optional[MappedRegion]
    size: int


class RocksDBModel:
    """A RocksDB-shaped KV store over one simulated file system."""

    def __init__(self, fs: FileSystem, ctx: SimContext, *,
                 value_size: int = 1024,
                 memtable_bytes: int = 8 * MIB,
                 sst_bytes: int = 32 * MIB,
                 dir_path: str = "/rocksdb") -> None:
        if sst_bytes >= 1 << 32:
            raise ValueError(f"sst_bytes must fit an index entry's 32-bit "
                             f"offset: {sst_bytes}")
        self.fs = fs
        self.value_size = value_size
        self.memtable_bytes = memtable_bytes
        self.sst_bytes = sst_bytes
        self.dir = dir_path
        if not fs.exists(dir_path):
            fs.mkdir(dir_path, ctx)
        self._wal_seq = 0
        self._wal_path = f"{dir_path}/wal-0"
        self._wal_region, self._wal_file = self._open_wal(ctx)
        self._wal_fill = 0
        # built once and shared by every default put (bytes are immutable)
        self._value = b"v" * value_size
        self._wal_record = (b"#" if fs.track_data else b"\x00") * _WAL_REC_LEN
        self._memtable: Dict[int, bytes] = {}
        self._memtable_size = 0
        self._ssts: List[_SST] = []
        # key -> sst_idx << 32 | offset, -1 where absent; as long as the
        # largest flushed key + 1
        self._index = array("q")
        self._sst_fill = 0
        self._cur_sst: Optional[_SST] = None
        self.flushes = 0

    # -- write path -----------------------------------------------------------

    #: memtable/bloom/index work per op (calibrated to §5.4 gaps)
    APP_NS_PER_OP = 1200.0

    def _open_wal(self, ctx: SimContext):
        """The WAL is memory-mapped too ("memory-mapped reads and
        writes", §5.4): sized to hold one memtable's worth of records."""
        f = self.fs.create(self._wal_path, ctx)
        wal_bytes = max(self.memtable_bytes // 4, 1 << 20)
        f.fallocate(0, wal_bytes, ctx)
        return f.mmap(ctx, length=wal_bytes), f

    def put(self, key: int, ctx: SimContext,
            value: Optional[bytes] = None) -> None:
        if key < 0:
            raise ValueError(f"keys are record numbers, not {key}")
        ctx.charge(self.APP_NS_PER_OP)
        if value is None:
            value = self._value
        # WAL append through the mapping (sequential, 64B header+prefix)
        region, fill = self._wal_region, self._wal_fill
        if fill + _WAL_REC_LEN > region.length:
            fill = 0   # circular reuse within one memtable epoch
        region.write(fill, self._wal_record, ctx)
        self._wal_fill = fill + _WAL_REC_LEN
        self._memtable[key] = value
        self._memtable_size += len(value)
        if self._memtable_size >= self.memtable_bytes:
            self.flush(ctx)

    update = put

    def flush(self, ctx: SimContext) -> None:
        """Memtable -> SST: one large file write + mmap for later reads."""
        if not self._memtable:
            return
        sst = self._ensure_sst(ctx)
        records = sorted(self._memtable.items())
        index = self._index
        grow = records[-1][0] + 1 - len(index)
        if grow > 0:
            index.extend(_ABSENT * grow)
        for key, record in records:
            if self._sst_fill + len(record) > self.sst_bytes:
                sst = self._rotate_sst(ctx)
            sst.region.write(self._sst_fill, record, ctx)
            index[key] = (len(self._ssts) - 1) << 32 | self._sst_fill
            self._sst_fill += len(record)
        self._memtable.clear()
        self._memtable_size = 0
        self.flushes += 1
        # start a fresh WAL
        self._wal_seq += 1
        old = self._wal_path
        self._wal_region.unmap()
        self._wal_path = f"{self.dir}/wal-{self._wal_seq}"
        self._wal_region, self._wal_file = self._open_wal(ctx)
        self._wal_fill = 0
        self.fs.unlink(old, ctx)

    def _ensure_sst(self, ctx: SimContext) -> _SST:
        if self._cur_sst is None:
            self._cur_sst = self._new_sst(ctx)
        return self._cur_sst

    def _rotate_sst(self, ctx: SimContext) -> _SST:
        self._cur_sst = self._new_sst(ctx)
        self._sst_fill = 0
        return self._cur_sst

    def _new_sst(self, ctx: SimContext) -> _SST:
        path = f"{self.dir}/sst-{len(self._ssts)}"
        f = self.fs.create(path, ctx)
        f.fallocate(0, self.sst_bytes, ctx)   # large allocation request
        region = f.mmap(ctx, length=self.sst_bytes)
        sst = _SST(path=path, ino=f.ino, region=region, size=self.sst_bytes)
        self._ssts.append(sst)
        self._sst_fill = 0
        return sst

    # -- read path -------------------------------------------------------------

    def get(self, key: int, ctx: SimContext) -> bytes:
        ctx.charge(self.APP_NS_PER_OP)
        record = self._memtable.get(key)
        if record is not None:
            ctx.charge(180.0)   # skiplist probe in DRAM
            return record
        try:
            # a negative key must not wrap to the end of the array
            loc = self._index[key] if key >= 0 else -1
        except IndexError:      # past the largest flushed key
            loc = -1
        if loc < 0:
            raise NotFoundError(f"key {key}")
        sst = self._ssts[loc >> 32]
        assert sst.region is not None
        return sst.region.read(loc & 0xFFFFFFFF, self.value_size, ctx)

    def scan(self, key: int, count: int, ctx: SimContext) -> int:
        """Range scan (YCSB E): sequential reads from the containing SST."""
        found = 0
        k = key
        while found < count:
            try:
                self.get(k, ctx)
                found += 1
            except NotFoundError:
                break
            k += 1
        return found

    def close(self, ctx: SimContext) -> None:
        self.flush(ctx)
        for sst in self._ssts:
            if sst.region is not None:
                sst.region.unmap()
