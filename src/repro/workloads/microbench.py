"""Read/write microbenchmarks (Figs 1 and 6).

Two access modes:

* **mmap** (§5.3, Fig 6a): memory-map one large file and ``memcpy`` in
  sequential or random order.  Hugepage mappability of the file drives the
  fault count and therefore the bandwidth — the whole point of the paper.
* **POSIX** (Fig 6b/c): 4KB ``read``/``write`` system calls, sequential or
  random, "with a fsync() after every 10 operations".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clock import SimContext
from ..params import KIB, MIB
from ..rng import make_rng
from ..structures.stats import throughput_mb_s
from ..vfs.interface import FileSystem


@dataclass
class MicrobenchResult:
    fs_name: str
    mode: str            # "mmap" or "posix"
    pattern: str         # "seq-write", "rand-read", ...
    bytes_moved: int
    elapsed_ns: float
    page_faults_4k: int = 0
    page_faults_2m: int = 0
    tlb_misses: int = 0
    fault_ns: float = 0.0

    @property
    def throughput_mb_s(self) -> float:
        return throughput_mb_s(self.bytes_moved, self.elapsed_ns)

    @property
    def fault_time_fraction(self) -> float:
        return self.fault_ns / self.elapsed_ns if self.elapsed_ns else 0.0


def mmap_rw_benchmark(fs: FileSystem, ctx: SimContext, *,
                      file_size: int = 256 * MIB,
                      io_size: int = 2 * MIB,
                      total_bytes: int = 0,
                      pattern: str = "seq-write",
                      path: str = "/mmapbench",
                      seed: int = 0,
                      create: str = "populate") -> MicrobenchResult:
    """Create (or reuse) one large file, mmap it, and memcpy over it.

    ``create`` selects how the file comes to exist (all untimed):

    * ``"populate"`` (default, the §5.3 setup): written once with large
      appends, so it is part of the utilized capacity and no file system
      zeroes pages at fault time;
    * ``"fallocate"``: one large allocation, unwritten (PM pool style);
    * ``"ftruncate"``: sparse, demand-allocated at fault time (LMDB
      style).

    Faults for the *mapping* still happen in the measured critical path,
    as in Fig 1/6a.
    """
    if pattern not in ("seq-write", "rand-write", "seq-read", "rand-read"):
        raise ValueError(f"unknown pattern {pattern}")
    if create not in ("populate", "fallocate", "ftruncate"):
        raise ValueError(f"unknown create mode {create}")
    if total_bytes <= 0:
        total_bytes = file_size
    if not fs.exists(path):
        f = fs.create(path, ctx)
        if create == "fallocate":
            f.fallocate(0, file_size, ctx)
        elif create == "ftruncate":
            f.ftruncate(file_size, ctx)
        else:
            chunk_size = 4 * MIB
            pos = 0
            while pos < file_size:
                take = min(chunk_size, file_size - pos)
                f.append_zeros(take, ctx)
                pos += take
            f.fsync(ctx)
    else:
        f = fs.open(path, ctx)
    region = f.mmap(ctx, length=file_size)
    rng = make_rng(seed)
    writing = pattern.endswith("write")
    sequential = pattern.startswith("seq")
    chunks = max(1, total_bytes // io_size)
    payload = b"\xab" * io_size if writing and fs.track_data else b""

    start_ns = ctx.now
    c0_f4, c0_f2 = ctx.counters.page_faults_4k, ctx.counters.page_faults_2m
    c0_tlb, c0_fns = ctx.counters.tlb_misses, ctx.counters.fault_ns
    offset = 0
    span = file_size - io_size
    for i in range(chunks):
        if sequential:
            offset = (i * io_size) % (span + 1 if span else 1)
        else:
            offset = rng.randrange(0, span + 1) if span else 0
        if writing:
            if fs.track_data:
                region.write(offset, payload, ctx)
            else:
                region.write_zeros(offset, io_size, ctx)
        else:
            region.read(offset, io_size, ctx)
    region.unmap()
    return MicrobenchResult(
        fs_name=fs.name, mode="mmap", pattern=pattern,
        bytes_moved=chunks * io_size,
        elapsed_ns=ctx.now - start_ns,
        page_faults_4k=ctx.counters.page_faults_4k - c0_f4,
        page_faults_2m=ctx.counters.page_faults_2m - c0_f2,
        tlb_misses=ctx.counters.tlb_misses - c0_tlb,
        fault_ns=ctx.counters.fault_ns - c0_fns,
    )


def posix_rw_benchmark(fs: FileSystem, ctx: SimContext, *,
                       file_size: int = 64 * MIB,
                       io_size: int = 4 * KIB,
                       total_bytes: int = 0,
                       pattern: str = "seq-write",
                       path: str = "/posixbench",
                       fsync_every: int = 10,
                       seed: int = 0) -> MicrobenchResult:
    """4KB syscalls; fsync every *fsync_every* ops (paper Fig 6 setup).

    Write patterns start from an appended file and overwrite in place, as
    §5.3 describes ("We start with an empty file and append data at 4KB
    granularity ... perform reads and in-place writes at 4KB
    granularities").
    """
    if pattern not in ("seq-write", "rand-write", "seq-read", "rand-read",
                       "append"):
        raise ValueError(f"unknown pattern {pattern}")
    if total_bytes <= 0:
        total_bytes = file_size
    rng = make_rng(seed)
    ops = max(1, total_bytes // io_size)
    payload = b"\xcd" * io_size

    if pattern == "append":
        f = fs.create(path, ctx) if not fs.exists(path) else fs.open(path, ctx)
        start_ns = ctx.now
        for i in range(ops):
            f.append(payload, ctx)
            if fsync_every and (i + 1) % fsync_every == 0:
                f.fsync(ctx)
        f.fsync(ctx)
        return MicrobenchResult(fs_name=fs.name, mode="posix",
                                pattern=pattern, bytes_moved=ops * io_size,
                                elapsed_ns=ctx.now - start_ns)

    # pre-populate by appending (not timed)
    if not fs.exists(path):
        f = fs.create(path, ctx)
        chunk = 256 * KIB
        pos = 0
        while pos < file_size:
            f.append_zeros(min(chunk, file_size - pos), ctx)
            pos += chunk
        f.fsync(ctx)
    else:
        f = fs.open(path, ctx)

    writing = pattern.endswith("write")
    sequential = pattern.startswith("seq")
    nblocks = file_size // io_size
    start_ns = ctx.now
    for i in range(ops):
        block = (i % nblocks) if sequential else rng.randrange(nblocks)
        offset = block * io_size
        if writing:
            f.pwrite(offset, payload, ctx)
            if fsync_every and (i + 1) % fsync_every == 0:
                f.fsync(ctx)
        else:
            f.pread(offset, io_size, ctx)
    if writing:
        f.fsync(ctx)
    return MicrobenchResult(fs_name=fs.name, mode="posix", pattern=pattern,
                            bytes_moved=ops * io_size,
                            elapsed_ns=ctx.now - start_ns)
