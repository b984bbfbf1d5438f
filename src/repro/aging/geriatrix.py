"""The aging engine (Geriatrix-style).

Two phases, following the tool the paper uses (§5.1):

1. **fill** — create files with profile-drawn sizes until the target
   utilization is reached;
2. **churn** — cycles of create/delete/update between a high and a low
   watermark until the requested write volume has passed through the
   allocator (the paper's "165TB of write activity", scaled).

Two details make the churn fragment like real aging:

* **interleaved creation streams**: several files grow concurrently, one
  2MB extension at a time, so neighbouring allocations belong to
  different files (real systems always have concurrent writers).  When
  files later die, the survivors pepper the free space.
* **in-place updates** on a slice of the volume, which relocate blocks on
  CoW/log-structured designs (§2.3: aging is "file creations, deletions
  and updates").

Files are allocated via ``fallocate`` on ``track_data=False`` file systems
so aging by tens of partition-volumes stays fast — fragmentation depends
only on the allocator, never on file contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..clock import SimContext
from ..errors import FSError, NoSpaceError
from ..params import MIB
from ..rng import make_rng
from ..vfs.interface import FileSystem
from .profiles import AgingProfile

#: one file-growth step; 2MB keeps large files hugepage-eligible on every
#: file system (Geriatrix extends files with large writes)
_GROW_CHUNK = 2 * MIB
#: every churn cycle may overwrite this share of the *whole* churn volume,
#: over 50: a fixed budget, so more churn spends more of it on overwrites
_OVERWRITE_FRACTION = 0.4


@dataclass
class AgingResult:
    """What the ager did and where it left the file system."""

    files_created: int = 0
    files_deleted: int = 0
    bytes_written: int = 0
    bytes_deleted: int = 0
    final_utilization: float = 0.0
    failed_allocations: int = 0
    live_files: int = 0


class _Stream:
    """One in-progress file creation."""

    __slots__ = ("path", "handle", "target", "written")

    def __init__(self, path: str, handle, target: int) -> None:
        self.path = path
        self.handle = handle
        self.target = target
        self.written = 0


class Geriatrix:
    """Ages one mounted file system.

    Parameters
    ----------
    fs:
        The mounted file system to age.
    profile:
        File-size distribution.
    target_utilization:
        Fraction of data blocks live when aging finishes (the paper uses
        0.75 for the application experiments, sweeps for Fig 1/3).
    seed:
        Deterministic RNG seed.
    concurrency:
        How many files grow simultaneously (interleaving degree).
    """

    def __init__(self, fs: FileSystem, profile: AgingProfile,
                 target_utilization: float, seed: int = 0,
                 max_file_bytes: Optional[int] = None,
                 concurrency: int = 8) -> None:
        if not 0.0 < target_utilization < 1.0:
            raise ValueError("target utilization must be in (0, 1)")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.fs = fs
        self.profile = profile
        self.target = target_utilization
        self.rng = make_rng(seed)
        self.concurrency = concurrency
        stats = fs.statfs()
        partition = stats.total_blocks * stats.block_size
        # a single file never exceeds ~1/32 of the partition, so scaled-down
        # partitions keep the paper's many-files dynamics
        self.max_file_bytes = max_file_bytes if max_file_bytes is not None \
            else max(partition // 32, 4 * MIB)
        self._files: List[str] = []      # finalized aging files
        self._sizes: dict = {}
        self._streams: List[_Stream] = []
        self._counter = 0
        self._dir_counter = 0
        self._cur_dir: Optional[str] = None
        self._dir_population = 0

    # -- helpers ---------------------------------------------------------------

    def _utilization(self) -> float:
        return self.fs.utilization()

    def _next_dir(self, ctx: SimContext) -> str:
        if self._cur_dir is None or \
                self._dir_population >= self.profile.dir_fanout:
            self._dir_counter += 1
            self._cur_dir = f"/aging{self._dir_counter}"
            self.fs.mkdir(self._cur_dir, ctx)
            self._dir_population = 0
        self._dir_population += 1
        return self._cur_dir

    def _step_create(self, ctx: SimContext, result: AgingResult) -> int:
        """Advance interleaved creation by one chunk; returns bytes
        allocated (0 on allocation failure)."""
        if len(self._streams) < self.concurrency:
            size = min(self.profile.sample_size(self.rng),
                       self.max_file_bytes)
            self._counter += 1
            path = f"{self._next_dir(ctx)}/f{self._counter}"
            handle = self.fs.create(path, ctx)
            self._streams.append(_Stream(path, handle, size))
        idx = self.rng.randrange(len(self._streams))
        stream = self._streams[idx]
        take = min(_GROW_CHUNK, stream.target - stream.written)
        try:
            stream.handle.fallocate(stream.written, take, ctx)
        except NoSpaceError:
            result.failed_allocations += 1
            self._retire_stream(idx, result)
            return 0
        stream.written += take
        result.bytes_written += take
        if stream.written >= stream.target:
            self._retire_stream(idx, result)
        return take

    def _retire_stream(self, idx: int, result: AgingResult) -> None:
        stream = self._streams[idx]
        self._streams[idx] = self._streams[-1]
        self._streams.pop()
        stream.handle.close()
        if stream.written > 0:
            self._files.append(stream.path)
            self._sizes[stream.path] = stream.written
            result.files_created += 1

    def _flush_streams(self, result: AgingResult) -> None:
        while self._streams:
            self._retire_stream(0, result)

    def _delete_one(self, ctx: SimContext, result: AgingResult) -> None:
        if not self._files:
            return
        idx = self.rng.randrange(len(self._files))
        path = self._files[idx]
        self._files[idx] = self._files[-1]
        self._files.pop()
        self.fs.unlink(path, ctx)
        result.files_deleted += 1
        result.bytes_deleted += self._sizes.pop(path, 0)

    # -- phases -----------------------------------------------------------------

    def fill(self, ctx: SimContext, result: Optional[AgingResult] = None
             ) -> AgingResult:
        """Create files until the target utilization is reached."""
        result = result if result is not None else AgingResult()
        misses = 0
        while self._utilization() < self.target and misses < 50:
            if self._step_create(ctx, result) == 0:
                misses += 1
        self._flush_streams(result)
        result.final_utilization = self._utilization()
        result.live_files = len(self._files)
        return result

    def churn(self, ctx: SimContext, write_volume: int,
              result: Optional[AgingResult] = None) -> AgingResult:
        """Age by *write_volume* bytes of create/delete/update churn."""
        result = result if result is not None else AgingResult()
        high = min(self.target + 0.03, 0.93)
        low = max(self.target - 0.12, 0.05)
        written = 0
        stall = 0
        while written < write_volume and stall < 20:
            misses = 0
            progress = False
            while self._utilization() < high and misses < 10:
                got = self._step_create(ctx, result)
                if got:
                    written += got
                    progress = True
                else:
                    misses += 1
            written += self._overwrite_some(
                ctx, result, int(write_volume * _OVERWRITE_FRACTION / 50))
            while self._files and self._utilization() > low:
                self._delete_one(ctx, result)
                progress = True
            stall = 0 if progress else stall + 1
        self._flush_streams(result)
        # settle at the target utilization for the measurement phase,
        # ending on a *drain*: an aged file system's free space is what
        # deletions left behind, not a freshly written burst
        misses = 0
        while self._utilization() < high and misses < 10:
            if self._step_create(ctx, result) == 0:
                misses += 1
        self._flush_streams(result)
        while self._files and self._utilization() > self.target:
            self._delete_one(ctx, result)
        result.final_utilization = self._utilization()
        result.live_files = len(self._files)
        return result

    def _overwrite_some(self, ctx: SimContext, result: AgingResult,
                        budget: int) -> int:
        """Rewrite random ranges of random live files; returns bytes."""
        written = 0
        while written < budget and self._files:
            path = self._files[self.rng.randrange(len(self._files))]
            size = self._sizes.get(path, 0)
            if size < 4096:
                written += 4096   # skip tiny files but make progress
                continue
            length = min(size, 1 << self.rng.randrange(12, 21))  # 4KB..1MB
            offset = self.rng.randrange(0, max(1, size - length))
            try:
                f = self.fs.open(path, ctx)
            except FSError:
                written += length   # skipped, but progress: never spins
                continue
            f.pwrite_zeros(offset, length, ctx)
            f.close()
            written += length
            result.bytes_written += length
        return written

    def age(self, ctx: SimContext, write_volume: int) -> AgingResult:
        """fill + churn in one call."""
        result = AgingResult()
        self.fill(ctx, result)
        self.churn(ctx, write_volume, result)
        return result
