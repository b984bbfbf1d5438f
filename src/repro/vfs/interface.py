"""The VFS layer: open-file handles and the ``FileSystem`` base of every
simulated file system.

The API is the subset of POSIX the paper's workloads exercise (Table 1 and
§5): create/open/read/write/append/fsync/unlink/rename/mkdir/readdir/
truncate/fallocate plus ``mmap``.  Every call takes a
:class:`~repro.clock.SimContext` identifying the virtual CPU that issues it
and accumulating its cost, and charges the syscall crossing cost up front
(§2.1: trapping into the kernel dominates small PM operations).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from ..clock import SimContext
from ..errors import (BadFileError, FSError, InvalidArgumentError,
                      NotMountedError, ReadOnlyError)
from ..mmu.mmap_region import MappedRegion
from ..params import MachineParams
from ..pm.device import PMDevice


@dataclass(frozen=True)
class StatResult:
    """Subset of ``struct stat`` the workloads need."""

    ino: int
    size: int
    blocks: int            # allocated blocks (may exceed size/block_size)
    is_dir: bool
    nlink: int = 1


@dataclass
class FSStats:
    """Aggregate file-system statistics (statfs + repro extras)."""

    total_blocks: int
    free_blocks: int
    block_size: int
    files: int
    # fragmentation metrics (Fig 3)
    free_aligned_hugepages: int = 0
    free_space_aligned_fraction: float = 0.0

    @property
    def utilization(self) -> float:
        return 1.0 - self.free_blocks / self.total_blocks


class OpenFile:
    """An open file descriptor: a (filesystem, inode number, offset) triple."""

    def __init__(self, fs: "FileSystem", ino: int, path: str) -> None:
        self.fs = fs
        self.ino = ino
        self.path = path
        self.offset = 0
        self.closed = False

    def _check(self) -> None:
        if self.closed:
            raise BadFileError(f"fd for {self.path} is closed")

    def read(self, size: int, ctx: SimContext) -> bytes:
        self._check()
        data = self.fs.read(self.ino, self.offset, size, ctx)
        self.offset += len(data)
        return data

    def pread(self, offset: int, size: int, ctx: SimContext) -> bytes:
        self._check()
        return self.fs.read(self.ino, offset, size, ctx)

    def write(self, data: bytes, ctx: SimContext) -> int:
        self._check()
        n = self.fs.write(self.ino, self.offset, data, ctx)
        self.offset += n
        return n

    def pwrite(self, offset: int, data: bytes, ctx: SimContext) -> int:
        self._check()
        return self.fs.write(self.ino, offset, data, ctx)

    def pwrite_zeros(self, offset: int, length: int, ctx: SimContext) -> int:
        """Write ``length`` zero bytes at ``offset`` without materializing
        the buffer (same cost and semantics as ``pwrite`` of zeros)."""
        self._check()
        return self.fs.write_zeros(self.ino, offset, length, ctx)

    def append(self, data: bytes, ctx: SimContext) -> int:
        self._check()
        size = self.fs.getattr_ino(self.ino).size
        n = self.fs.write(self.ino, size, data, ctx)
        self.offset = size + n
        return n

    def append_zeros(self, length: int, ctx: SimContext) -> int:
        self._check()
        size = self.fs.getattr_ino(self.ino).size
        n = self.fs.write_zeros(self.ino, size, length, ctx)
        self.offset = size + n
        return n

    def fsync(self, ctx: SimContext) -> None:
        self._check()
        self.fs.fsync(self.ino, ctx)

    def ftruncate(self, size: int, ctx: SimContext) -> None:
        self._check()
        self.fs.truncate(self.ino, size, ctx)

    def fallocate(self, offset: int, size: int, ctx: SimContext) -> None:
        self._check()
        self.fs.fallocate(self.ino, offset, size, ctx)

    def mmap(self, ctx: SimContext,
             length: Optional[int] = None) -> MappedRegion:
        self._check()
        return self.fs.mmap(self.ino, ctx, length=length)

    def close(self) -> None:
        self.closed = True


#: VFS entry points instrumented by :meth:`FileSystem.attach_telemetry`,
#: mapped to the positional index of the ``ctx`` argument in a call on
#: the *bound* method (``fs.create(path, ctx)`` -> index 1).  These are
#: exactly the operations whose latency an SLO covers; ``getattr`` is
#: excluded (its ctx is optional and it backs ``exists`` probes).
TELEMETRY_OPS = {
    "create": 1, "open": 1, "unlink": 1, "mkdir": 1, "rmdir": 1,
    "readdir": 1, "rename": 2, "fsync": 1, "mmap": 1,
    "truncate": 2, "read": 3, "write": 3, "write_zeros": 3,
    "fallocate": 3,
}


def _bumps_namespace_epoch(lifecycle_verb):
    """Wrap a ``mkfs``/``mount`` override so it starts a new epoch."""
    @functools.wraps(lifecycle_verb)
    def wrapper(self, *args, **kwargs):
        self.namespace_epoch += 1
        return lifecycle_verb(self, *args, **kwargs)
    return wrapper


class FileSystem:
    """What every simulated PM file system shares above its verbs:
    degradation, SLO telemetry wrapping, the syscall charge and the
    whole-file helpers.

    The verbs themselves (``mkfs`` … ``file_extents``) live in
    :class:`repro.fs.common.base.BaseFS`, which every model —
    :class:`repro.core.WineFS` and the baselines in :mod:`repro.fs` —
    subclasses.  Files are identified by paths for namespace ops and by
    inode number for data ops (handles carry the inode).
    """

    #: human-readable name used in result tables ("WineFS", "ext4-DAX", ...)
    name: str = "abstract"
    #: does this FS provide data (not just metadata) consistency by default?
    data_consistent: bool = False
    #: bumped by every ``mkfs``/``mount`` (never per op): the whole
    #: namespace may have been replaced, so user-space caches of it
    #: (the serve backend's id index) compare epochs and start over
    namespace_epoch: int = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for verb in ("mkfs", "mount"):
            if verb in cls.__dict__:
                setattr(cls, verb,
                        _bumps_namespace_epoch(cls.__dict__[verb]))

    def __init__(self, device: PMDevice, num_cpus: int) -> None:
        self.device = device
        self.machine: MachineParams = device.machine
        self.num_cpus = num_cpus
        self.mounted = False
        # degradation state: once corruption is detected (poisoned
        # metadata, unreadable journal records) the fs stays mounted but
        # refuses mutations — data that is still readable stays readable
        self.read_only = False
        self.degraded_reason: Optional[str] = None
        # SLO telemetry handle; None (the default) means the entry
        # points are the plain unwrapped methods — bit-identical-off
        self.telemetry = None

    def _check_mounted(self) -> None:
        if not self.mounted:
            raise NotMountedError(f"{self.name} is not mounted")

    def attach_fault_plan(self, plan) -> None:
        """Bind a :class:`~repro.faults.FaultPlan` to the device."""
        self.device.set_fault_plan(plan)

    def remount_read_only(self, reason: str, ctx: SimContext) -> None:
        """Degrade to read-only after detected corruption.

        Mirrors the kernel's ``errors=remount-ro`` behaviour: the first
        detection wins (the original reason is kept), reads keep working,
        and every mutating syscall fails with ``EROFS`` until a clean
        ``mkfs``/``mount`` cycle.  With telemetry attached the event
        opens a degraded interval at *ctx*'s simulated time; re-entry on
        an already-degraded mount is a no-op — no overwritten reason, no
        duplicate interval.
        """
        if self.read_only:
            return
        self.read_only = True
        self.degraded_reason = reason
        if self.telemetry is not None:
            self.telemetry.mark_degraded(self.name, reason, ctx.now)

    def clear_degraded(self, ctx: SimContext) -> None:
        """A clean repair (``mkfs``) heals degradation.

        Closes the open degraded interval on attached telemetry, which is
        what turns a degraded-to-repair window into an MTTR sample.
        """
        was_degraded = self.read_only
        self.read_only = False
        self.degraded_reason = None
        if was_degraded and self.telemetry is not None:
            self.telemetry.mark_recovered(self.name, ctx.now)

    # -- SLO telemetry ------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Record per-operation latency samples and surfaced errors.

        Wraps every :data:`TELEMETRY_OPS` entry point *on this instance*
        with a closure that reads the context's simulated clock before
        and after the call and feeds the delta to *telemetry* — the
        class methods are untouched, so an un-attached file system runs
        exactly the unwrapped code.  Recording never charges the clock:
        simulated results are identical with telemetry on or off.

        Attaching replaces any previous attachment (wrappers always
        close over the original class implementation, never stack).
        """
        self.detach_telemetry()
        self.telemetry = telemetry
        if telemetry is None:
            return
        for op, ctx_index in TELEMETRY_OPS.items():
            self._instrument_op(op, ctx_index, telemetry)

    def detach_telemetry(self) -> None:
        """Restore the plain class entry points."""
        for op in TELEMETRY_OPS:
            self.__dict__.pop(op, None)
        self.telemetry = None

    def _instrument_op(self, op: str, ctx_index: int, telemetry) -> None:
        inner = getattr(type(self), op).__get__(self)
        fs_label = self.name

        def wrapper(*args, **kwargs):
            ctx = args[ctx_index] if len(args) > ctx_index \
                else kwargs.get("ctx")
            if ctx is None:
                return inner(*args, **kwargs)
            clock, cpu = ctx.clock, ctx.cpu
            start = clock.now(cpu)
            try:
                result = inner(*args, **kwargs)
            except FSError as exc:
                telemetry.record_error(fs_label, op, exc.errno_name)
                raise
            telemetry.record_op(fs_label, op, clock.now(cpu) - start)
            return result

        wrapper.__wrapped__ = inner   # type: ignore[attr-defined]
        wrapper.__name__ = op         # type: ignore[attr-defined]
        self.__dict__[op] = wrapper

    def _check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyError(
                f"{self.name} is read-only: {self.degraded_reason}")

    def _syscall(self, ctx: SimContext) -> None:
        """Charge one kernel crossing."""
        # inlined ctx.charge (syscall_ns >= 0; a single add on the same
        # cell, so values are bit-identical)
        ctx.clock._cpu_ns[ctx.cpu] += self.machine.syscall_ns
        ctx.counters.syscalls += 1

    def exists(self, path: str) -> bool:
        """Does *path* resolve?  Uncharged (workload setup helpers)."""
        try:
            self.getattr(path)
            return True
        except FSError:
            return False

    # -- xattrs (WineFS alignment hints; others may raise) --------------------------------

    def setxattr(self, path: str, key: str, value: bytes, ctx: SimContext) -> None:
        raise InvalidArgumentError(f"{self.name} does not support xattrs")

    def getxattr(self, path: str, key: str, ctx: SimContext) -> bytes:
        raise InvalidArgumentError(f"{self.name} does not support xattrs")

    # -- whole files ------------------------------------------------------------------

    def write_file(self, path: str, data: bytes, ctx: SimContext,
                   chunk: int = 1 << 20) -> OpenFile:
        """Convenience: create+write+fsync a whole file (tests, aging)."""
        f = self.create(path, ctx)
        pos = 0
        while pos < len(data):
            f.pwrite(pos, data[pos:pos + chunk], ctx)
            pos += chunk
        f.fsync(ctx)
        return f

    def read_file(self, path: str, ctx: SimContext) -> bytes:
        f = self.open(path, ctx)
        size = self.getattr_ino(f.ino).size
        data = f.pread(0, size, ctx)
        f.close()
        return data
