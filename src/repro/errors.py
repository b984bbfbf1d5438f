"""Exception hierarchy for the repro library.

File-system errors mirror POSIX errno semantics so workloads and tests can
assert on specific failure modes across all seven simulated file systems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SimulationError(ReproError):
    """The simulation itself was misused (bad clock, negative hold time, ...)."""


class PMError(ReproError):
    """Persistent-memory device errors (out-of-range access, bad flush)."""


class ObservabilityError(ReproError):
    """Misuse of the metrics/tracing layer (kind conflict, label blow-up)."""


class FSError(ReproError):
    """Base class for file-system errors; carries a POSIX errno name."""

    errno_name = "EIO"


class NoSpaceError(FSError):
    """ENOSPC: the allocator could not satisfy the request."""

    errno_name = "ENOSPC"


class NotFoundError(FSError):
    """ENOENT: path or inode does not exist."""

    errno_name = "ENOENT"


class ExistsError(FSError):
    """EEXIST: path already exists."""

    errno_name = "EEXIST"


class NotADirectoryError_(FSError):
    """ENOTDIR: path component is not a directory."""

    errno_name = "ENOTDIR"


class IsADirectoryError_(FSError):
    """EISDIR: operation requires a regular file."""

    errno_name = "EISDIR"


class NotEmptyError(FSError):
    """ENOTEMPTY: directory not empty."""

    errno_name = "ENOTEMPTY"


class BadFileError(FSError):
    """EBADF: stale or closed file handle."""

    errno_name = "EBADF"


class InvalidArgumentError(FSError):
    """EINVAL: malformed argument (negative offset, bad mode, ...)."""

    errno_name = "EINVAL"


class ReadOnlyError(FSError):
    """EROFS: the file system is mounted read-only (e.g. mid-recovery)."""

    errno_name = "EROFS"


class BusyError(FSError):
    """EAGAIN: the service is saturated; retry later.

    Raised by the :mod:`repro.serve` multiplexer when a backend's
    admission queue is full — the loss-based backpressure signal that
    burns the service SLO error budget instead of growing latency."""

    errno_name = "EAGAIN"


class NotMountedError(FSError):
    """The file system has been unmounted or crashed; remount first."""

    errno_name = "ENODEV"


class CorruptionError(FSError):
    """Recovery or a checker detected an inconsistent on-PM state."""

    errno_name = "EUCLEAN"


class ChecksumError(CorruptionError):
    """A per-record checksum did not match (torn or corrupted record)."""

    errno_name = "EUCLEAN"


class MediaError(FSError):
    """EIO: an uncorrectable PM media error (poisoned cacheline).

    Raised by :class:`~repro.pm.device.PMDevice` when a load touches a
    poisoned line, and surfaced by the file systems as ``EIO`` instead of
    crashing — the degradation ladder in DESIGN.md starts here.
    """

    errno_name = "EIO"
