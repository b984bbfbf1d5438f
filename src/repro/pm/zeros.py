"""Zero-filled payloads that never materialize the bytes.

Cost-only (``track_data=False``) file systems and mappings charge a write
by its length and never store its payload, so zero writes there
(``write_zeros``, ``pwrite_zeros``, ``append_zeros``, aging overwrite
churn) carry a :class:`Zeros` stand-in through their write paths
(`len()`, slicing and truthiness behave like a real ``bytes`` object)
and multi-megabyte throwaway buffers are never allocated.  A ``Zeros``
never reaches the PM device, which stores ``bytes`` and ``bytearray``
only; ``track_data`` paths write :func:`zero_bytes` instead.
"""

from __future__ import annotations

from functools import lru_cache


class Zeros:
    """A length-only stand-in for ``b"\\x00" * length``."""

    __slots__ = ("length",)

    def __init__(self, length: int) -> None:
        if length < 0:
            raise ValueError(f"negative Zeros length: {length}")
        self.length = length

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __bytes__(self) -> bytes:
        return bytes(self.length)

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.length)
            if step != 1:
                raise ValueError("Zeros slices must be contiguous")
            return Zeros(max(0, stop - start))
        if -self.length <= key < self.length:
            return 0
        raise IndexError("Zeros index out of range")

    def __eq__(self, other) -> bool:
        if isinstance(other, Zeros):
            return self.length == other.length
        if isinstance(other, (bytes, bytearray)):
            return len(other) == self.length and not any(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Zeros({self.length})"


@lru_cache(maxsize=8)
def zero_bytes(length: int) -> bytes:
    """A shared immutable zero buffer (for read paths that must return
    real ``bytes``); cached so hot loops reuse one allocation."""
    return bytes(length)
