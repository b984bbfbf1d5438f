"""Extent arithmetic.

An extent is a run of contiguous 4KB blocks, identified by its starting
block number and length in blocks.  Alignment throughout the library means
*hugepage alignment*: an extent can back a 2MB mapping only if it starts on
a 512-block boundary and covers at least 512 blocks (paper §2.2: "the
underlying file must be placed on 2MB aligned physical blocks and must not
be fragmented").
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from ..params import BLOCKS_PER_HUGEPAGE


def align_down(block: int, alignment: int = BLOCKS_PER_HUGEPAGE) -> int:
    return block - (block % alignment)


def align_up(block: int, alignment: int = BLOCKS_PER_HUGEPAGE) -> int:
    return (block + alignment - 1) // alignment * alignment


@dataclass(frozen=True, order=True)
class Extent:
    """A contiguous run of blocks: [start, start + length)."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length <= 0:
            raise ValueError(f"invalid extent ({self.start}, {self.length})")

    @property
    def end(self) -> int:
        """One past the last block."""
        return self.start + self.length

    def take(self, nblocks: int, from_end: bool = False) -> Tuple["Extent", "Extent | None"]:
        """Carve *nblocks* off this extent; returns (taken, remainder)."""
        if not 0 < nblocks <= self.length:
            raise ValueError(f"cannot take {nblocks} from {self}")
        if nblocks == self.length:
            return self, None
        if from_end:
            return (Extent(self.end - nblocks, nblocks),
                    Extent(self.start, self.length - nblocks))
        return (Extent(self.start, nblocks),
                Extent(self.start + nblocks, self.length - nblocks))

    def blocks(self) -> Iterator[int]:
        return iter(range(self.start, self.end))

    def __repr__(self) -> str:
        return f"Extent({self.start}, +{self.length})"


class ExtentList:
    """An ordered, non-overlapping list of extents (a file's block map).

    Supports append, truncate, lookup by logical block, and fragmentation
    metrics.  Logical order is list order: extent *i* holds the file's
    logical blocks after the extents before it.
    """

    def __init__(self, extents: Iterable[Extent] = ()) -> None:
        self._extents: List[Extent] = []
        #: lazy index: _starts[i] is the logical block where extent i
        #: begins; _total is the block count.  Both are built together on
        #: demand and dropped together by _invalidate().
        self._starts: Optional[List[int]] = None
        self._total: Optional[int] = None
        #: lazy immutable snapshot; identity answers "unchanged since?"
        self._tuple: Optional[Tuple[Extent, ...]] = None
        for ext in extents:
            self.append(ext)

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)

    def __getitem__(self, i: int) -> Extent:
        return self._extents[i]

    def _invalidate(self) -> None:
        self._starts = None
        self._total = None
        self._tuple = None

    def as_tuple(self) -> Tuple[Extent, ...]:
        """Immutable snapshot of the extents; cached until the list
        changes, so unchanged lists return the *same* object."""
        t = self._tuple
        if t is None:
            t = self._tuple = tuple(self._extents)
        return t

    def _index(self) -> List[int]:
        starts: List[int] = []
        acc = 0
        for e in self._extents:
            starts.append(acc)
            acc += e.length
        self._starts = starts
        self._total = acc
        return starts

    @property
    def total_blocks(self) -> int:
        if self._total is None:
            self._index()
        return self._total

    def append(self, extent: Extent) -> None:
        """Add an extent at the logical end, coalescing if contiguous."""
        if self._extents and self._extents[-1].end == extent.start:
            last = self._extents[-1]
            self._extents[-1] = Extent(last.start, last.length + extent.length)
            # same extent count, same logical starts: index stays valid
        else:
            if self._starts is not None:
                self._starts.append(self._total)
            self._extents.append(extent)
        if self._total is not None:
            self._total += extent.length
        self._tuple = None

    def physical_block(self, logical_block: int) -> int:
        """Map a logical file block to its physical block number."""
        starts = self._starts
        if starts is None:
            starts = self._index()
        i = bisect_right(starts, logical_block) - 1
        if i >= 0:
            ext = self._extents[i]
            within = logical_block - starts[i]
            if within < ext.length:
                return ext.start + within
        raise IndexError(f"logical block {logical_block} beyond file "
                         f"({self.total_blocks} blocks)")

    def slice_logical(self, logical_start: int, nblocks: int) -> List[Extent]:
        """Physical extents covering logical [logical_start, +nblocks)."""
        if nblocks <= 0:
            if nblocks == 0:
                return []
            raise IndexError("slice beyond end of file")
        starts = self._starts
        if starts is None:
            starts = self._index()
        i = bisect_right(starts, logical_start) - 1
        out: List[Extent] = []
        remaining = nblocks
        pos = logical_start
        if i >= 0:
            extents = self._extents
            nex = len(extents)
            while remaining > 0 and i < nex:
                ext = extents[i]
                within = pos - starts[i]
                if within >= ext.length:
                    break
                take = min(ext.length - within, remaining)
                out.append(Extent(ext.start + within, take))
                remaining -= take
                pos += take
                i += 1
        if remaining:
            raise IndexError("slice beyond end of file")
        return out

    def truncate_blocks(self, keep_blocks: int) -> List[Extent]:
        """Shrink to *keep_blocks*; returns the freed physical extents."""
        if keep_blocks >= self.total_blocks:
            return []
        freed: List[Extent] = []
        kept: List[Extent] = []
        remaining = keep_blocks
        for ext in self._extents:
            if remaining >= ext.length:
                kept.append(ext)
                remaining -= ext.length
            elif remaining > 0:
                head, tail = ext.take(remaining)
                kept.append(head)
                if tail is not None:
                    freed.append(tail)
                remaining = 0
            else:
                freed.append(ext)
        self._extents = kept
        self._invalidate()
        return freed

    def replace_logical(self, logical_start: int, new_extents: List[Extent]) -> List[Extent]:
        """Replace the physical blocks backing a logical range (CoW commit).

        Returns the old physical extents that were displaced.  The
        replacement must cover exactly ``sum(e.length for e in new_extents)``
        logical blocks starting at *logical_start*, all within the file.
        """
        nblocks = sum(e.length for e in new_extents)
        old = self.slice_logical(logical_start, nblocks)
        rebuilt = ExtentList()
        pos = 0
        for ext in self._extents:
            ext_lstart, ext_lend = pos, pos + ext.length
            pos = ext_lend
            repl_start, repl_end = logical_start, logical_start + nblocks
            if ext_lend <= repl_start or ext_lstart >= repl_end:
                rebuilt.append(ext)
                continue
            if ext_lstart < repl_start:
                rebuilt.append(Extent(ext.start, repl_start - ext_lstart))
            if ext_lstart <= repl_start < ext_lend or \
               (repl_start <= ext_lstart < repl_end):
                # insert replacements once, at the point the range begins
                if ext_lstart <= repl_start:
                    for ne in new_extents:
                        rebuilt.append(ne)
            if ext_lend > repl_end:
                offset_in_ext = repl_end - ext_lstart
                rebuilt.append(Extent(ext.start + offset_in_ext,
                                      ext_lend - repl_end))
        self._extents = rebuilt._extents
        self._invalidate()
        return old

    # -- fragmentation metrics ---------------------------------------------------

    def mappable_hugepages(self) -> int:
        """How many 2MB mappings this file layout supports.

        A hugepage mapping needs logical and physical alignment to coincide:
        logical offset L (in blocks) must be hugepage-aligned AND map to a
        physically hugepage-aligned block, with 512 contiguous blocks.
        """
        count = 0
        logical = 0
        for ext in self._extents:
            # logical block of each aligned physical hugepage inside ext
            first_phys = align_up(ext.start)
            while first_phys + BLOCKS_PER_HUGEPAGE <= ext.end:
                logical_here = logical + (first_phys - ext.start)
                if logical_here % BLOCKS_PER_HUGEPAGE == 0:
                    count += 1
                first_phys += BLOCKS_PER_HUGEPAGE
            logical += ext.length
        return count

    def fragmentation_score(self) -> float:
        """0.0 = perfectly hugepage-mappable, 1.0 = nothing mappable."""
        total = self.total_blocks
        if total < BLOCKS_PER_HUGEPAGE:
            return 0.0
        possible = total // BLOCKS_PER_HUGEPAGE
        return 1.0 - self.mappable_hugepages() / possible


def is_aligned_extent(start: int, length: int) -> bool:
    """True if (start, length) denotes a whole aligned hugepage run."""
    return start % BLOCKS_PER_HUGEPAGE == 0 and length >= BLOCKS_PER_HUGEPAGE
