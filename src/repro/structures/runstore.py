"""Array-backed free-run store: the SoA kernel behind :class:`FreePool`.

The per-object pool this replaced (now the test oracle in
``tests/oracles/``) keeps a free pool's state in four ordered maps (start
tree, run index, two size indexes), so every carve or merge pays
del+insert against each of them — eight parallel lists of boxed pairs.
This store keeps one copy of the truth as flat parallel columns, sorted
by extent start::

    starts[i], lens[i], runs[i]     # extent i, ascending starts

plus three *derived* sorted-int indexes for the allocation policies:

    by_size     packed (length << 40 | start) keys, all extents
    holes       same packing, only extents with no aligned run
    run_starts  starts of extents containing >= 1 aligned 2MB run

Split and merge are binary-search + in-place column writes: carving the
front of a run is ``starts[i] += take; lens[i] -= take`` plus a pair of
size-key swaps — no tree node churn, no memmove of the columns.  The
derived indexes are canonical functions of the extent set, so any query
against them returns exactly what the per-object pool's maps return:
that is what keeps allocation *decisions* (and therefore ``sim_ns``)
bit-identical between the two.

Aggregates (``free_blocks``, ``total_runs``) are maintained
incrementally; ``statfs()`` reads them without walking anything.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator, List, Optional, Tuple

from ..params import BLOCKS_PER_HUGEPAGE
from .extents import align_down, align_up

#: size-index keys pack (length, start) into one int; start < 2^40 covers
#: partitions up to 4 exabytes of 4KB blocks
START_BITS = 40
START_MASK = (1 << START_BITS) - 1


_B = BLOCKS_PER_HUGEPAGE


def runs_in(start: int, length: int) -> int:
    """Whole aligned hugepage runs inside a free run."""
    first = align_up(start)
    last = align_down(start + length)
    return max(0, (last - first) // BLOCKS_PER_HUGEPAGE)


def _runs_in_inline(start: int, length: int) -> int:
    # runs_in with align_up/align_down folded in (identical arithmetic);
    # the mutation kernels call this once per add/reshape
    end = start + length
    r = (end - end % _B - (start + _B - 1) // _B * _B) // _B
    return r if r > 0 else 0


class RunStore:
    """Sorted start/length/runs columns with binary-search split/merge."""

    __slots__ = ("starts", "lens", "runs", "by_size", "holes", "run_starts",
                 "total_runs", "free_blocks")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.lens: List[int] = []
        self.runs: List[int] = []
        self.by_size: List[int] = []
        self.holes: List[int] = []
        self.run_starts: List[int] = []
        self.total_runs = 0
        self.free_blocks = 0

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def items(self) -> Iterator[Tuple[int, int]]:
        """(start, length) in ascending start order."""
        return zip(self.starts, self.lens)

    def floor_index(self, block: int) -> int:
        """Index of the last extent with start <= *block*, or -1."""
        return bisect_right(self.starts, block) - 1

    def index_of(self, start: int) -> int:
        """Index of the extent that begins exactly at *start*."""
        i = bisect_left(self.starts, start)
        assert i < len(self.starts) and self.starts[i] == start, \
            f"no extent starts at {start}"
        return i

    def largest(self) -> int:
        return self.by_size[-1] >> START_BITS if self.by_size else 0

    def smallest_fitting(self, nblocks: int, *,
                         holes_only: bool = False) -> Optional[int]:
        """Index of the best-fit extent >= *nblocks* by (length, start)
        order — over pure holes only, or over all extents."""
        index = self.holes if holes_only else self.by_size
        j = bisect_left(index, nblocks << START_BITS)
        if j == len(index):
            return None
        return self.index_of(index[j] & START_MASK)

    # -- mutation kernels --------------------------------------------------------

    def add(self, start: int, length: int) -> int:
        """Insert a new extent; returns its column index."""
        i = bisect_left(self.starts, start)
        self.starts.insert(i, start)
        self.lens.insert(i, length)
        r = _runs_in_inline(start, length)
        self.runs.insert(i, r)
        key = (length << START_BITS) | start
        insort(self.by_size, key)
        if r:
            insort(self.run_starts, start)
            self.total_runs += r
        else:
            insort(self.holes, key)
        self.free_blocks += length
        return i

    def remove_at(self, i: int) -> None:
        start = self.starts.pop(i)
        length = self.lens.pop(i)
        r = self.runs.pop(i)
        key = (length << START_BITS) | start
        self._del_sorted(self.by_size, key)
        if r:
            self._del_sorted(self.run_starts, start)
            self.total_runs -= r
        else:
            self._del_sorted(self.holes, key)
        self.free_blocks -= length

    def reshape(self, i: int, new_start: int, new_len: int) -> None:
        """Replace extent *i* with (new_start, new_len) in place.

        The caller guarantees the new bounds keep the column sorted
        (every split/merge stays inside the gap between the neighbours),
        so only the derived indexes pay binary-search maintenance.
        """
        old_start = self.starts[i]
        old_len = self.lens[i]
        old_runs = self.runs[i]
        new_runs = _runs_in_inline(new_start, new_len)
        old_key = (old_len << START_BITS) | old_start
        new_key = (new_len << START_BITS) | new_start
        self._del_sorted(self.by_size, old_key)
        insort(self.by_size, new_key)
        if old_runs:
            if new_runs:
                if old_start != new_start:
                    self._del_sorted(self.run_starts, old_start)
                    insort(self.run_starts, new_start)
            else:
                self._del_sorted(self.run_starts, old_start)
                insort(self.holes, new_key)
        elif new_runs:
            self._del_sorted(self.holes, old_key)
            insort(self.run_starts, new_start)
        else:
            self._del_sorted(self.holes, old_key)
            insort(self.holes, new_key)
        self.starts[i] = new_start
        self.lens[i] = new_len
        self.runs[i] = new_runs
        self.total_runs += new_runs - old_runs
        self.free_blocks += new_len - old_len

    @staticmethod
    def _del_sorted(keys: List[int], key: int) -> None:
        i = bisect_left(keys, key)
        assert i < len(keys) and keys[i] == key, f"index key {key} missing"
        del keys[i]

    # -- invariants (property tests) ---------------------------------------------

    def check_invariants(self) -> None:
        n = len(self.starts)
        assert len(self.lens) == n and len(self.runs) == n, \
            "parallel columns diverged"
        total = 0
        truns = 0
        keys = []
        holes = []
        rstarts = []
        prev_end = None
        for i in range(n):
            start, length, r = self.starts[i], self.lens[i], self.runs[i]
            assert length > 0
            if prev_end is not None:
                assert start > prev_end, "extents overlap or not sorted"
            prev_end = start + length
            assert r == runs_in(start, length), "run column drift"
            total += length
            truns += r
            key = (length << START_BITS) | start
            keys.append(key)
            if r:
                rstarts.append(start)
            else:
                holes.append(key)
        assert sorted(keys) == self.by_size, "size index drift"
        assert sorted(holes) == self.holes, "hole index drift"
        assert rstarts == self.run_starts, "run-start index drift"
        assert total == self.free_blocks, "free block accounting drift"
        assert truns == self.total_runs, "aligned-run accounting drift"
