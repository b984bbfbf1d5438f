"""A sorted int-keyed map over parallel arrays.

The ordered map behind :class:`tests.oracles.freepool.ReferenceFreePool`,
the per-object free pool the equivalence suites compare the array-backed
:class:`~repro.fs.common.freespace.FreePool` against.  The pools hold at most a few thousand runs, and at that size
C-implemented ``bisect``/``list`` operations (one binary search plus one
memmove) beat Python-level tree rebalancing, with the ordered-map semantics
the kernel's red-black trees give WineFS: unique keys, ascending iteration,
floor/ceiling queries, replace-on-insert.  Nothing observes a free pool's
internal shape, only its ordered contents.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Tuple


class SortedMap:
    """Ordered int-keyed map: O(log n) search, O(n) memmove mutation."""

    __slots__ = ("_keys", "_values")

    def __init__(self) -> None:
        self._keys: List[int] = []
        self._values: List[Any] = []

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __contains__(self, key: int) -> bool:
        keys = self._keys
        i = bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    def get(self, key: int, default: Any = None) -> Any:
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self._values[i]
        return default

    def __getitem__(self, key: int) -> Any:
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self._values[i]
        raise KeyError(key)

    def min_item(self) -> Tuple[int, Any]:
        if not self._keys:
            raise KeyError("empty tree")
        return self._keys[0], self._values[0]

    def max_item(self) -> Tuple[int, Any]:
        if not self._keys:
            raise KeyError("empty tree")
        return self._keys[-1], self._values[-1]

    def floor_item(self, key: int) -> Optional[Tuple[int, Any]]:
        """Largest (k, v) with k <= key, or None."""
        i = bisect_right(self._keys, key) - 1
        if i < 0:
            return None
        return self._keys[i], self._values[i]

    def ceiling_item(self, key: int) -> Optional[Tuple[int, Any]]:
        """Smallest (k, v) with k >= key, or None."""
        keys = self._keys
        i = bisect_left(keys, key)
        if i >= len(keys):
            return None
        return keys[i], self._values[i]

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Ascending-key iteration."""
        return zip(self._keys, self._values)

    def keys(self) -> Iterator[int]:
        return iter(self._keys)

    def values(self) -> Iterator[Any]:
        return iter(self._values)

    # -- mutation --------------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        """Insert; an existing key has its value replaced."""
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            self._values[i] = value
        else:
            keys.insert(i, key)
            self._values.insert(i, value)

    def __setitem__(self, key: int, value: Any) -> None:
        self.insert(key, value)

    def remove(self, key: int) -> Any:
        keys = self._keys
        i = bisect_left(keys, key)
        if i >= len(keys) or keys[i] != key:
            raise KeyError(key)
        del keys[i]
        value = self._values[i]
        del self._values[i]
        return value

    def __delitem__(self, key: int) -> None:
        self.remove(key)

    def pop_min(self) -> Tuple[int, Any]:
        if not self._keys:
            raise KeyError("empty tree")
        return self._keys.pop(0), self._values.pop(0)

    def clear(self) -> None:
        self._keys.clear()
        self._values.clear()

    # -- invariant check (used by property tests) --------------------------------

    def check_invariants(self) -> None:
        keys = self._keys
        assert len(keys) == len(self._values), "parallel arrays diverged"
        for i in range(1, len(keys)):
            assert keys[i - 1] < keys[i], "keys not strictly ascending"
