"""Test oracles: the per-object structures the array-backed core replaced.

``src/`` keeps one copy of each hot structure — the ``RunStore``-backed
:class:`~repro.fs.common.freespace.FreePool` and the flat-int
:class:`~repro.mmu.page_table.PageTable`.  The per-object originals live
here, verbatim, as the oracles the equivalence suites compare them
against:

* :class:`~tests.oracles.freepool.ReferenceFreePool` over four
  :class:`~tests.oracles.sortedmap.SortedMap`\\ s;
* :class:`~tests.oracles.page_table.ReferencePageTable`, one boxed
  ``Mapping`` per entry.

:func:`reference_structures` swaps them in for a whole scenario by
patching the module globals that construct free pools and page tables;
nothing in ``src/`` knows they exist.  :func:`assert_reference_built`
checks that a scenario really ran on them, so a construction site the
patch misses fails loudly instead of comparing the array structures with
themselves.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterable, Iterator
from unittest import mock

import repro.core.allocator
import repro.fs.common.base
import repro.mmu.mmap_region

from .freepool import ReferenceFreePool
from .page_table import ReferencePageTable

__all__ = ["ReferenceFreePool", "ReferencePageTable", "assert_reference_built",
           "reference_structures"]

#: every module global that constructs a free pool or a page table
_PATCHES = (
    (repro.core.allocator, "FreePool", ReferenceFreePool),
    (repro.fs.common.base, "FreePool", ReferenceFreePool),
    (repro.mmu.mmap_region, "PageTable", ReferencePageTable),
    (repro.fs.common.base, "PageTable", ReferencePageTable),
)


@contextmanager
def reference_structures() -> Iterator[None]:
    """Build every free pool and page table inside the block from the
    per-object oracles; structures built before or after are untouched."""
    with ExitStack() as stack:
        for module, name, oracle in _PATCHES:
            stack.enter_context(mock.patch.object(module, name, oracle))
        yield


def assert_reference_built(fs, regions: Iterable = ()) -> None:
    """Every free pool of *fs* and every page table of *regions* is an
    oracle (the scenario did not silently run on the array structures)."""
    pools = fs._free_pools()
    assert pools, f"{fs.name}: no free pools to check"
    for pool in pools:
        assert type(pool) is ReferenceFreePool, \
            f"{fs.name}: pool built as {type(pool).__name__}"
    for region in regions:
        assert type(region.page_table) is ReferencePageTable, \
            f"{fs.name}: page table built as {type(region.page_table).__name__}"
