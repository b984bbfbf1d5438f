"""Test oracles: what the production core replaced, kept as references.

``src/`` keeps one copy of each hot structure and one MMU walk — the
``RunStore``-backed :class:`~repro.fs.common.freespace.FreePool`, the
flat-int :class:`~repro.mmu.page_table.PageTable` and the run-batched
walk of :class:`~repro.mmu.mmap_region.MappedRegion`.  The originals live
here, verbatim, as the oracles the equivalence suites compare them
against:

* :class:`~tests.oracles.freepool.ReferenceFreePool` over four
  :class:`~tests.oracles.sortedmap.SortedMap`\\ s;
* :class:`~tests.oracles.page_table.ReferencePageTable`, one boxed
  :class:`~tests.oracles.page_table.Mapping` per entry;
* :mod:`tests.oracles.walk`, the per-event walk: one TLB event per
  touched page;
* :class:`~tests.oracles.sparse_pages.ReferenceSparsePages`, the PM
  store whose pages were copies or read-only views of whole-page
  ``bytes`` writes, beside an alias registry;
* :func:`~tests.oracles.inode_slot.pack_inode`, the one-shot encoder of
  a WineFS inode slot that :class:`~repro.core.layout.InodeSlot`'s
  field-wise packer replaced.

:func:`reference_structures` swaps the structures in for a whole scenario
by patching the module globals that construct free pools and page
tables, and :func:`reference_walk` patches the per-event walk onto
``MappedRegion``; the PM store's differential drives both stores side by
side.  Nothing in ``src/`` knows they exist.
:func:`assert_reference_built` and :func:`assert_reference_walk` check
that a scenario really ran on them, so a construction site or a walk
entry point a patch misses fails loudly instead of comparing production
with itself.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterable, Iterator
from unittest import mock

import repro.core.filesystem
import repro.fs.common.base
import repro.mmu.mmap_region

from .freepool import ReferenceFreePool
from .inode_slot import pack_inode
from .page_table import ReferencePageTable
from .sparse_pages import ReferenceSparsePages
from .walk import assert_reference_walk, reference_walk

__all__ = ["ReferenceFreePool", "ReferencePageTable", "ReferenceSparsePages",
           "assert_reference_built", "assert_reference_walk", "pack_inode",
           "reference_structures", "reference_walk"]

#: every module global that constructs a free pool or a page table
_PATCHES = (
    (repro.core.filesystem, "FreePool", ReferenceFreePool),
    (repro.fs.common.base, "FreePool", ReferenceFreePool),
    (repro.mmu.mmap_region, "PageTable", ReferencePageTable),
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
