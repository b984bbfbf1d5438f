"""Fragmentation metrics (Fig 3 and §4).

The paper's headline fragmentation metric is the fraction of *free space*
that sits in 2MB-aligned, contiguous (hugepage-mappable) regions, tracked
against utilization as the file system ages.  We also report file-level
mappability, which drives the mmap results directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import BLOCKS_PER_HUGEPAGE
from ..vfs.interface import FileSystem


@dataclass(frozen=True)
class FragmentationReport:
    fs_name: str
    utilization: float
    free_blocks: int
    free_aligned_hugepages: int
    free_space_aligned_fraction: float
    largest_free_extent_blocks: int
    free_extent_count: int

    def __str__(self) -> str:
        return (f"{self.fs_name}: util={self.utilization:.0%} "
                f"free-aligned={self.free_space_aligned_fraction:.0%} "
                f"({self.free_aligned_hugepages} hugepages, "
                f"{self.free_extent_count} free extents)")


def fragmentation_report(fs: FileSystem) -> FragmentationReport:
    """Snapshot the free-space fragmentation of a mounted file system."""
    stats = fs.statfs()
    largest = 0
    count = 0
    for ext in fs._free_extent_iter():          # noqa: SLF001 (library-internal)
        count += 1
        if ext.length > largest:
            largest = ext.length
    return FragmentationReport(
        fs_name=fs.name,
        utilization=stats.utilization,
        free_blocks=stats.free_blocks,
        free_aligned_hugepages=stats.free_aligned_hugepages,
        free_space_aligned_fraction=stats.free_space_aligned_fraction,
        largest_free_extent_blocks=largest,
        free_extent_count=count,
    )


def file_mappability(fs: FileSystem, ino: int) -> float:
    """Fraction of a file's hugepage-sized span that can map as hugepages."""
    extents = fs.file_extents(ino)
    total = extents.total_blocks
    if total < BLOCKS_PER_HUGEPAGE:
        return 1.0
    possible = total // BLOCKS_PER_HUGEPAGE
    return extents.mappable_hugepages() / possible
