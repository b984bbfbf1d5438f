"""Baseline PM file systems the paper compares WineFS against.

Each baseline is re-implemented at the allocator/journal/log level so the
design property the paper credits or blames is real, not hard-coded.  A
module here states only that policy (where the data area starts, how many
pools, what one pick carves, what a metadata transaction / fsync / data
write costs); the loops under it live once in
:mod:`repro.fs.common.base`:

* :mod:`repro.fs.ext4dax` — mballoc-style contiguity-first allocator,
  JBD2-like batched redo journal with stop-the-world commit on fsync.
* :mod:`repro.fs.nova` — log-structured: per-inode metadata logs allocated
  from free space (fragmenting it), CoW data at 4KB granularity.
* :mod:`repro.fs.pmfs` — single fine-grained undo journal, linear directory
  scans (no DRAM indexes).
* :mod:`repro.fs.xfsdax` — contiguity-focused allocator that disregards
  hugepage alignment entirely (paper footnote 1).
* :mod:`repro.fs.splitfs` — user-space append staging over ext4-DAX.
* :mod:`repro.fs.strata` — per-process log with digestion to a shared area.
"""

from .ext4dax import Ext4DAX
from .nova import NovaFS
from .pmfs import PMFS
from .xfsdax import XfsDAX
from .splitfs import SplitFS
from .strata import StrataFS

__all__ = ["Ext4DAX", "NovaFS", "PMFS", "XfsDAX", "SplitFS", "StrataFS"]
