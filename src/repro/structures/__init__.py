"""Core data structures shared by the simulated file systems.

* :mod:`repro.structures.extents` — extent arithmetic (split/merge/alignment).
* :mod:`repro.structures.runstore` — the free-space pools' sorted run arrays.
* :mod:`repro.structures.stats` — percentile/CDF helpers for the latency
  figures.
"""

from .extents import Extent, ExtentList, align_down, align_up, is_aligned_extent
from .stats import LatencyRecorder, Summary, percentile

__all__ = [
    "Extent",
    "ExtentList",
    "align_down",
    "align_up",
    "is_aligned_extent",
    "LatencyRecorder",
    "Summary",
    "percentile",
]
