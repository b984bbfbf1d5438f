"""Aging profiles: file-size distributions used to drive churn.

The paper uses two profiles:

* **Agrawal** (Agrawal et al., TOS 2009): "a mix of small (< 2MB) and
  large (>= 2MB) files.  56% of the total capacity is occupied by large
  files while the rest is occupied by small files" (§5.1).
* **Wang-HPC** (Wang, 2012): an HPC-site profile under which free-space
  fragmentation is *worse* — §4 reports that at 50% utilization only 28%
  of ext4-DAX free space is aligned versus >90% for WineFS.

Sizes are drawn from two lognormal branches (small vs large) with the
large-branch probability tuned so the expected capacity share of large
files matches the profile.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..params import KIB, MIB

LARGE_FILE_THRESHOLD = 2 * MIB


@dataclass(frozen=True)
class AgingProfile:
    """A file-size sampler.

    * ``small_median``/``small_sigma`` — lognormal parameters (bytes) of the
      small-file branch, truncated to [1KB, 2MB);
    * ``large_median``/``large_sigma`` — same for the large branch,
      truncated to [2MB, ``large_cap``];
    * ``p_large`` — probability a created file is large;
    * ``dir_fanout`` — mean files per directory during aging.
    """

    name: str
    small_median: float
    small_sigma: float
    large_median: float
    large_sigma: float
    p_large: float
    large_cap: int = 256 * MIB
    dir_fanout: int = 100

    def sample_size(self, rng: random.Random) -> int:
        """Draw one file size in bytes."""
        if rng.random() < self.p_large:
            mu = math.log(self.large_median)
            size = rng.lognormvariate(mu, self.large_sigma)
            size = min(max(size, LARGE_FILE_THRESHOLD), self.large_cap)
        else:
            mu = math.log(self.small_median)
            size = rng.lognormvariate(mu, self.small_sigma)
            size = min(max(size, 1 * KIB), LARGE_FILE_THRESHOLD - 1)
        return int(size)


#: Agrawal et al. profile: 56% of capacity in >=2MB files (§5.1).  With
#: these branch parameters the large-capacity share lands at ~0.56.
AGRAWAL = AgingProfile(
    name="agrawal",
    small_median=64 * KIB, small_sigma=1.6,
    large_median=6 * MIB, large_sigma=0.9,
    p_large=0.029,
)

#: Wang HPC-site profile: a heavier tail of very large checkpoint-style
#: files plus masses of tiny files — the mix §4 reports as fragmenting
#: ext4-DAX hardest.
WANG_HPC = AgingProfile(
    name="wang-hpc",
    small_median=16 * KIB, small_sigma=2.0,
    large_median=32 * MIB, large_sigma=1.1,
    p_large=0.02,
    large_cap=512 * MIB,
)


#: the named profiles CLI surfaces (``--profile``) accept; fleet corpus
#: cells carry the *name* across process boundaries and resolve it here
PROFILES = {"agrawal": AGRAWAL, "wang-hpc": WANG_HPC}


def uniform_profile(lo: int, hi: int, name: str = "uniform") -> AgingProfile:
    """A degenerate profile for tests: sizes ~uniform-ish in [lo, hi].

    Implemented as a tight lognormal around the geometric mean.
    """
    if not 0 < lo <= hi:
        raise ValueError("need 0 < lo <= hi")
    median = math.sqrt(lo * hi)
    if hi < LARGE_FILE_THRESHOLD:
        return AgingProfile(name=name, small_median=median, small_sigma=0.5,
                            large_median=4 * MIB, large_sigma=0.1,
                            p_large=0.0)
    return AgingProfile(name=name, small_median=256 * KIB, small_sigma=0.1,
                        large_median=median, large_sigma=0.5, p_large=1.0,
                        large_cap=hi)
