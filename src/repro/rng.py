"""The one sanctioned source of randomness inside ``repro``.

Every simulated quantity in this reproduction must be a pure function of
its seeds: workload op streams, aging churn, fault schedules and the LLC
pollution model all draw from :class:`random.Random` instances created
here.  Nothing in ``src/repro`` may call the module-level ``random.*``
functions (they share interpreter-global state, so any import-order or
test-ordering change would silently reshuffle results) — the seeded
goldens and the exact gate catch a stray draw.

``make_rng(seed)`` is stream-identical to ``random.Random(seed)``; the
optional *salt* derives independent sub-streams from one seed without
the caller inventing ad-hoc arithmetic at every site.
"""

from __future__ import annotations

import random

__all__ = ["BENCH_SEED", "make_rng"]

#: default seed shared with the benchmark suite (benchmarks/_common.py
#: re-exports it): one knob reproduces every seeded stream in the repo
BENCH_SEED = 1337

#: large odd multiplier keeps salted sub-streams disjoint from the plain
#: seed space for any realistic seed range
_SALT_STRIDE = 0x9E3779B97F4A7C15


def make_rng(seed: int = BENCH_SEED, salt: int = 0) -> random.Random:
    """A deterministic, privately-seeded RNG instance.

    With ``salt == 0`` the stream is bit-identical to
    ``random.Random(seed)``, so routing legacy ``Random(seed)`` call
    sites through here never changes seeded output.
    """
    if salt:
        seed = seed + salt * _SALT_STRIDE
    return random.Random(seed)
