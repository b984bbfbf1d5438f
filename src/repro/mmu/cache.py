"""LLC pollution model.

Paper §2.4 / Fig 4: with a pre-faulted region, base pages still cost ~10x
median latency on random reads because every TLB miss walks the page table
and caches PTE lines in the processor caches, evicting the application's
hot data ("the array element ... has been knocked out of the processor
cache by page table entries").

We model the LLC as a hot-set filter: a configurable fraction of the
application's hot working set is cache-resident while pollution is low.
Each 4KB-TLB miss's page-walk fills PTE lines and, with probability
``pte_pollution``, evicts the *next* hot line the application would have
hit.  This produces exactly the bimodal latency CDF in Fig 4: hugepage
reads mostly hit the LLC (~tens of ns) while base-page reads mostly go to
PM (~hundreds of ns).
"""

from __future__ import annotations

from ..errors import SimulationError
from ..params import CACHELINE, MachineParams
from ..rng import make_rng


class CacheModel:
    """Stochastic LLC residency model for one workload's hot set.

    Parameters
    ----------
    machine:
        The machine cost model (provides LLC size and latencies).
    hot_set_bytes:
        Bytes of application data that would be LLC-resident absent
        pollution.
    seed:
        RNG seed for deterministic latency distributions.
    """

    def __init__(self, machine: MachineParams, hot_set_bytes: int,
                 seed: int = 0) -> None:
        if hot_set_bytes < 0:
            raise SimulationError("hot set must be non-negative")
        self.machine = machine
        self.hot_set_bytes = hot_set_bytes
        self._rng = make_rng(seed)
        # Fraction of the hot set that fits in the LLC at all.
        self.base_residency = min(1.0, machine.llc_bytes / hot_set_bytes) \
            if hot_set_bytes else 1.0
        self._pollution_pending = 0.0   # probability next access was evicted

    def pollute(self, lines: int = 8) -> None:
        """A page walk cached *lines* PTE cachelines, evicting hot data."""
        # Each PTE line displaces one hot line; convert to eviction
        # probability for upcoming accesses.
        displaced = lines * CACHELINE
        if self.hot_set_bytes:
            self._pollution_pending = min(
                1.0,
                self._pollution_pending + self.machine.pte_pollution *
                displaced / max(displaced, CACHELINE))
        else:
            self._pollution_pending = min(
                1.0, self._pollution_pending + self.machine.pte_pollution)

    def pollute_batch(self, count: int, lines: int = 8) -> None:
        """*count* :meth:`pollute` calls in one go.

        Pollution saturates at probability 1.0 and no consumer runs
        between the walks of one mapping run, so once pending reaches 1.0
        the remaining calls are no-ops and can be skipped.
        """
        for _ in range(count):
            if self._pollution_pending >= 1.0:
                return
            self.pollute(lines)

    def access_hot_line(self) -> bool:
        """Access one hot cacheline; True if it hit the LLC."""
        p_hit = self.base_residency
        if self._pollution_pending > 0.0:
            p_hit *= (1.0 - self._pollution_pending)
            # pollution is consumed: the walked PTEs stop displacing new
            # lines once the hot line has been refetched
            self._pollution_pending = 0.0
        return self._rng.random() < p_hit

    def access_latency_ns(self, hit: bool, pm_resident: bool = True) -> float:
        """Latency of one 64B load given hit/miss and backing medium."""
        if hit:
            return self.machine.llc_hit_ns
        return self.machine.pm_load_ns if pm_resident else self.machine.dram_load_ns
