"""P-ART: persistent adaptive radix tree lookups (paper §5.4, Figs 4 & 8).

P-ART "creates a PM pool using the vmmalloc library and pre-faults this
region during initialization to avoid page faults in the critical path".
Inserts set up the page tables; lookups then hit a hot set of 125K unique
keys in random order.  With base pages the lookups thrash the TLB and the
page walks evict the hot keys from the LLC — the 10x median-latency gap of
Fig 4 and the 56%-lower-median result of Fig 8.

The model allocates the pool file (large fallocate), pre-faults the
mapping, and issues dependent 64B probes against hot-set offsets through
the CPU's TLB and the mapping's hot-set LLC model, recording per-lookup
latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..clock import SimContext
from ..mmu.cache import CacheModel
from ..params import MIB
from ..rng import make_rng
from ..structures.stats import LatencyRecorder, Summary
from ..vfs.interface import FileSystem


#: (seed, hot_keys, range, stride) -> (offset table, RNG state after draw);
#: the table is deterministic in its key, so repeat runs skip the 125K draws
_OFFSET_CACHE: dict = {}


class PARTModel:
    """Pool + pre-faulted mapping + hot-set probe harness."""

    def __init__(self, fs: FileSystem, ctx: SimContext, *,
                 pool_bytes: int = 256 * MIB,
                 hot_keys: int = 125_000,
                 key_stride: int = 64,
                 path: str = "/part.pool",
                 seed: int = 0) -> None:
        self.fs = fs
        f = fs.create(path, ctx)
        f.fallocate(0, pool_bytes, ctx)
        # the hot set: 125K keys x one cacheline each
        self.cache = CacheModel(fs.machine,
                                hot_set_bytes=hot_keys * key_stride, seed=seed)
        self.region = f.mmap(ctx, length=pool_bytes)
        self.region.cache = self.cache
        self.region.prefault(ctx)
        self.pool_bytes = pool_bytes
        self.hot_keys = hot_keys
        self.key_stride = key_stride
        self._rng = make_rng(seed)
        # hot keys spread over the whole pool (radix-tree nodes are not
        # contiguous), so base-page TLB reach is exceeded
        span = pool_bytes - key_stride
        cache_key = (seed, hot_keys, span // key_stride, key_stride)
        cached = _OFFSET_CACHE.get(cache_key)
        if cached is None:
            self._offsets = [self._rng.randrange(0, span // key_stride)
                             * key_stride for _ in range(hot_keys)]
            _OFFSET_CACHE[cache_key] = (self._offsets, self._rng.getstate())
        else:
            # same seed + geometry: reuse the table and fast-forward the
            # RNG to the state it had after drawing it
            self._offsets, state = cached
            self._rng.setstate(state)
        # randrange(n) for one positive int n is exactly _randbelow(n);
        # binding it skips the argument normalization in the probe loop
        self._randbelow = self._rng._randbelow

    def lookup(self, ctx: SimContext) -> float:
        """One random hot-key lookup; returns latency in ns."""
        offset = self._offsets[self._randbelow(self.hot_keys)]
        return self.region.read_element(offset, ctx)

    def close(self) -> None:
        self.region.unmap()


@dataclass
class PARTResult:
    fs_name: str
    lookups: int
    summary: Summary
    cdf: List
    tlb_miss_rate: float
    llc_miss_rate: float


def run_part_lookups(fs: FileSystem, ctx: SimContext, *,
                     lookups: int = 50_000,
                     pool_bytes: int = 256 * MIB,
                     hot_keys: int = 125_000,
                     seed: int = 0,
                     path: str = "/part.pool") -> PARTResult:
    """Insert-then-lookup per §5.4: pre-faulted pool, random hot-set reads."""
    model = PARTModel(fs, ctx, pool_bytes=pool_bytes, hot_keys=hot_keys,
                      seed=seed, path=path)
    recorder = LatencyRecorder()
    counters = ctx.counters
    tlb_misses, llc_misses = counters.tlb_misses, counters.llc_misses
    for _ in range(lookups):
        recorder.record(model.lookup(ctx))
    # each probe is one TLB lookup and one LLC lookup
    tlb_misses = counters.tlb_misses - tlb_misses
    llc_misses = counters.llc_misses - llc_misses
    result = PARTResult(
        fs_name=fs.name, lookups=lookups,
        summary=recorder.summary(),
        cdf=recorder.cdf(50),
        tlb_miss_rate=tlb_misses / lookups if lookups else 0.0,
        llc_miss_rate=llc_misses / lookups if lookups else 0.0)
    model.close()
    return result
