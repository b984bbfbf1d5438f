"""YCSB workload driver (Cooper et al., SoCC 2010), paper Fig 7a / Table 2.

The standard workload mixes:

=========  =======================================  ==================
Workload   Mix                                      Distribution
=========  =======================================  ==================
Load       100% insert                              sequential keys
A          50% read / 50% update                    zipfian
B          95% read / 5% update                     zipfian
C          100% read                                zipfian
D          95% read (latest) / 5% insert            latest
E          95% scan / 5% insert                     zipfian
F          50% read / 50% read-modify-write         zipfian
=========  =======================================  ==================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..clock import SimContext
from ..errors import NotFoundError
from ..rng import make_rng
from ..structures.stats import ops_per_sec
from .rocksdb import RocksDBModel


@dataclass(frozen=True)
class YCSBWorkload:
    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"     # zipfian | latest | sequential

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError(f"{self.name}: mix must sum to 1, got {total}")


YCSB_WORKLOADS: Dict[str, YCSBWorkload] = {
    "Load": YCSBWorkload("Load", insert=1.0, distribution="sequential"),
    "A": YCSBWorkload("A", read=0.5, update=0.5),
    "B": YCSBWorkload("B", read=0.95, update=0.05),
    "C": YCSBWorkload("C", read=1.0),
    "D": YCSBWorkload("D", read=0.95, insert=0.05, distribution="latest"),
    "E": YCSBWorkload("E", scan=0.95, insert=0.05),
    "F": YCSBWorkload("F", read=0.5, rmw=0.5),
}


#: a key is int(n * u ** _ZIPF_ALPHA) for u uniform in [0, 1): an
#: inverse-CDF approximation of YCSB's theta = 0.99 (skew, not exactness)
_ZIPF_ALPHA = 1.0 / (1.0 - 0.99)


@dataclass
class YCSBResult:
    fs_name: str
    workload: str
    ops: int
    elapsed_ns: float
    page_faults: int

    @property
    def kops_per_sec(self) -> float:
        return ops_per_sec(self.ops, self.elapsed_ns) / 1e3


def run_ycsb(db: RocksDBModel, workload: YCSBWorkload, ctx: SimContext, *,
             record_count: int, op_count: int, seed: int = 0) -> YCSBResult:
    """Run one YCSB workload against a (pre-)loaded RocksDB model.

    The random draws and their order are the contract (``r``; then the
    key, for every op but insert; then scan's length): they fix the key
    stream and with it every simulated result downstream.
    """
    faults0 = ctx.counters.page_faults
    start_ns = ctx.now
    put = db.put
    rng = make_rng(seed)
    if workload.name == "Load":
        for i in range(op_count):
            put(i, ctx)
    else:
        draw = rng.random
        get, update = db.get, db.update
        alpha = _ZIPF_ALPHA
        n = max(1, record_count)
        latest = workload.distribution == "latest"
        read_below = workload.read
        update_below = workload.read + workload.update
        insert_below = workload.read + workload.update + workload.insert
        scan_below = (workload.read + workload.update + workload.insert
                      + workload.scan)
        next_key = record_count
        for _ in range(op_count):
            r = draw()
            if update_below <= r < insert_below:
                put(next_key, ctx)
                next_key += 1
                continue
            key = int(n * draw() ** alpha)
            if key >= n:
                key = n - 1
            if latest:
                key = max(0, next_key - 1 - key)
            if r < read_below:
                try:
                    get(key, ctx)
                except NotFoundError:
                    pass
            elif r < update_below:
                update(key, ctx)
            elif r < scan_below:
                db.scan(key, rng.randrange(1, 100), ctx)
            else:   # read-modify-write
                try:
                    get(key, ctx)
                except NotFoundError:
                    pass
                update(key, ctx)
    return YCSBResult(fs_name=db.fs.name, workload=workload.name,
                      ops=op_count, elapsed_ns=ctx.now - start_ns,
                      page_faults=ctx.counters.page_faults - faults0)
