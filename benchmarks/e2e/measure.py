"""Pure helpers: order statistics, the open-loop queue replay, digests."""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: latency limit on simulated p99 sojourn for ``sim_max_req_per_s_slo``.
#: 5 ms, not 1 ms: a single ``list`` costs up to 1.4 ms of simulated
#: service and 7% of requests are lists, so no rate could meet 1 ms
SLO_P99_NS = 5_000_000.0
#: offered rates (req/s) the recorded service times are replayed at; the
#: stream is generated at 20k req/s and the current tree sustains 10k
RATE_LADDER = (2_500, 5_000, 10_000, 20_000, 40_000, 80_000)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def replay_queue(arrivals: Sequence[float], backends: Sequence[int],
                 services: Sequence[float], stretch: float = 1.0
                 ) -> Tuple[List[float], List[float]]:
    """Replay recorded service times through one FIFO queue per backend.

    Request *i* is due at ``arrivals[i] * stretch``; its backend finishes
    it at ``max(due, previous finish on that backend) + services[i]``.
    Returns ``(sojourn, wait)`` per request, both measured from the due
    time, so a stall is charged to every request queued behind it.
    """
    done: Dict[int, float] = {}
    sojourn: List[float] = []
    wait: List[float] = []
    for arrival, backend, service in zip(arrivals, backends, services):
        due = arrival * stretch
        start = max(due, done.get(backend, 0.0))
        finish = start + service
        done[backend] = finish
        wait.append(start - due)
        sojourn.append(finish - due)
    return sojourn, wait


def max_rate_meeting_slo(arrivals: Sequence[float], backends: Sequence[int],
                         services: Sequence[float], base_rate: float
                         ) -> int:
    """Highest ladder rate whose replay keeps p99 sojourn within
    :data:`SLO_P99_NS` without a growing backlog.

    The stream was generated at *base_rate* req/s; rate *r* rescales its
    inter-arrival gaps by ``base_rate / r`` and keeps every service time.
    The backlog grows when the mean queue wait over the last quarter of
    the requests exceeds the first quarter's by more than a tenth of the
    limit.  Returns 0 when no rate qualifies.
    """
    best = 0
    quarter = max(1, len(arrivals) // 4)
    for rate in RATE_LADDER:
        sojourn, wait = replay_queue(arrivals, backends, services,
                                     stretch=base_rate / rate)
        growth = statistics.fmean(wait[-quarter:]) \
            - statistics.fmean(wait[:quarter])
        if percentile(sojourn, 0.99) <= SLO_P99_NS \
                and growth <= SLO_P99_NS / 10:
            best = rate
    return best


def sim_digest(parts: Iterable[object]) -> str:
    """SHA-256 over the ``repr`` of every part, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()
