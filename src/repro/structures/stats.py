"""Statistics helpers for latency figures and throughput tables.

The paper reports medians, 90th percentiles and full CDFs (Figs 4, 8).
These helpers keep raw samples (the figure experiments produce at most a
few hundred thousand) and compute the summaries the harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile; pct in [0, 100]."""
    if not samples:
        raise ValueError("no samples")
    return percentile_sorted(sorted(samples), pct)


def percentile_sorted(data: Sequence[float], pct: float) -> float:
    """:func:`percentile` over already-sorted *data* (no re-sort)."""
    if not data:
        raise ValueError("no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} out of range")
    if len(data) == 1:
        return data[0]
    rank = pct / 100.0 * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1 - frac) + data[hi] * frac


@dataclass
class Summary:
    count: int
    mean: float
    median: float
    p90: float
    p99: float
    #: tail percentile the SLO reports grade against
    p999: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.1f} p50={self.median:.1f} "
                f"p90={self.p90:.1f} p99={self.p99:.1f} "
                f"p999={self.p999:.1f} "
                f"min={self.minimum:.1f} max={self.maximum:.1f}")

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "Summary":
        """Build a summary with exactly one sort over the samples.

        ``percentile`` re-sorts on every call (O(n log n) each); this is
        the path every summary producer should use.
        """
        data = sorted(samples)
        if not data:
            raise ValueError("no samples")
        return cls(
            count=len(data),
            mean=sum(data) / len(data),
            median=percentile_sorted(data, 50),
            p90=percentile_sorted(data, 90),
            p99=percentile_sorted(data, 99),
            p999=percentile_sorted(data, 99.9),
            minimum=data[0],
            maximum=data[-1],
        )


class LatencyRecorder:
    """Collects latency samples (ns) and produces summaries and CDFs."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, ns: float) -> None:
        if ns < 0:
            raise ValueError("negative latency")
        self._samples.append(ns)

    def extend(self, samples: Iterable[float]) -> None:
        for s in samples:
            self.record(s)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def summary(self) -> Summary:
        return Summary.from_samples(self._samples)

    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """(latency, cumulative fraction) pairs suitable for plotting."""
        if not self._samples:
            raise ValueError("no samples recorded")
        data = sorted(self._samples)
        n = len(data)
        out: List[Tuple[float, float]] = []
        for i in range(points + 1):
            frac = i / points
            idx = min(n - 1, int(frac * (n - 1)))
            out.append((data[idx], frac))
        return out


def throughput_mb_s(nbytes: int, elapsed_ns: float) -> float:
    """Bandwidth in MB/s from bytes moved and simulated nanoseconds."""
    if elapsed_ns <= 0:
        raise ValueError("elapsed time must be positive")
    return nbytes / (elapsed_ns / 1e9) / 1e6


def ops_per_sec(ops: int, elapsed_ns: float) -> float:
    if elapsed_ns <= 0:
        raise ValueError("elapsed time must be positive")
    return ops / (elapsed_ns / 1e9)
