"""Metrics registry: labelled counters and gauges.

The statsd-style shape (one registry, get-or-create metric handles keyed by
name + sorted labels) follows what production object stores expose; here
every value is derived from *simulated* state — nothing in this module ever
reads the wall clock or charges simulated time.

A series is one (name, labels) pair, e.g. ``page_faults{size="2m"}``.
Handles are cheap plain objects so hot paths can cache them and bump a
``value`` attribute directly; the registry is only walked at report time.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from ..errors import ObservabilityError

LabelsKey = Tuple[Tuple[str, str], ...]

#: per-metric-name ceiling on distinct label combinations; a workload that
#: labels by an unbounded dimension (path, offset, ...) fails fast instead
#: of silently eating memory
DEFAULT_MAX_SERIES = 1024


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_series(name: str, labels: LabelsKey) -> str:
    """``name{k="v",...}`` — the conventional exposition key."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Metric:
    """Base class: one series of one metric."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels

    @property
    def series(self) -> str:
        return format_series(self.name, self.labels)

    def __repr__(self) -> str:
        return f"<{self.kind} {self.series}>"


class Counter(Metric):
    """Monotonic count (int or float).

    ``value`` is a plain attribute so compatibility layers (EventCounters
    properties) may assign it directly; ``inc`` is the normal API and
    rejects negative increments.
    """

    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey) -> None:
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.series} cannot decrease (inc {amount})")
        self.value += amount


class Gauge(Metric):
    """Point-in-time value; either set directly or backed by a callback."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelsKey,
                 fn: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name, labels)
        self._fn = fn
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ObservabilityError(
                f"gauge {self.series} is callback-backed")
        self._value = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.set(self.value - amount)


class MetricsRegistry:
    """Get-or-create registry of labelled metric series.

    Re-requesting a series returns the same handle; requesting an existing
    series as a different metric kind raises.  A per-name cardinality cap
    guards against unbounded label values.
    """

    def __init__(self, max_series_per_name: int = DEFAULT_MAX_SERIES) -> None:
        self._metrics: Dict[Tuple[str, LabelsKey], Metric] = {}
        self._series_per_name: Dict[str, int] = {}
        self.max_series_per_name = max_series_per_name

    # -- get-or-create ------------------------------------------------------

    def _lookup(self, cls, name: str, labels: Dict[str, object],
                **kwargs) -> Metric:
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ObservabilityError(
                    f"{format_series(*key)} already registered as "
                    f"{metric.kind}, requested {cls.kind}")
            return metric
        count = self._series_per_name.get(name, 0)
        if count >= self.max_series_per_name:
            raise ObservabilityError(
                f"metric {name!r} exceeds {self.max_series_per_name} label "
                "combinations (unbounded label value?)")
        metric = cls(name, key[1], **kwargs)
        self._metrics[key] = metric
        self._series_per_name[name] = count + 1
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._lookup(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              **labels) -> Gauge:
        g = self._lookup(Gauge, name, labels, fn=fn)
        return g  # type: ignore[return-value]

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every stored series in place, keeping handles valid.

        Counters go back to 0, settable gauges to 0.0.  Callback-backed
        gauges are left alone — they reflect live object state, not
        accumulated history.  Existing handles cached by hot paths
        (EventCounters properties) stay bound.
        """
        for metric in self._metrics.values():
            if isinstance(metric, Counter):
                metric.value = 0
            elif isinstance(metric, Gauge):
                if metric._fn is None:
                    metric._value = 0.0

    # -- introspection ------------------------------------------------------

    def collect(self) -> Iterator[Metric]:
        yield from self._metrics.values()

    def series_count(self, name: Optional[str] = None) -> int:
        if name is None:
            return len(self._metrics)
        return self._series_per_name.get(name, 0)

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Scalar value of one series; *default* when never registered."""
        metric = self._metrics.get((name, _labels_key(labels)))
        return default if metric is None else metric.value

    def as_dict(self) -> Dict[str, object]:
        """Exposition snapshot: series key -> scalar."""
        return {metric.series: metric.value
                for metric in self._metrics.values()}
