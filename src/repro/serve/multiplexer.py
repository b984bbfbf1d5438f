"""Deterministic tenant multiplexer with admission control.

The multiplexer owns a fleet of backends and routes every request by
tenant: ``route(tenant) = crc32(tenant) % len(backends)``.  The hash is
content-defined (never seeded, never process-dependent), so the same
tenant always lands on the same backend — which is what makes the
differential suite's claim checkable: a multi-tenant stream pushed
through the multiplexer must leave every backend byte-identical
(simulated ns, object bytes, counters) to running that backend's tenant
slice against it directly, because routing adds no simulated work and
consumes no randomness.

Admission control is loss-based.  Each backend is modeled as a single
queue of bounded depth ``queue_cap``: the load driver announces each
request's open-loop arrival time via :meth:`advance`, completions whose
finish time is past are drained, and a request arriving to a full queue
is rejected with ``EAGAIN`` (:class:`~repro.errors.BusyError`) *before*
touching the backend — rejected work leaves no trace in backend state,
and the rejection order for a seeded stream is deterministic.  Service
time for an admitted request is the backend's own simulated-clock delta,
so queue occupancy derives entirely from simulated quantities.

``queue_cap=0`` (the default) disables admission control entirely: the
multiplexer is then a pure router.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..errors import BusyError, InvalidArgumentError
from .interface import ObjStorage

__all__ = ["ObjStorageMultiplexer"]

T = TypeVar("T")


class ObjStorageMultiplexer(ObjStorage):
    """Route per-tenant namespaces across a fleet of backends."""

    def __init__(self, backends: Sequence[ObjStorage],
                 queue_cap: int = 0,
                 label: str = "multiplexer") -> None:
        if not backends:
            raise InvalidArgumentError("multiplexer needs >= 1 backend")
        if queue_cap < 0:
            raise InvalidArgumentError("queue_cap must be >= 0")
        self.backends: List[ObjStorage] = list(backends)
        self.queue_cap = queue_cap
        #: request, rejection and queue high-water counts keyed by their
        #: exposition series, e.g. ``serve_requests_total{backend="m0",
        #: op="put"}``
        self.admission: Dict[str, int] = {}
        self.name = label
        #: per-backend completion times (ns on the arrival timeline) of
        #: admitted-but-unfinished requests, oldest first
        self._queues = [deque() for _ in self.backends]
        self._queue_high_water = [0] * len(self.backends)
        self._arrival_ns: Optional[float] = None
        #: ``serve_requests_total`` series by (backend index, op), so a
        #: request does not format its key
        self._request_series: Dict[Tuple[int, str], str] = {}

    # -- routing ------------------------------------------------------------

    def route(self, tenant: str) -> int:
        """The backend index *tenant* maps to (stable across runs)."""
        return zlib.crc32(tenant.encode("utf-8")) % len(self.backends)

    # -- admission ----------------------------------------------------------

    def advance(self, arrival_ns: float) -> None:
        self._arrival_ns = arrival_ns

    def _admit(self, idx: int, op: str) -> None:
        """Drain finished work; reject if the queue is at capacity."""
        backend = self.backends[idx]
        if self.queue_cap == 0 or self._arrival_ns is None:
            return
        queue = self._queues[idx]
        while queue and queue[0] <= self._arrival_ns:
            queue.popleft()
        if len(queue) >= self.queue_cap:
            series = (f'serve_rejected_total{{backend="{backend.name}",'
                      f'op="{op}"}}')
            self.admission[series] = self.admission.get(series, 0) + 1
            raise BusyError(
                f"backend {backend.name} queue full "
                f"({len(queue)}/{self.queue_cap}); retry later")

    def _complete(self, idx: int, service_ns: float) -> None:
        """Record an admitted request's completion on the queue."""
        if self.queue_cap == 0 or self._arrival_ns is None:
            return
        queue = self._queues[idx]
        begin = queue[-1] if queue else self._arrival_ns
        queue.append(max(begin, self._arrival_ns) + service_ns)
        depth = len(queue)
        if depth > self._queue_high_water[idx]:
            self._queue_high_water[idx] = depth
            name = self.backends[idx].name
            self.admission[f'serve_queue_depth{{backend="{name}"}}'] = depth

    def _dispatch(self, tenant: str, op: str,
                  fn: Callable[[ObjStorage], T]) -> T:
        idx = self.route(tenant)
        self._admit(idx, op)
        backend = self.backends[idx]
        start = backend.sim_ns()
        result = fn(backend)
        self._complete(idx, backend.sim_ns() - start)
        try:
            series = self._request_series[idx, op]
        except KeyError:
            series = self._request_series[idx, op] = (
                f'serve_requests_total{{backend="{backend.name}",'
                f'op="{op}"}}')
            self.admission[series] = 0
        self.admission[series] += 1
        return result

    # -- verbs --------------------------------------------------------------

    def put(self, tenant: str, data: bytes,
            obj_id: Optional[str] = None) -> str:
        return self._dispatch(tenant, "put",
                              lambda b: b.put(tenant, data, obj_id))

    def get(self, tenant: str, obj_id: str) -> bytes:
        return self._dispatch(tenant, "get",
                              lambda b: b.get(tenant, obj_id))

    def exists(self, tenant: str, obj_id: str) -> bool:
        return self._dispatch(tenant, "exists",
                              lambda b: b.exists(tenant, obj_id))

    def delete(self, tenant: str, obj_id: str) -> None:
        return self._dispatch(tenant, "delete",
                              lambda b: b.delete(tenant, obj_id))

    def list_objects(self, tenant: str) -> List[str]:
        return self._dispatch(tenant, "list",
                              lambda b: b.list_objects(tenant))

    # -- accounting ---------------------------------------------------------

    def sim_ns(self) -> float:
        return sum(b.sim_ns() for b in self.backends)

    def attach_telemetry(self, telemetry) -> None:
        for backend in self.backends:
            backend.attach_telemetry(telemetry)
