"""Per-operation span tracing over simulated time.

A span is one timed region of one virtual CPU's timeline: a VFS call, the
journal commit inside it, the lock wait that preceded it, one page fault.
Timestamps are the :class:`~repro.clock.SimClock` nanoseconds of the CPU
the span ran on — never the wall clock — and recording a span charges
nothing, so enabling tracing cannot perturb any simulated result.

The default handle on every :class:`~repro.clock.SimContext` is the shared
:data:`NULL_TRACER`, whose ``span`` returns one reusable no-op context
manager: instrumentation in hot paths costs a method call when tracing is
off.  A real :class:`Tracer` keeps spans in a bounded ring buffer (oldest
spans drop first) and maintains one open-span stack per CPU so nesting
reflects the call structure on that CPU's virtual timeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..clock import SimContext

DEFAULT_CAPACITY = 65_536


@dataclass(frozen=True)
class SpanRecord:
    """One completed span on one virtual CPU."""

    span_id: int
    parent_id: Optional[int]
    name: str
    cpu: int
    start_ns: float
    end_ns: float
    depth: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


class _NullSpan:
    """Reusable no-op context manager handed out when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Default-off trace handle: every operation is a no-op.

    Shared as :data:`NULL_TRACER`; it is stateless, so one instance serves
    every context.
    """

    enabled = False

    def span(self, ctx: "SimContext", name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, cpu: int, start_ns: float, end_ns: float,
               **attrs) -> None:
        return None

    def spans(self) -> List[SpanRecord]:
        return []

    def clear(self) -> None:
        return None


NULL_TRACER = NullTracer()


class _OpenSpan:
    __slots__ = ("tracer", "ctx", "name", "attrs", "span_id", "parent_id",
                 "start_ns", "depth")

    def __init__(self, tracer: "Tracer", ctx: "SimContext", name: str,
                 attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.ctx = ctx
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_OpenSpan":
        self.tracer._push(self)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._pop(self)


class Tracer(NullTracer):
    """Collects spans into a bounded in-memory ring buffer.

    ``span(ctx, name, **attrs)`` opens a nested span on ``ctx.cpu``;
    ``record`` logs an already-timed interval (e.g. a simulated lock wait)
    without touching the open-span stack beyond parent attribution.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[SpanRecord] = deque(maxlen=capacity)
        self._stacks: Dict[int, List[_OpenSpan]] = {}
        self._next_id = 1
        self.dropped = 0

    # -- span lifecycle -----------------------------------------------------

    def span(self, ctx: "SimContext", name: str, **attrs) -> _OpenSpan:
        return _OpenSpan(self, ctx, name, attrs)

    def _push(self, span: _OpenSpan) -> None:
        stack = self._stacks.setdefault(span.ctx.cpu, [])
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = stack[-1].span_id if stack else None
        span.depth = len(stack)
        span.start_ns = span.ctx.now
        stack.append(span)

    def _pop(self, span: _OpenSpan) -> None:
        stack = self._stacks.get(span.ctx.cpu, [])
        if not stack or stack[-1] is not span:
            # exits must mirror entries per CPU; tolerate (drop) mismatches
            # rather than corrupting an experiment mid-run
            if span in stack:
                stack.remove(span)
            return
        stack.pop()
        self._append(SpanRecord(
            span_id=span.span_id, parent_id=span.parent_id, name=span.name,
            cpu=span.ctx.cpu, start_ns=span.start_ns, end_ns=span.ctx.now,
            depth=span.depth, attrs=span.attrs))

    def record(self, name: str, cpu: int, start_ns: float, end_ns: float,
               **attrs) -> None:
        stack = self._stacks.get(cpu, [])
        parent_id = stack[-1].span_id if stack else None
        span_id = self._next_id
        self._next_id += 1
        self._append(SpanRecord(
            span_id=span_id, parent_id=parent_id, name=name, cpu=cpu,
            start_ns=start_ns, end_ns=end_ns, depth=len(stack), attrs=attrs))

    def _append(self, record: SpanRecord) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)

    # -- introspection ------------------------------------------------------

    def spans(self) -> List[SpanRecord]:
        """Completed spans, oldest first (children precede their parents,
        since a parent closes after its children)."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self._stacks.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)
