"""Low-overhead span tracing for the virtual runtime.

A :class:`Tracer` records nested, named time intervals ("spans") plus a
:class:`~repro.telemetry.metrics.MetricsRegistry` of counters — together
they answer the question every scaling decision in the paper starts
from: *where do the time and the bytes go?*

Design constraints, in order:

1. **Zero cost when disabled.**  Instrumented call sites go through
   :func:`get_tracer` (one global read + ``None`` check) or the
   :func:`traced` decorator (same check, then a direct call of the
   wrapped function).  No context manager, no allocation, no string
   formatting happens unless a tracer is active.
2. **Nestable.**  Spans form a stack; each recorded span knows its
   depth and its full ``root;child;leaf`` path, which is exactly the
   input an (ASCII) flamegraph needs.
3. **One event schema.**  Spans convert to the
   :class:`~repro.telemetry.export.TraceEvent` records shared with the
   discrete-event simulator's :class:`~repro.simulate.trace.Timeline`,
   so wall-clock profiles of the virtual runtime and simulated
   timelines export through the same Chrome-trace path.

Activation is scoped::

    from repro.telemetry import Tracer, telemetry_scope

    tracer = Tracer()
    with telemetry_scope(tracer):
        model.loss(ids)          # instrumented layers record into tracer
    print(tracer.metrics.counter("comm.bytes.all_reduce").value)
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from .metrics import MetricsRegistry

__all__ = [
    "Span",
    "Tracer",
    "traced",
    "get_tracer",
    "set_tracer",
    "telemetry_scope",
]


@dataclass(frozen=True)
class Span:
    """One completed interval on the tracer's wall clock."""

    name: str
    cat: str  # "comm" | "compute" | "train" | "ckpt" | "" ...
    start: float  # seconds, tracer-clock origin
    duration: float
    depth: int  # nesting depth at which the span ran (0 = root)
    path: str  # "root;child;leaf" stack path (flamegraph key)
    tid: str = "main"  # logical thread/rank lane
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class _SpanHandle:
    """Context manager for one open span (reused machinery, no closure)."""

    __slots__ = ("_tracer", "_name", "_cat", "_tid", "_args", "_t0", "_path")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: str, args):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        tr = self._tracer
        stack = tr._stack
        self._path = (
            f"{stack[-1][1]};{self._name}" if stack else self._name
        )
        stack.append((self._name, self._path))
        self._t0 = tr.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tr = self._tracer
        t1 = tr.clock()
        tr._stack.pop()
        tr._records.append(
            (
                self._name,
                self._cat,
                self._t0 - tr._origin,
                t1 - self._t0,
                len(tr._stack),
                self._path,
                self._tid,
                self._args,
            )
        )


class Tracer:
    """Collects spans and metrics for one profiled region.

    ``clock`` defaults to :func:`time.perf_counter`; tests inject a fake
    clock for deterministic durations.  ``enabled=False`` turns every
    recording method into a no-op while keeping the object around (the
    disabled path the acceptance criteria benchmark).
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self.metrics = MetricsRegistry()
        # Completed spans live as plain tuples until read through the
        # ``spans`` property — dataclass construction is deferred off
        # the hot path.
        self._records: list[tuple] = []
        self._coll_counters: dict[tuple[str, str], tuple] = {}
        self._stack: list[tuple[str, str]] = []
        self._origin = clock()

    @property
    def spans(self) -> list[Span]:
        """Completed spans, oldest first (materialized on access)."""
        return [
            Span(name, cat, start, dur, depth, path, tid, args or {})
            for name, cat, start, dur, depth, path, tid, args in self._records
        ]

    # -- recording ---------------------------------------------------------

    def span(
        self,
        name: str,
        cat: str = "",
        tid: str = "main",
        args: dict[str, Any] | None = None,
    ):
        """Open a nested span as a context manager."""
        if not self.enabled:
            return _NULL_CM
        return _SpanHandle(self, name, cat, tid, args)

    def count_collective(
        self, op: str, nbytes: int, tag: str = "", group_size: int = 1
    ) -> None:
        """Accumulate one collective call into the byte/call counters.

        This is the single funnel the runtime collectives report
        through: per-op call and byte counters, plus per-tag bytes (the
        granularity :mod:`repro.perfmodel.volume` predicts analytically).
        """
        if not self.enabled:
            return
        counters = self._coll_counters.get((op, tag))
        if counters is None:
            m = self.metrics
            counters = (
                m.counter(f"comm.calls.{op}"),
                m.counter(f"comm.bytes.{op}"),
                m.counter(f"comm.tag_bytes.{tag}") if tag else None,
            )
            self._coll_counters[(op, tag)] = counters
        calls, total_bytes, tag_bytes = counters
        calls.add(1)
        total_bytes.add(nbytes)
        if tag_bytes is not None:
            tag_bytes.add(nbytes)

    # -- views -------------------------------------------------------------

    def by_path(self) -> dict[str, float]:
        """Cumulative seconds per stack path (flamegraph frames)."""
        out: dict[str, float] = {}
        for rec in self._records:
            path, dur = rec[5], rec[3]
            out[path] = out.get(path, 0.0) + dur
        return out

    def total_time(self, cat: str | None = None) -> float:
        """Summed duration of root-level spans (optionally one category)."""
        return sum(
            rec[3]
            for rec in self._records
            if rec[4] == 0 and (cat is None or rec[1] == cat)
        )

    def clear(self) -> None:
        self._records.clear()
        self.metrics.clear()
        self._coll_counters.clear()
        self._stack.clear()
        self._origin = self.clock()


class _NullContext:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_CM = _NullContext()

#: The ambient tracer; ``None`` means telemetry is off (the default).
_ACTIVE: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The ambient tracer, or ``None`` when telemetry is disabled."""
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the ambient tracer; returns the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, tracer
    return previous


@contextmanager
def telemetry_scope(tracer: Tracer):
    """Activate ``tracer`` for the duration of the ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def traced(fn: Callable | None = None, *, name: str | None = None, cat: str = ""):
    """Decorator recording a span around each call of ``fn``.

    Usable bare (``@traced``) or with options (``@traced(cat="comm")``).
    When no tracer is active the wrapper adds a single global read and
    ``None`` check — the zero-cost-when-disabled contract.
    """

    def deco(f: Callable) -> Callable:
        span_name = name if name is not None else f.__qualname__

        @functools.wraps(f)
        def wrapper(*a, **kw):
            tr = _ACTIVE
            if tr is None or not tr.enabled:
                return f(*a, **kw)
            # Inlined span bookkeeping (no handle allocation): this is
            # the hottest instrumentation path in the runtime.
            stack = tr._stack
            path = f"{stack[-1][1]};{span_name}" if stack else span_name
            stack.append((span_name, path))
            clock = tr.clock
            t0 = clock()
            try:
                return f(*a, **kw)
            finally:
                t1 = clock()
                stack.pop()
                tr._records.append(
                    (
                        span_name,
                        cat,
                        t0 - tr._origin,
                        t1 - t0,
                        len(stack),
                        path,
                        "main",
                        None,
                    )
                )

        return wrapper

    return deco if fn is None else deco(fn)
