"""Exporters: Chrome ``trace_event`` JSON, ``BENCH_*.json`` summaries,
and ASCII flamegraphs.

All exporters consume one event schema, :class:`TraceEvent` — produced
by :meth:`repro.telemetry.Tracer` wall-clock spans *and* by the
discrete-event simulator's :meth:`repro.simulate.trace.Timeline`
(simulated seconds), so a profiled virtual-runtime step and a simulated
Frontier iteration open in the same ``chrome://tracing`` / Perfetto UI.

The Chrome format emitted is the "JSON object" flavor: a top-level
object with a ``traceEvents`` array of complete (``"ph": "X"``) events,
timestamps/durations in microseconds — the subset every trace viewer
accepts.  :func:`validate_chrome_trace` checks a document against that
contract and is what the test suite (and the bench-spine-smoke CI job) runs
in place of a real Perfetto instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from .spans import Tracer

__all__ = [
    "TraceEvent",
    "tracer_events",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "bench_summary",
    "write_bench_json",
    "BENCH_SCHEMA",
    "ascii_flamegraph",
]

#: Schema tag stamped into every ``BENCH_*.json`` summary.
BENCH_SCHEMA = "repro.bench/v1"

#: Chrome trace event phases this exporter emits / the validator accepts.
_KNOWN_PHASES = {"X", "B", "E", "i", "M", "C"}


@dataclass(frozen=True)
class TraceEvent:
    """One interval in the unified telemetry schema.

    ``start``/``duration`` are seconds on the producer's clock — wall
    time for runtime spans, simulated time for simulator timelines; the
    Chrome exporter converts to microseconds.  ``tid`` is the lane the
    viewer draws the event on (span stack, GPU stream, rank, ...).
    """

    name: str
    start: float
    duration: float
    cat: str = ""
    tid: str = "main"
    pid: str = "repro"
    args: dict[str, Any] = field(default_factory=dict)


def tracer_events(tracer: Tracer) -> list[TraceEvent]:
    """A tracer's spans in the unified schema."""
    return [
        TraceEvent(
            name=s.name,
            start=s.start,
            duration=s.duration,
            cat=s.cat or "span",
            tid=s.tid,
            args=dict(s.args, depth=s.depth) if s.args else {"depth": s.depth},
        )
        for s in tracer.spans
    ]


def chrome_trace(
    events: Iterable[TraceEvent] | Tracer,
    metadata: Mapping[str, Any] | None = None,
) -> dict:
    """Render events as a Chrome ``trace_event`` JSON document (dict).

    Accepts either unified-schema events or a :class:`Tracer` directly.
    """
    if isinstance(events, Tracer):
        events = tracer_events(events)
    trace_events = [
        {
            "name": e.name,
            "cat": e.cat or "span",
            "ph": "X",
            "ts": e.start * 1e6,
            "dur": e.duration * 1e6,
            "pid": e.pid,
            "tid": e.tid,
            "args": e.args,
        }
        for e in events
    ]
    doc: dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["otherData"] = dict(metadata)
    return doc


def validate_chrome_trace(doc: Any) -> list[str]:
    """Problems making ``doc`` unloadable by ``chrome://tracing``/Perfetto.

    Returns an empty list for a valid document.  Checks the JSON-object
    format contract: a ``traceEvents`` array whose entries carry a
    string ``name``, a known ``ph``, numeric non-negative ``ts`` (and
    ``dur`` for complete events), and ``pid``/``tid`` identifiers.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
        if ph != "M" and not isinstance(e.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                problems.append(
                    f"{where}: complete event needs non-negative 'dur'"
                )
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), (int, str)):
                problems.append(f"{where}: '{key}' must be an int or string")
    return problems


def write_chrome_trace(
    path: str | Path,
    events: Iterable[TraceEvent] | Tracer,
    metadata: Mapping[str, Any] | None = None,
) -> Path:
    """Write a Chrome-trace JSON file; returns the path written.

    The document is validated before writing — emitting a trace no
    viewer can open is a bug, not an artifact.
    """
    doc = chrome_trace(events, metadata)
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(f"refusing to write invalid trace: {problems[:3]}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


# -- BENCH_*.json summaries -----------------------------------------------------


def bench_summary(
    name: str,
    metrics: Mapping[str, Any] | Tracer,
    meta: Mapping[str, Any] | None = None,
) -> dict:
    """The flat ``BENCH_*.json`` document: schema tag, bench name, a
    flat metrics mapping, and free-form metadata (config, grid, ...)."""
    if isinstance(metrics, Tracer):
        metrics = metrics.metrics.as_dict()
    return {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "metrics": dict(metrics),
        "meta": dict(meta or {}),
    }


def write_bench_json(
    directory: str | Path,
    name: str,
    metrics: Mapping[str, Any] | Tracer,
    meta: Mapping[str, Any] | None = None,
) -> Path:
    """Write ``<directory>/BENCH_<name>.json``; returns the path."""
    doc = bench_summary(name, metrics, meta)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# -- ASCII flamegraph -----------------------------------------------------------


def ascii_flamegraph(tracer: Tracer, width: int = 72) -> str:
    """Render the tracer's span hierarchy as a text flamegraph."""
    from ..tools.ascii_plot import flamegraph

    return flamegraph(tracer.by_path(), width=width)
