"""Where an op's time goes, by layer — read from outside the program.

Two sources, both from the traced pass:

* the ``Tracer``: the program's own counters and collective spans, and
  the self time of every span (a span minus its children);
* ``cProfile``: ``tottime`` and call counts summed by top-level
  ``repro.<package>``, with built-in and NumPy calls charged to the
  package that called them.  This is the paper's Fig. 5 split for the
  functional runtime.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction

_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def tracer_metrics(tracer, ops: int) -> dict[str, tuple[float, str]]:
    """The program's existing counters and collective spans, per op."""
    counters = tracer.metrics
    spans = tracer.spans
    # all_reduce runs a reduce_scatter and an all_gather inside its own
    # span: count a collective's time once, at the outermost span.
    comm = {s.name for s in spans if s.cat == "comm"}
    comm_s = sum(
        s.duration for s in spans
        if s.cat == "comm" and not comm.intersection(s.path.split(";")[:-1])
    )
    return {
        "runtime.comm_calls": (
            sum(counters.with_prefix("comm.calls").values()) / ops, "count"),
        "runtime.comm_bytes": (
            sum(counters.with_prefix("comm.bytes").values()) / ops, "bytes"),
        "core.flops": (counters.value("compute.flops.pmm3d") / ops, "count"),
        "runtime.comm_ms": (1e3 * comm_s / ops, "ms"),
    }


def span_mean_ms(tracer) -> dict[str, float]:
    """Mean duration of the spans of each name, in ms."""
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for s in tracer.spans:
        total[s.name] += s.duration
        count[s.name] += 1
    return {name: 1e3 * total[name] / count[name] for name in total}


def span_self_ms(tracer, ops: int, top: int = 12) -> dict[str, float]:
    """Self time per span name (its duration minus its children's), in
    ms per op: the ceiling on what speeding that span up can save."""
    total = tracer.by_path()  # seconds per "root;child;leaf" stack path
    child: dict[str, float] = defaultdict(float)
    for path, dur in total.items():
        if ";" in path:
            child[path.rsplit(";", 1)[0]] += dur
    by_name: dict[str, float] = defaultdict(float)
    for path, dur in total.items():
        by_name[path.rsplit(";", 1)[-1]] += dur - child[path]
    ranked = sorted(by_name.items(), key=lambda kv: -kv[1])[:top]
    return {name: 1e3 * dur / ops for name, dur in ranked}


def _layer_of(code) -> str | None:
    """The ``repro`` package a code object belongs to; ``None`` for a
    built-in (a string), NumPy, the standard library and generated code."""
    m = None if isinstance(code, str) else _PACKAGE.search(code.co_filename)
    return m.group(1) if m else None


def profile_shares(profiler, ops: int, layers) -> dict[str, tuple[float, str]]:
    """``self_share.<layer>`` and ``calls_per_op.<layer>``, for the
    ``layers`` on a workload's path, from a ``cProfile.Profile`` that ran
    ``ops`` ops."""
    # Raw entries, one per code object.  ``profiler.stats`` merges them
    # by (file, line, name), and every dataclass-generated method is
    # ('<string>', 2, '__init__'): it keeps whichever has the highest
    # address, so the counts moved from process to process.
    entries = profiler.getstats()
    layer_of = {id(e.code): _layer_of(e.code) for e in entries}
    # callee -> {caller: (calls, self seconds)} on that edge
    edges: dict[int, dict] = defaultdict(dict)
    for e in entries:
        for sub in e.calls or ():
            edges[id(sub.code)][id(e.code)] = (Fraction(sub.callcount), sub.inlinetime)

    def owners(key, field, seen=()):
        """Layers a function's cost is charged to, as weights summing to
        one: its own package, or else its callers' (split by ``field``
        of the caller edges: 0 = calls, 1 = self time).  Call weights
        are exact fractions, so the result does not depend on the order
        in which the profiler lists functions."""
        if layer_of[key] is not None:
            return {layer_of[key]: 1}
        callers = {
            c: edge[field] for c, edge in edges[key].items()
            if c not in seen and c != key
        }
        weight = sum(callers.values())
        out: dict = defaultdict(int)
        for caller, w in callers.items():
            if w:
                for name, share in owners(caller, field, seen + (key,)).items():
                    out[name] += share * w / weight
        return out

    seconds: dict = defaultdict(float)
    calls: dict = defaultdict(Fraction)
    for e in entries:
        for layer, share in owners(id(e.code), 1).items():
            seconds[layer] += share * e.inlinetime
        for layer, share in owners(id(e.code), 0).items():
            calls[layer] += share * e.callcount
    total = sum(e.inlinetime for e in entries)
    out = {}
    for layer in layers:
        out[f"self_share.{layer}"] = (seconds[layer] / total, "share")
        out[f"calls_per_op.{layer}"] = (float(calls[layer] / ops), "count")
    return out
