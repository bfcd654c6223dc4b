"""Analytical ring-collective costs (Thakur & Gropp; Rabenseifner).

The paper's performance model (Assumptions 1–3) charges each collective
its ring-algorithm bandwidth term and ignores latency.  These helpers
express the three primitives; the optional ``alpha`` (per-step message
startup) is used only by the discrete-event simulator, which does *not*
make Assumption 3 — that gap is one of the realistic effects the model
validation (Fig. 2) has to survive.

All sizes are in **bytes**, bandwidths in **bytes/second**, returned
times in **seconds**.
"""

from __future__ import annotations

__all__ = [
    "all_gather_time",
    "reduce_scatter_time",
    "all_reduce_time",
]


def _check(p: int, beta: float, nbytes: float) -> None:
    if p < 1:
        raise ValueError(f"group size must be >= 1, got {p}")
    if beta <= 0:
        raise ValueError(f"bandwidth must be positive, got {beta}")
    # NaN fails every comparison, so test for the valid range and negate:
    # a silent NaN here would poison every downstream schedule estimate.
    if not nbytes >= 0:
        raise ValueError(f"byte count must be finite and >= 0, got {nbytes}")
    if nbytes == float("inf"):
        raise ValueError("byte count must be finite, got inf")


def all_gather_time(
    shard_bytes: float, p: int, beta: float, alpha: float = 0.0
) -> float:
    """Ring all-gather of ``p`` shards of ``shard_bytes`` each:
    ``(p-1) * shard / beta``  (+ ``(p-1) * alpha``)."""
    _check(p, beta, shard_bytes)
    if p == 1:
        return 0.0
    return (p - 1) * (shard_bytes / beta + alpha)


def reduce_scatter_time(
    buffer_bytes: float, p: int, beta: float, alpha: float = 0.0
) -> float:
    """Ring reduce-scatter of a ``buffer_bytes`` input per rank:
    ``(p-1)/p * buffer / beta``  (+ ``(p-1) * alpha``)."""
    _check(p, beta, buffer_bytes)
    if p == 1:
        return 0.0
    return (p - 1) / p * buffer_bytes / beta + (p - 1) * alpha


def all_reduce_time(
    buffer_bytes: float, p: int, beta: float, alpha: float = 0.0
) -> float:
    """Ring all-reduce (reduce-scatter + all-gather):
    ``2 * (p-1)/p * buffer / beta``  (+ ``2 * (p-1) * alpha``)."""
    _check(p, beta, buffer_bytes)
    if p == 1:
        return 0.0
    return 2 * (p - 1) / p * buffer_bytes / beta + 2 * (p - 1) * alpha


#: Each collective's flat-ring time function, by op name.
TIME_FNS = {
    "all_gather": all_gather_time,
    "reduce_scatter": reduce_scatter_time,
    "all_reduce": all_reduce_time,
}
