"""Analytic costs for two-level hierarchical collectives, and the
flat-vs-hierarchical algorithm selector.

Extends the flat-ring Eqs. 1–5 (:mod:`repro.perfmodel.ring`) with the
two-level decomposition of :mod:`repro.runtime.hierarchical`: a group of
``p = L * Q`` ranks (``Q`` nodes, ``L`` members each) runs its intra
phases at ``intra_node_bw`` and its leaders phase at Eq. 7's shared NIC
bandwidth ``case2_bandwidth(machine, L)`` — the ``L`` simultaneous
cross-node rings divide the node's NIC aggregate.  The three priced ops
are the ones Algorithm 1 issues: all-reduce, reduce-scatter and
all-gather.

Where the win comes from in this model: the network substrate lets a
lone flat ring drive the full NIC aggregate (it enters and leaves each
node once), so for asymptotically large messages the flat ring's
bandwidth term is never worse than the two-level sum.  The hierarchical
advantage is the startup-step reduction — ``O(p)`` inter-node latency
steps collapse to ``O(Q)`` inter + ``O(L)`` intra — which dominates for
the small-to-medium messages and large node counts where NCCL rings are
latency-bound (the regime Dash et al. target on Frontier).  The
selector therefore defaults to the canonical per-step latencies rather
than Assumption 3's ``alpha = 0``; the crossover it computes is
published by ``benchmarks/bench_hierarchical.py`` and cross-validated
against the discrete-event simulator (Fig. 2-style) in
``tests/test_hierarchical.py``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from ..cluster import (
    INTER_NODE_LATENCY,
    INTRA_NODE_LATENCY,
    Placement,
    build_ring,
    inter_node_edges,
    ring_bottleneck_bandwidth,
)
from ..runtime.hierarchical import decompose_by_node
from .bandwidth import case2_bandwidth
from .ring import (
    TIME_FNS,
    all_gather_time,
    all_reduce_time,
    reduce_scatter_time,
)

__all__ = [
    "AlgorithmChoice",
    "flat_time",
    "hierarchical_time",
    "choose_algorithm",
    "cached_choose_algorithm",
    "clear_choice_cache",
]

#: Ops the two-level decomposition covers.
HIERARCHICAL_OPS = ("all_reduce", "reduce_scatter", "all_gather")


def flat_time(
    op: str, nbytes: float, p: int, beta: float, alpha: float = 0.0
) -> float:
    """Flat-ring cost of ``op`` (Eqs. 1–5 dispatch).

    ``nbytes`` follows the traced-record convention: input-buffer bytes
    for ``all_reduce``/``reduce_scatter``, per-rank shard
    bytes for ``all_gather``.
    """
    try:
        fn = TIME_FNS[op]
    except KeyError:
        raise ValueError(f"unknown collective {op!r}") from None
    return fn(nbytes, p, beta, alpha)


def hierarchical_time(
    op: str,
    nbytes: float,
    L: int,
    Q: int,
    beta_intra: float,
    beta_leaders: float,
    alpha_intra: float = 0.0,
    alpha_leaders: float = 0.0,
) -> float:
    """Cost of the two-level algorithm over ``Q`` nodes x ``L`` members.

    Phase-by-phase sums of the flat-ring formulas, matching exactly what
    :mod:`repro.runtime.hierarchical` executes:

    * ``all_reduce``: intra reduce-scatter of the full buffer, leaders
      all-reduce of the ``1/L`` slice, intra all-gather of the slice;
    * ``reduce_scatter``: intra reduce-scatter, leaders reduce-scatter
      of the slice;
    * ``all_gather`` (``nbytes`` = shard): leaders all-gather, then the
      intra all-gather of the ``Q``-fold concatenation.
    """
    if L < 1 or Q < 1:
        raise ValueError(f"need L, Q >= 1, got L={L}, Q={Q}")
    if op == "all_reduce":
        return (
            reduce_scatter_time(nbytes, L, beta_intra, alpha_intra)
            + all_reduce_time(nbytes / L, Q, beta_leaders, alpha_leaders)
            + all_gather_time(nbytes / L, L, beta_intra, alpha_intra)
        )
    if op == "reduce_scatter":
        return (
            reduce_scatter_time(nbytes, L, beta_intra, alpha_intra)
            + reduce_scatter_time(nbytes / L, Q, beta_leaders, alpha_leaders)
        )
    if op == "all_gather":
        return (
            all_gather_time(nbytes, Q, beta_leaders, alpha_leaders)
            + all_gather_time(Q * nbytes, L, beta_intra, alpha_intra)
        )
    raise ValueError(f"unknown collective {op!r}")


@dataclass(frozen=True)
class AlgorithmChoice:
    """Outcome of one flat-vs-hierarchical selection."""

    op: str
    nbytes: float
    algo: str  # "flat" | "hierarchical"
    flat_time: float
    hier_time: float  # inf when the group does not decompose
    L: int = 0
    Q: int = 0

    @property
    def speedup(self) -> float:
        """Flat time over the selected algorithm's time (>= 1)."""
        best = min(self.flat_time, self.hier_time)
        return self.flat_time / best if best > 0 else 1.0


def choose_algorithm(
    op: str,
    nbytes: float,
    ranks: Sequence[int],
    placement: Placement,
) -> AlgorithmChoice:
    """Pick flat vs. hierarchical for one (group, message, placement).

    Styled after the kernel autotuner (:mod:`repro.kernels.tuner`): price
    both candidates with the analytic model and keep the cheaper one.
    Groups that fit in a node, place one member per node, or spread
    unevenly across nodes never select hierarchical (there is no valid
    two-level decomposition to run).
    """
    p = len(ranks)
    machine = placement.machine
    if p <= 1:
        return AlgorithmChoice(op, nbytes, "flat", 0.0, math.inf)
    ring = build_ring(list(ranks), placement)
    beta_flat = ring_bottleneck_bandwidth(ring, placement)
    inter = inter_node_edges(ring, placement)
    alpha_flat = INTER_NODE_LATENCY if inter else INTRA_NODE_LATENCY
    t_flat = flat_time(op, nbytes, p, beta_flat, alpha_flat)

    dec = decompose_by_node(ranks, placement)
    if dec is None:
        return AlgorithmChoice(op, nbytes, "flat", t_flat, math.inf)
    # L simultaneous cross rings share the NICs (Eq. 7).
    beta_leaders = case2_bandwidth(machine, dec.L)
    t_hier = hierarchical_time(
        op, nbytes, dec.L, dec.Q,
        machine.intra_node_bw, beta_leaders,
        INTRA_NODE_LATENCY, INTER_NODE_LATENCY,
    )
    algo = "hierarchical" if t_hier < t_flat else "flat"
    return AlgorithmChoice(op, nbytes, algo, t_flat, t_hier, L=dec.L, Q=dec.Q)


@functools.lru_cache(maxsize=16384)
def _cached_choice(
    op: str,
    nbytes: float,
    ranks: tuple[int, ...],
    placement: Placement,
) -> AlgorithmChoice:
    return choose_algorithm(op, nbytes, ranks, placement)


def cached_choose_algorithm(
    op: str,
    nbytes: float,
    ranks: Sequence[int],
    placement: Placement,
) -> AlgorithmChoice:
    """Memoized :func:`choose_algorithm`.

    The selector is a pure function of ``(op, nbytes, group,
    placement)``, and a training step asks it the same question once per
    identical layer — a GPT stack's repeated blocks collapse to a
    handful of distinct keys.  Used by the runtime router so traced
    iterations don't rebuild rings per collective call.
    """
    return _cached_choice(op, float(nbytes), tuple(ranks), placement)


def clear_choice_cache() -> None:
    """Drop the algorithm-selection memo."""
    _cached_choice.cache_clear()
