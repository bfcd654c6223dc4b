"""Simulated "measured" bandwidths for the discrete-event executor.

Where the analytical model uses Eq. 7, the simulator derives each
process-group's bandwidth from the actual ring layout: it builds the
representative group's ring on the placement, collects every sibling
group whose ring touches the same nodes, and asks the network substrate
(:func:`repro.cluster.shared_ring_bandwidths`) how much bandwidth the
representative ring's bottleneck edge receives under that contention.
It also charges per-step message latency, which the analytical model
ignores by Assumption 3 — one of the real-world effects the model
validation (Fig. 2) must survive.

:func:`measured_group_bandwidth` and :func:`hierarchical_group_timing`
walk every rank in Python: they are the readable definition of a link
timing and the oracle of ``tests/test_sim_differential.py``.  The
simulator itself reads the same values, bitwise, from the vectorized
and memoized :func:`repro.simulate.engine.group_timings`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import (
    INTER_NODE_LATENCY,
    INTRA_NODE_LATENCY,
    MachineSpec,
    Placement,
    build_ring,
    shared_ring_bandwidths,
)
from ..core.grid import Grid4D

__all__ = [
    "LinkTiming",
    "HierTiming",
    "measured_group_bandwidth",
    "hierarchical_group_timing",
    "congestion_factor",
    "effective_inter_node_bw",
    "span_link",
]

#: Dragonfly congestion: jobs spanning thousands of nodes see inter-node
#: bandwidth degraded by adaptive-routing contention and background
#: traffic (the run-to-run interference the paper reports in VI-B).
#: Mild below ~1k nodes, substantial at Frontier's 4096-node scale.
CONGESTION_COEFF = 0.9
CONGESTION_REF_NODES = 4096.0
CONGESTION_EXP = 1.2


def congestion_factor(job_nodes: int) -> float:
    """Multiplier (>= 1) dividing inter-node bandwidth at job scale."""
    if job_nodes <= 1:
        return 1.0
    return 1.0 + CONGESTION_COEFF * (job_nodes / CONGESTION_REF_NODES) ** CONGESTION_EXP


def effective_inter_node_bw(machine: MachineSpec, job_nodes: int) -> float:
    """Congestion-degraded NIC-aggregate bandwidth for a job of
    ``job_nodes`` nodes.

    This module is the single owner of the congestion charge: every
    consumer (the executor via :func:`measured_group_bandwidth`, the
    pipeline model, the MoE all-to-all model) must derive inter-node
    bandwidths through here rather than dividing by
    :func:`congestion_factor` itself, so no path charges it twice.
    """
    return machine.inter_node_bw / congestion_factor(job_nodes)


def span_link(
    machine: MachineSpec, span_nodes: int, job_nodes: int | None = None
) -> tuple[float, float]:
    """``(bandwidth, per-step latency)`` for traffic spanning
    ``span_nodes`` nodes of a ``job_nodes``-node job.

    Single-node spans use the intra-node fabric and NVLink latency —
    congestion models *inter-node* contention and never applies inside
    a node.  Multi-node spans get the congestion-degraded NIC aggregate
    and NIC latency.  ``job_nodes`` defaults to ``span_nodes``.
    """
    if span_nodes <= 1:
        return machine.intra_node_bw, INTRA_NODE_LATENCY
    if job_nodes is None:
        job_nodes = span_nodes
    return effective_inter_node_bw(machine, job_nodes), INTER_NODE_LATENCY


@dataclass(frozen=True)
class LinkTiming:
    """Effective bandwidth and per-step latency for one process group."""

    bandwidth: float  # bytes/s (inf for size-1 groups)
    latency: float  # seconds per ring step
    group_size: int


def measured_group_bandwidth(
    grid: Grid4D, placement: Placement, axis: str
) -> LinkTiming:
    """Bandwidth/latency of collectives along ``axis``, under contention
    from every sibling group sharing its nodes."""
    rep = grid.group_along(axis, 0)
    if rep.size == 1:
        return LinkTiming(float("inf"), 0.0, 1)

    nodes = placement.nodes_spanned(list(rep.ranks))
    # Collect all axis-groups with a member on those nodes, using the
    # placement's actual rank -> node mapping (block or otherwise).
    seen: set[tuple[int, ...]] = set()
    rings = []
    rep_idx = None
    for r in range(placement.num_gpus):
        if placement.node_of(r) not in nodes:
            continue
        g = grid.group_along(axis, r)
        if g.ranks in seen:
            continue
        seen.add(g.ranks)
        if g.ranks == rep.ranks:
            rep_idx = len(rings)
        rings.append(build_ring(list(g.ranks), placement))
    assert rep_idx is not None
    bws = shared_ring_bandwidths(rings, placement)

    rep_ring = rings[rep_idx]
    crosses = any(
        placement.node_of(a) != placement.node_of(b) for a, b in rep_ring.edges()
    )
    latency = INTER_NODE_LATENCY if crosses else INTRA_NODE_LATENCY
    bw = bws[rep_idx]
    if crosses:
        bw /= congestion_factor(placement.num_nodes)
    return LinkTiming(bw, latency, rep.size)


@dataclass(frozen=True)
class HierTiming:
    """Measured timings for a group's two-level decomposition.

    ``intra`` prices the per-node sub-group rings, ``leaders`` one of
    the ``L`` simultaneous cross-node rings (its bandwidth already
    reflects NIC sharing between the cross rings of *all* sibling axis
    groups, plus the job-scale congestion charge).
    """

    intra: LinkTiming
    leaders: LinkTiming
    L: int
    Q: int


def hierarchical_group_timing(
    grid: Grid4D, placement: Placement, axis: str
) -> HierTiming | None:
    """Timings of the two-level decomposition of ``axis``'s groups, or
    ``None`` when they do not decompose (single node, one member per
    node, or uneven spread).

    Mirrors :func:`measured_group_bandwidth`: every sibling axis group
    with a member on the representative group's nodes runs the same
    decomposition simultaneously, so the intra-node rings of all
    siblings contend for device pairs and their cross rings contend for
    the NICs.  Intra and cross phases never run at the same instant but
    use disjoint links, so pooling them in one sharing computation only
    couples same-kind streams — exactly the contention each phase sees.
    """
    from ..runtime.hierarchical import decompose_by_node

    rep = grid.group_along(axis, 0)
    if rep.size == 1:
        return None
    rep_dec = decompose_by_node(rep.ranks, placement)
    if rep_dec is None:
        return None

    nodes = placement.nodes_spanned(list(rep.ranks))
    seen: set[tuple[int, ...]] = set()
    rings = []
    rep_intra: list[int] = []
    rep_cross: list[int] = []
    for r in range(placement.num_gpus):
        if placement.node_of(r) not in nodes:
            continue
        g = grid.group_along(axis, r)
        if g.ranks in seen:
            continue
        seen.add(g.ranks)
        dec = decompose_by_node(g.ranks, placement)
        if dec is None:
            # A sibling that cannot decompose runs its flat ring; it
            # still contends for the same links.
            rings.append(build_ring(list(g.ranks), placement))
            continue
        is_rep = g.ranks == rep.ranks
        for ng in dec.node_groups:
            if is_rep:
                rep_intra.append(len(rings))
            rings.append(build_ring(list(ng.ranks), placement))
        for cg in dec.cross_groups:
            if is_rep:
                rep_cross.append(len(rings))
            rings.append(build_ring(list(cg.ranks), placement))
    bws = shared_ring_bandwidths(rings, placement)
    intra_bw = min(bws[i] for i in rep_intra)
    leaders_bw = min(bws[i] for i in rep_cross)
    leaders_bw /= congestion_factor(placement.num_nodes)
    return HierTiming(
        intra=LinkTiming(intra_bw, INTRA_NODE_LATENCY, rep_dec.L),
        leaders=LinkTiming(leaders_bw, INTER_NODE_LATENCY, rep_dec.Q),
        L=rep_dec.L,
        Q=rep_dec.Q,
    )
