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

This module holds the timing records and the congestion charge; the
one engine that computes the timings is
:func:`repro.simulate.engine.group_timings` (vectorized and memoized).
Per-rank Python walks that define the same timings readably are its
test oracle (``tests/oracles/network.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import INTER_NODE_LATENCY, INTRA_NODE_LATENCY, MachineSpec

__all__ = [
    "LinkTiming",
    "HierTiming",
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

    This module is the single owner of the congestion charge.  The
    timing engine divides each cross-node ring's contended bandwidth by
    :func:`congestion_factor`; the pipeline model and the MoE all-to-all
    model derive their inter-node bandwidth here.  No path charges it
    twice.
    """
    return machine.inter_node_bw / congestion_factor(job_nodes)


def span_link(machine: MachineSpec, span_nodes: int) -> tuple[float, float]:
    """``(bandwidth, per-step latency)`` for traffic spanning
    ``span_nodes`` nodes of a job that spans no more.

    Single-node spans use the intra-node fabric and NVLink latency —
    congestion models *inter-node* contention and never applies inside
    a node.  Multi-node spans get the congestion-degraded NIC aggregate
    and NIC latency.
    """
    if span_nodes <= 1:
        return machine.intra_node_bw, INTRA_NODE_LATENCY
    return effective_inter_node_bw(machine, span_nodes), INTER_NODE_LATENCY


@dataclass(frozen=True)
class LinkTiming:
    """Effective bandwidth and per-step latency for one process group."""

    bandwidth: float  # bytes/s (inf for size-1 groups)
    latency: float  # seconds per ring step
    group_size: int


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
