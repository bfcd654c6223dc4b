"""Performance model for expert-parallel MoE iterations.

Prices one MoE layer pass under expert parallelism on a simulated
machine: the two all-to-alls (dispatch/combine) against the network
substrate, the expert GEMMs against the platform GEMM model — giving
the compute-vs-communication trade-off that the authors' hybrid
tensor-expert-data work [17] navigates.

All-to-all cost model: with ``p`` ranks exchanging ``b`` bytes each in a
personalized exchange, every rank sends ``(p-1)/p * b`` bytes off-rank;
pairwise-exchange scheduling pipelines this at the bottleneck link
bandwidth, plus one latency per peer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import MachineSpec
from ..kernels import GemmModel
from ..perfmodel.model import BF16_BYTES
from ..simulate.network_sim import span_link

__all__ = ["MoEPerfResult", "all_to_all_time", "simulate_moe_layer"]


def all_to_all_time(
    bytes_per_rank: float, p: int, machine: MachineSpec, num_nodes: int
) -> float:
    """Seconds for a personalized all-to-all of ``bytes_per_rank`` each."""
    if p <= 1:
        return 0.0
    # network_sim.span_link owns the intra/inter split and the (single)
    # congestion charge for multi-node spans.
    beta, alpha = span_link(machine, num_nodes)
    return (p - 1) / p * bytes_per_rank / beta + (p - 1) * alpha


@dataclass(frozen=True)
class MoEPerfResult:
    """Timing of one expert-parallel MoE layer pass (fwd+bwd)."""

    total_time: float
    expert_compute: float
    dispatch_time: float
    combine_time: float
    expert_parallel: int

    @property
    def comm_fraction(self) -> float:
        comm = self.dispatch_time + self.combine_time
        return comm / self.total_time if self.total_time else 0.0


def simulate_moe_layer(
    tokens_per_rank: int,
    dim: int,
    expert_hidden: int,
    num_experts: int,
    expert_parallel: int,
    machine: MachineSpec,
) -> MoEPerfResult:
    """Price one forward+backward of an expert-parallel MoE layer.

    ``expert_parallel`` ranks each hold ``num_experts/expert_parallel``
    experts and ``tokens_per_rank`` tokens.  Every token visits 2
    experts (top-2), so each rank computes ~``2 * tokens_per_rank``
    expert-MLP
    evaluations after an even dispatch (the load-balanced steady state
    the auxiliary loss maintains).
    """
    if num_experts % expert_parallel:
        raise ValueError(
            f"{num_experts} experts not divisible across {expert_parallel}"
        )
    if tokens_per_rank < 1:
        raise ValueError("tokens_per_rank must be >= 1")
    # Nodes spanned by the expert-parallel group under block placement.
    nodes = max(1, -(-expert_parallel // machine.gpus_per_node))

    gemm = GemmModel(machine)
    routed = tokens_per_rank * 2  # expert evaluations per rank
    # Forward: fc1 + fc2; backward: 2x (dI and dW per GEMM).
    fwd = gemm.time(routed, dim, expert_hidden) + gemm.time(
        routed, expert_hidden, dim
    )
    expert_compute = 3.0 * fwd

    # Dispatch moves each routed token's activation once, combine moves
    # it back; backward repeats both with gradients.
    payload = routed * dim * BF16_BYTES
    a2a = all_to_all_time(payload, expert_parallel, machine, nodes)
    dispatch = 2.0 * a2a  # forward + backward
    combine = 2.0 * a2a

    return MoEPerfResult(
        total_time=expert_compute + dispatch + combine,
        expert_compute=expert_compute,
        dispatch_time=dispatch,
        combine_time=combine,
        expert_parallel=expert_parallel,
    )
