"""Performance model of TP x PP x DP hybrids (the Table I baselines).

Megatron-LM [6], MT-NLG [5], and Megatron-DeepSpeed parallelize with
1D tensor parallelism inside the node, pipeline parallelism across
nodes, and data parallelism on top.  This module prices one training
iteration of that family on our simulated machines so the benchmarks can
compare it against AxoNN's 4D algorithm:

* per-microbatch stage time: the stage's share of layers, GEMMs priced
  by the platform model (with activation recomputation, as these systems
  also checkpoint), plus Megatron's four tensor-parallel all-reduces per
  block per pass;
* the pipeline bubble: with ``m`` microbatches and ``S`` stages, work
  occupies ``m`` slots of ``S`` in flight, so the iteration takes
  ``(m + S - 1)`` slot times (GPipe and 1F1B share this steady-state
  bubble; they differ only in activation memory);
* p2p activation/gradient transfers between adjacent stages (inter-node);
* the data-parallel gradient all-reduce.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import MachineSpec
from ..config import GPTConfig
from ..kernels import GemmModel
from ..perfmodel.model import BF16_BYTES
from ..perfmodel.ring import all_reduce_time
from ..simulate.network_sim import span_link
from .partition import partition_layers

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "simulate_pipeline_iteration",
    "bubble_fraction",
]

#: Training state bytes per parameter (bf16 + grads + fp32 master/Adam).
STATE_BYTES = 16


@dataclass(frozen=True)
class PipelineConfig:
    """A Megatron-style hybrid: ``tp``-way tensor parallelism (within
    node), ``pp`` pipeline stages, ``dp`` data-parallel replicas."""

    tp: int
    pp: int
    dp: int

    def __post_init__(self) -> None:
        for name, v in (("tp", self.tp), ("pp", self.pp), ("dp", self.dp)):
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")

    @property
    def total(self) -> int:
        return self.tp * self.pp * self.dp

    def __str__(self) -> str:
        return f"(TP={self.tp}, PP={self.pp}, DP={self.dp})"


@dataclass
class PipelineResult:
    """Timing of one simulated TP x PP x DP iteration."""

    total_time: float
    compute_time: float
    bubble_time: float
    tp_comm_time: float
    p2p_time: float
    dp_time: float
    config: PipelineConfig

    @property
    def bubble_fraction(self) -> float:
        return self.bubble_time / self.total_time


def bubble_fraction(
    num_microbatches: int, num_stages: int, virtual_stages: int = 1
) -> float:
    """Idle fraction of the steady pipeline, (S-1) / (v*m + S-1).

    ``virtual_stages`` > 1 is Narayanan et al.'s interleaved schedule:
    each device owns ``v`` non-contiguous layer chunks, shrinking the
    fill/drain bubble by ``v`` at the cost of ``v``-fold more p2p
    traffic — the trick behind Megatron-LM's high pipeline efficiency.
    """
    if num_microbatches < 1 or num_stages < 1 or virtual_stages < 1:
        raise ValueError("all schedule parameters must be >= 1")
    s = num_stages
    return (s - 1) / (virtual_stages * num_microbatches + s - 1)


def simulate_pipeline_iteration(
    cfg: GPTConfig,
    global_batch: int,
    config: PipelineConfig,
    machine: MachineSpec,
    num_microbatches: int | None = None,
    activation_checkpointing: bool = True,
    virtual_stages: int = 1,
) -> PipelineResult:
    """Price one iteration of the Megatron-style hybrid.

    ``num_microbatches`` defaults to ``4 * pp``, a common setting that
    keeps the bubble fraction under ~20%.  ``virtual_stages`` > 1 uses
    the interleaved 1F1B schedule (each device hosts that many layer
    chunks), dividing the bubble and multiplying the p2p volume.
    """
    if virtual_stages < 1:
        raise ValueError("virtual_stages must be >= 1")
    if config.tp > machine.gpus_per_node:
        raise ValueError(
            f"Megatron-style TP is confined to a node "
            f"({machine.gpus_per_node} devices); got tp={config.tp}"
        )
    plan = partition_layers(cfg.num_layers, config.pp)
    if global_batch % config.dp:
        raise ValueError("global batch must divide by dp")
    m = num_microbatches if num_microbatches is not None else 4 * config.pp
    batch_per_dp = global_batch // config.dp
    if batch_per_dp % m:
        raise ValueError(
            f"per-replica batch {batch_per_dp} not divisible into {m} "
            "microbatches"
        )
    micro = batch_per_dp // m

    gemm = GemmModel(machine)
    h = cfg.hidden_size
    s = cfg.seq_len
    rows = micro * s
    # The slot time follows the slowest (largest) stage.
    layers_per_stage = plan.max_layers_per_stage()

    # --- per-microbatch, per-stage compute -------------------------------
    # The four block GEMMs under tp-way column/row splits (Megatron).
    fwd = (
        gemm.time(rows, h, 3 * h // config.tp)  # qkv
        + gemm.time(rows, h // config.tp, h)  # attn proj
        + gemm.time(rows, h, cfg.ffn_hidden // config.tp)  # fc1
        + gemm.time(rows, cfg.ffn_hidden // config.tp, h)  # fc2
    )
    # Attention core on the local heads.
    heads_loc = max(1, cfg.num_heads // config.tp)
    fwd += micro * heads_loc * (
        gemm.time(s, cfg.head_dim, s) + gemm.time(s, s, cfg.head_dim)
    )
    bwd = 2.0 * fwd + (fwd if activation_checkpointing else 0.0)
    stage_fwd_comp = layers_per_stage * fwd
    stage_bwd_comp = layers_per_stage * bwd

    # --- Megatron TP all-reduces: 2 per block in the forward, 2 in the
    # backward (plus the recompute's 2 with checkpointing), on
    # (rows x h) activations, within the node. ---------------------------
    tp_bw = machine.intra_node_bw
    act_bytes = rows * h * BF16_BYTES
    ar = all_reduce_time(act_bytes, config.tp, tp_bw)
    tp_fwd_comm = layers_per_stage * 2 * ar
    tp_bwd_comm = layers_per_stage * 2 * ar * (2 if activation_checkpointing else 1)

    # --- pipeline schedule ----------------------------------------------
    slot = stage_fwd_comp + tp_fwd_comm + stage_bwd_comp + tp_bwd_comm
    # Congestion is owned by network_sim.span_link: a single-node job
    # stays on the intra-node fabric (NVLink bandwidth and latency) and
    # never pays the dragonfly congestion charge, a multi-node job gets
    # the congestion-degraded NIC aggregate exactly once.
    nodes = machine.num_nodes(config.total)
    p2p_bw, p2p_lat = span_link(machine, nodes)
    p2p_per_boundary = act_bytes / p2p_bw + p2p_lat
    # Each microbatch crosses (pp-1) boundaries twice (activation fwd,
    # gradient bwd); interleaving multiplies the crossings by the number
    # of virtual chunks.  Transfers pipeline behind compute except at
    # the fill/drain edges — charge them once per slot edge.
    p2p_time = 2 * virtual_stages * (config.pp - 1) * p2p_per_boundary

    ideal = m * slot
    frac = bubble_fraction(m, config.pp, virtual_stages)
    # total = ideal / (1 - frac): the bubble shrinks by virtual_stages.
    pipeline_time = ideal / (1.0 - frac) + p2p_time
    bubble = pipeline_time - ideal - p2p_time

    # --- data-parallel all-reduce over each stage's gradients -----------
    grad_bytes = cfg.num_parameters() * layers_per_stage / cfg.num_layers / config.tp * BF16_BYTES
    dp_bw, _ = span_link(machine, nodes)
    dp_time = all_reduce_time(grad_bytes, config.dp, dp_bw)

    total = pipeline_time + dp_time
    return PipelineResult(
        total_time=total,
        compute_time=m * (stage_fwd_comp + stage_bwd_comp),
        bubble_time=bubble,
        tp_comm_time=m * (tp_fwd_comm + tp_bwd_comm),
        p2p_time=p2p_time,
        dp_time=dp_time,
        config=config,
    )
