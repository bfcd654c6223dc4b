"""Per-device memory accounting for 4D-parallel training.

The paper's design decisions are memory-driven: Z-sharding exists
because "copies of W along the Z-axis" (Agarwal's original algorithm)
would not fit; activation checkpointing is enabled in every run because
of "the extremely large activation memory requirements of training GPT
models" (Section VI-A).  This model quantifies both, per device:

* **weights** — bf16 copies of the rank's shards (params / G_tensor x 2 B);
* **master + optimizer** — fp32 master weights and Adam moments over the
  same shards (12 B/param), i.e. ZeRO-1-style state sharding;
* **gradients** — bf16, same sharding (2 B/param);
* **activations** — with checkpointing, only the block-boundary
  activations plus one block's working set; without, every block's
  internal tensors (including the attention score matrices) stay live;
* **workspace** — the largest all-gathered weight block W_{j,i} (line 2
  of Algorithm 1) plus collective staging buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import MachineSpec
from ..config import GPTConfig
from ..core.grid import GridConfig
from ..perfmodel.model import BF16_BYTES

__all__ = ["MemoryBreakdown", "estimate_memory", "max_batch_per_replica"]

FP32 = 4


@dataclass(frozen=True)
class MemoryBreakdown:
    """Bytes per device, by category."""

    weights: float
    gradients: float
    master_and_optimizer: float
    activations: float
    workspace: float

    @property
    def total(self) -> float:
        return (
            self.weights
            + self.gradients
            + self.master_and_optimizer
            + self.activations
            + self.workspace
        )

    @property
    def model_state(self) -> float:
        """Everything that scales with parameters (the ZeRO '16 bytes')."""
        return self.weights + self.gradients + self.master_and_optimizer

    def fits(self, machine: MachineSpec, headroom: float = 0.9) -> bool:
        """Whether the footprint fits one device, leaving ``1-headroom``
        for fragmentation and framework overheads."""
        return self.total <= machine.gpu.memory_bytes * headroom


def _activation_bytes(
    cfg: GPTConfig,
    config: GridConfig,
    batch_per_replica: int,
    checkpointing: bool,
) -> float:
    """Live activation bytes on one device during the backward pass.

    Sequence parallelism shards the token rows by ``G_seq``, and ring
    attention keeps only one (S/G_seq x S/G_seq) score block live at a
    time — the quadratic attention term shrinks by ``G_seq^2``, which is
    what makes long contexts fit at all.
    """
    s_loc = max(1, cfg.seq_len // config.gs)
    rows = max(1, batch_per_replica // config.gz) * s_loc
    h_y = cfg.hidden_size / config.gy  # layout-A feature shard
    h_x = cfg.hidden_size / config.gx  # layout-B feature shard
    b_loc = max(1, batch_per_replica // config.gz)
    heads_loc = max(1, cfg.num_heads // config.gx)

    # One block's working set: LN output (A), QKV output (3x B), attention
    # scores + probs (2 x b*heads*S^2), attention output (B), proj output
    # (A), LN2 (A), FC1 output (ffn/ Gx), GELU (same), FC2 output (A).
    block_ws = (
        rows * h_y * BF16_BYTES * 4  # ln1, proj out, ln2, fc2 out (layout A)
        + rows * h_x * BF16_BYTES * 4  # q, k, v, attn out (layout B)
        + 2 * b_loc * heads_loc * s_loc**2 * BF16_BYTES  # scores, probs
        + 2 * rows * (cfg.ffn_hidden / config.gx) * BF16_BYTES  # fc1 out, gelu
    )
    boundary = rows * h_y * BF16_BYTES  # the residual stream entering a block
    if checkpointing:
        # Boundaries for every block + one block being recomputed.
        return cfg.num_layers * boundary + block_ws
    return cfg.num_layers * (boundary + block_ws)


def estimate_memory(
    cfg: GPTConfig,
    config: GridConfig,
    batch_per_replica: int,
    checkpointing: bool = True,
) -> MemoryBreakdown:
    """Per-device memory footprint of training ``cfg`` on ``config``."""
    if batch_per_replica < 1:
        raise ValueError("batch_per_replica must be >= 1")
    params_local = cfg.num_parameters() / config.gtensor
    h = cfg.hidden_size
    # Largest gathered W block: FC layers have k*n up to h * ffn_hidden.
    largest_block = h * cfg.ffn_hidden / (config.gx * config.gy) * BF16_BYTES
    workspace = 2.0 * largest_block  # gathered W + staging

    return MemoryBreakdown(
        weights=params_local * BF16_BYTES,
        gradients=params_local * BF16_BYTES,
        master_and_optimizer=params_local * 3 * FP32,
        activations=_activation_bytes(
            cfg, config, batch_per_replica, checkpointing
        ),
        workspace=workspace,
    )


def max_batch_per_replica(
    cfg: GPTConfig,
    config: GridConfig,
    machine: MachineSpec,
    checkpointing: bool = True,
) -> int:
    """Largest per-replica batch (sequences) that fits in device memory
    under this grid; 0 if even batch G_z does not fit."""
    batch = config.gz  # minimum useful batch: one sequence per Z shard
    if not estimate_memory(cfg, config, batch, checkpointing).fits(machine):
        return 0
    while estimate_memory(cfg, config, batch * 2, checkpointing).fits(machine):
        batch *= 2
    return batch
