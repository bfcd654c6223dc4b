"""Analytical FLOP counts (Narayanan et al. [6]), Section VI-C.

The paper computes sustained flop/s by dividing the analytical per-
iteration FLOP count of the transformer by the measured batch time.
With activation checkpointing (on in every run), each layer's matmuls
execute four times per iteration — forward, recompute, and the two
backward products — giving the well-known formula

    F = 96 * B * s * l * h^2 * (1 + s / (6 h) + V / (16 l h))

(B sequences of length s, l layers, hidden size h, vocabulary V).
Without checkpointing the coefficient is 72 (three passes).
"""

from __future__ import annotations

from ..config import GPTConfig

__all__ = [
    "flops_per_iteration",
    "sustained_flops",
    "percent_of_peak",
]


def flops_per_iteration(
    cfg: GPTConfig, global_batch: int, checkpointing: bool = True
) -> float:
    """Narayanan et al.'s per-iteration FLOP count for a GPT model."""
    if global_batch < 1:
        raise ValueError("global_batch must be >= 1")
    b = float(global_batch)
    s = float(cfg.seq_len)
    l = float(cfg.num_layers)
    h = float(cfg.hidden_size)
    v = float(cfg.vocab_size)
    coef = 96.0 if checkpointing else 72.0
    return coef * b * s * l * h * h * (1.0 + s / (6.0 * h) + v / (16.0 * l * h))


def sustained_flops(
    cfg: GPTConfig,
    global_batch: int,
    batch_time_s: float,
    checkpointing: bool = True,
) -> float:
    """Achieved flop/s given a measured (or simulated) batch time."""
    if batch_time_s <= 0:
        raise ValueError("batch time must be positive")
    return flops_per_iteration(cfg, global_batch, checkpointing) / batch_time_s


def percent_of_peak(achieved_flops: float, peak_flops: float) -> float:
    """Percentage of a peak rate achieved (0-100)."""
    if peak_flops <= 0:
        raise ValueError("peak must be positive")
    return 100.0 * achieved_flops / peak_flops
