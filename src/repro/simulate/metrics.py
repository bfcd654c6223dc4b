"""Performance metrics over simulated iterations (Section VI-C).

Turns iteration timings into the quantities the paper reports: sustained
bf16 flop/s, percentage of advertised and empirical peak, weak/strong
scaling efficiency, and predicted time-to-solution for a token budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import MachineSpec
from ..config import GPTConfig
from ..kernels import percent_of_peak, sustained_flops

__all__ = [
    "RunMetrics",
    "compute_metrics",
    "events_per_second",
    "weak_scaling_efficiency",
    "strong_scaling_efficiency",
    "time_to_solution_days",
]

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class RunMetrics:
    """The Table III row for one (model, #GPUs) run."""

    machine: str
    model: str
    num_gpus: int
    batch_time: float
    total_flops: float  # sustained flop/s, whole job
    pct_advertised_peak: float
    pct_empirical_peak: float

    @property
    def pflops(self) -> float:
        return self.total_flops / 1e15

def compute_metrics(
    cfg: GPTConfig,
    global_batch: int,
    num_gpus: int,
    machine: MachineSpec,
    batch_time: float,
) -> RunMetrics:
    """Sustained flop/s and peak percentages for one run."""
    achieved = sustained_flops(cfg, global_batch, batch_time)
    return RunMetrics(
        machine=machine.name,
        model=cfg.name,
        num_gpus=num_gpus,
        batch_time=batch_time,
        total_flops=achieved,
        pct_advertised_peak=percent_of_peak(
            achieved, machine.peak_flops(num_gpus)
        ),
        pct_empirical_peak=percent_of_peak(
            achieved, machine.peak_flops(num_gpus, empirical=True)
        ),
    )


def events_per_second(num_events: int, wall_seconds: float) -> float:
    """Simulator throughput: scheduled timeline events per wall-clock
    second of simulation (``IterationResult.num_events`` over the
    measured run time) — the unit of ``benchmarks/bench_sim_engine.py``
    and of the spine's ``simulate.events_per_s`` probe."""
    if wall_seconds <= 0:
        raise ValueError("wall_seconds must be positive")
    return num_events / wall_seconds


def weak_scaling_efficiency(
    base: RunMetrics, scaled: RunMetrics
) -> float:
    """Per-GPU throughput retention going from ``base`` to ``scaled``
    (1.0 = perfect weak scaling)."""
    per_gpu_base = base.total_flops / base.num_gpus
    per_gpu_scaled = scaled.total_flops / scaled.num_gpus
    return per_gpu_scaled / per_gpu_base


def strong_scaling_efficiency(
    base_time: float, base_gpus: int, scaled_time: float, scaled_gpus: int
) -> float:
    """Speedup achieved relative to the ideal linear speedup."""
    ideal = scaled_gpus / base_gpus
    actual = base_time / scaled_time
    return actual / ideal


def time_to_solution_days(
    cfg: GPTConfig,
    global_batch: int,
    batch_time: float,
    total_tokens: float,
) -> float:
    """Days to ingest ``total_tokens`` at the measured iteration rate
    (Fig. 9's extrapolation)."""
    tokens_per_iter = global_batch * cfg.seq_len
    iters = total_tokens / tokens_per_iter
    return iters * batch_time / SECONDS_PER_DAY
