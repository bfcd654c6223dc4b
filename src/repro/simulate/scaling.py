"""Weak- and strong-scaling experiment drivers.

These reproduce the *procedure* of Section VII: for each (model, GPU
count) point, pick the best of the performance model's top-k predicted
configurations by simulated batch time (exactly how the paper selects
run configurations), then report timings and flop/s metrics.

The selection routes through the unified planning API:
``best_configuration(request)`` / ``run_point(request)`` take one
:class:`repro.autotune.PlanRequest`, and both delegate to
:func:`repro.autotune.autotune` over the pinned
:class:`~repro.autotune.SearchSpace` that replicates the §V-B top-k
procedure bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..cluster import MachineSpec
from ..core.grid import GridConfig
from ..perfmodel import BandwidthDatabase
from .executor import IterationResult
from .metrics import RunMetrics, compute_metrics

if TYPE_CHECKING:  # pragma: no cover
    from ..autotune.api import PlanRequest

__all__ = [
    "ScalingPoint",
    "best_configuration",
    "run_point",
    "weak_scaling_sweep",
    "strong_scaling_sweep",
    "WEAK_SCALING_SCHEDULES",
]

#: The paper's weak-scaling schedules: (model, #devices) per machine
#: (Figs. 6 and 8, Table III).
WEAK_SCALING_SCHEDULES: dict[str, list[tuple[str, int]]] = {
    "perlmutter": [
        ("GPT-5B", 512),
        ("GPT-10B", 1024),
        ("GPT-20B", 2048),
        ("GPT-40B", 4096),
    ],
    "frontier": [
        ("GPT-5B", 512),
        ("GPT-10B", 1024),
        ("GPT-20B", 2048),
        ("GPT-40B", 4096),
        ("GPT-80B", 8192),
        ("GPT-160B", 16384),
        ("GPT-320B", 32768),
    ],
    "alps": [
        ("GPT-10B", 1024),
        ("GPT-20B", 2048),
        ("GPT-40B", 4096),
        ("GPT-60B", 6144),
    ],
}


@dataclass
class ScalingPoint:
    """One point of a scaling study: chosen config + timing + metrics."""

    model: str
    num_gpus: int
    global_batch: int
    config: GridConfig
    result: IterationResult
    metrics: RunMetrics


def default_global_batch(num_gpus: int) -> int:
    """Batch schedule used across the performance experiments: two
    sequences per device, capped at 8192 sequences — which reaches the
    paper's 16.8M-token batch (8192 x 2048) at 4096 devices and stays
    there for larger scales."""
    return min(8192, 2 * num_gpus)


def best_configuration(
    request: PlanRequest,
) -> tuple[GridConfig, IterationResult]:
    """The Section V-B procedure: take the model's top-k predicted
    configurations and keep the one with the best simulated batch time.

    Routes through :func:`repro.autotune.autotune` over the pinned search
    space (same candidates, same knobs, bitwise-identical winner).
    Candidate elimination only needs aggregate times, so the top-k
    simulations run ``timing_only`` — at paper scale this is what makes a
    full weak-scaling schedule a seconds-long operation.

    Raises :class:`repro.autotune.NoFeasibleConfigError` (a
    :class:`ValueError` subclass) when no grid can run the job.
    """
    from ..autotune.api import SearchSpace
    from ..autotune.search import autotune

    report = autotune(request, space=SearchSpace.pinned(request))
    return report.winner.config, report.winner_result


def run_point(request: PlanRequest) -> ScalingPoint:
    """Simulate one (model, #GPUs) point end to end."""
    cfg = request.resolved_model()
    machine = request.resolved_machine()
    batch = request.resolved_batch()
    config, result = best_configuration(request)
    metrics = compute_metrics(cfg, batch, request.num_gpus, machine, result.total_time)
    return ScalingPoint(
        model=cfg.name,
        num_gpus=request.num_gpus,
        global_batch=batch,
        config=config,
        result=result,
        metrics=metrics,
    )


def _sweep_request(
    model, num_gpus: int, machine: MachineSpec, db, global_batch, kwargs: dict
):
    """PlanRequest for one sweep point (sweeps stay on the new API)."""
    from ..autotune.api import PlanRequest

    return PlanRequest(
        model=model,
        num_gpus=num_gpus,
        machine=machine,
        global_batch=global_batch,
        db=db,
        **kwargs,
    )


def weak_scaling_sweep(
    machine: MachineSpec,
    schedule: list[tuple[str, int]] | None = None,
    **kwargs,
) -> list[ScalingPoint]:
    """The machine's weak-scaling study (Fig. 6 / Fig. 8 / Table III).

    ``kwargs`` become :class:`repro.autotune.PlanRequest` fields shared
    by every point (``overlap``, ``kernel_tuning``, ``collective_algo``,
    ``seed``, ``top_k``).
    """
    if schedule is None:
        schedule = WEAK_SCALING_SCHEDULES[machine.name]
    db = BandwidthDatabase.profile(machine)
    return [
        run_point(_sweep_request(model, gpus, machine, db, None, kwargs))
        for model, gpus in schedule
    ]


def strong_scaling_sweep(
    model_name: str,
    gpu_counts: list[int],
    machine: MachineSpec,
    global_batch: int,
    **kwargs,
) -> list[ScalingPoint]:
    """Fixed model and batch across increasing device counts (Fig. 9).

    ``kwargs`` become shared :class:`repro.autotune.PlanRequest` fields,
    as in :func:`weak_scaling_sweep`.
    """
    db = BandwidthDatabase.profile(machine)
    return [
        run_point(
            _sweep_request(model_name, gpus, machine, db, global_batch, kwargs)
        )
        for gpus in gpu_counts
    ]
