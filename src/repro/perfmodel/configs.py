"""Configuration enumeration and ranking (the model's purpose).

Given a model, batch size, GPU count, and machine, enumerate every legal
4D virtual grid, reject infeasible ones (memory, divisibility), predict
each survivor's communication time with Eqs. 1–7, and return them best
first.  "Pick the top few for actual experiments" — Section V-B.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import MachineSpec
from ..config import GPTConfig
from ..core.grid import GridConfig, enumerate_grid_configs, infeasibility_reason
from .bandwidth import BandwidthDatabase, effective_bandwidths
from .model import CommBreakdown, LayerShape, _layers_comm_time, gpt_layer_shapes

__all__ = [
    "RankedConfig",
    "rank_grids",
    "rank_configurations",
]


@dataclass(frozen=True)
class RankedConfig:
    """A grid configuration with its predicted communication time."""

    config: GridConfig
    predicted_time: float
    breakdown: CommBreakdown


def rank_grids(
    cfg: GPTConfig,
    global_batch: int,
    configs: list[GridConfig],
    machine: MachineSpec,
    db: BandwidthDatabase,
) -> list[RankedConfig]:
    """The given (feasible) grids, fastest predicted first.

    Each is priced by Eqs. 1-7; equal predictions keep the order of
    ``configs``.  A grid whose ``G_data`` does not divide
    ``global_batch`` raises ``ValueError``, as in
    :func:`~repro.perfmodel.model_comm_time`.

    A replica's FC layers depend on the grid through ``G_data`` alone,
    so they are built once per distinct replica batch.
    """
    layers_of: dict[int, list[LayerShape]] = {}
    ranked: list[RankedConfig] = []
    for config in configs:
        if global_batch % config.gdata:
            raise ValueError(
                f"global batch {global_batch} not divisible by "
                f"G_data={config.gdata}"
            )
        per_group = global_batch // config.gdata
        layers = layers_of.get(per_group)
        if layers is None:
            layers = layers_of[per_group] = gpt_layer_shapes(cfg, per_group)
        bd = _layers_comm_time(
            cfg, layers, per_group, config,
            effective_bandwidths(config, machine, db),
        )
        ranked.append(RankedConfig(config, bd.total, bd))
    ranked.sort(key=lambda r: r.predicted_time)
    return ranked


def rank_configurations(
    cfg,
    global_batch: int | None = None,
    num_gpus: int | None = None,
    machine: MachineSpec | str | None = None,
    *,
    db: BandwidthDatabase | None = None,
    max_configs: int | None = None,
    max_gs: int | None = None,
) -> list[RankedConfig]:
    """All feasible grids for the job, fastest predicted first.

    Takes either one :class:`repro.autotune.PlanRequest` —
    ``rank_configurations(request)``, whose ``top_k`` caps the list and
    whose ``db`` is reused across calls — or the four positionals
    ``(cfg, global_batch, num_gpus, machine)`` with the tuning knobs
    (``db``, ``max_configs``, ``max_gs``) as keywords.
    """
    if global_batch is None and num_gpus is None and machine is None:
        from ..autotune.api import PlanRequest

        if not isinstance(cfg, PlanRequest):
            raise TypeError(
                "rank_configurations() takes a PlanRequest or "
                "(cfg, global_batch, num_gpus, machine)"
            )
        request = cfg
        return rank_configurations(
            request.resolved_model(),
            request.resolved_batch(),
            request.num_gpus,
            request.resolved_machine(),
            db=request.resolved_db(),
            max_configs=request.top_k,
        )
    if global_batch is None or num_gpus is None or machine is None:
        raise TypeError(
            "rank_configurations() missing global_batch/num_gpus/machine"
        )
    if isinstance(machine, str):
        from ..cluster import get_machine

        machine = get_machine(machine)
    if db is None:
        db = BandwidthDatabase.profile(machine)
    ranked = rank_grids(
        cfg,
        global_batch,
        [
            config
            for config in enumerate_grid_configs(num_gpus, max_gs=max_gs)
            if infeasibility_reason(cfg, config, global_batch, machine) is None
        ],
        machine,
        db,
    )
    return ranked if max_configs is None else ranked[:max_configs]
