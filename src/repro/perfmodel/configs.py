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
from ..core.grid import GridConfig, enumerate_grid_configs
from .bandwidth import BandwidthDatabase, effective_bandwidths
from .model import CommBreakdown, LayerShape, _layers_comm_time, gpt_layer_shapes

__all__ = [
    "RankedConfig",
    "feasible",
    "infeasibility_reason",
    "rank_grids",
    "rank_configurations",
]

#: Fraction of device memory usable after fragmentation and framework
#: overheads; applied to the full footprint from the memory model.
MEMORY_HEADROOM = 0.9


@dataclass(frozen=True)
class RankedConfig:
    """A grid configuration with its predicted communication time."""

    config: GridConfig
    predicted_time: float
    breakdown: CommBreakdown


def infeasibility_reason(
    cfg: GPTConfig,
    config: GridConfig,
    global_batch: int,
    machine: MachineSpec | None = None,
) -> str | None:
    """Why a grid cannot run the model, or ``None`` when it can.

    Checks the 4D algorithm's divisibility requirements (heads over X,
    features over the tensor axes, batch over Z x data) and, when a
    machine is given, that the full per-device footprint — sharded
    weights, gradients, optimizer state, activations under
    checkpointing, and the gathered-W workspace — fits in device memory
    (:func:`repro.simulate.estimate_memory`).  The returned string is the
    human-readable verdict carried by
    :class:`repro.autotune.NoFeasibleConfigError`.
    """
    h = cfg.hidden_size
    c = config
    if cfg.num_heads % c.gx:
        return f"num_heads {cfg.num_heads} not divisible by Gx={c.gx}"
    if h % (c.gy * c.gz):
        return f"hidden {h} not divisible by Gy*Gz={c.gy * c.gz}"
    if h % (c.gx * c.gz):
        return f"hidden {h} not divisible by Gx*Gz={c.gx * c.gz}"
    if (3 * h) % c.gx:
        return f"QKV width {3 * h} not divisible by Gx={c.gx}"
    if cfg.ffn_hidden % c.gy:
        return f"FFN width {cfg.ffn_hidden} not divisible by Gy={c.gy}"
    if cfg.ffn_hidden % (c.gx * c.gz):
        return f"FFN width {cfg.ffn_hidden} not divisible by Gx*Gz={c.gx * c.gz}"
    if cfg.vocab_size % c.gx:
        return f"vocab {cfg.vocab_size} not divisible by Gx={c.gx}"
    if cfg.seq_len % c.gs:
        return f"seq_len {cfg.seq_len} not divisible by Gseq={c.gs}"
    if c.gs > cfg.seq_len:
        return f"Gseq={c.gs} exceeds seq_len {cfg.seq_len}"
    if global_batch % (c.gz * c.gdata):
        return (
            f"global batch {global_batch} not divisible by "
            f"Gz*Gdata={c.gz * c.gdata}"
        )
    if machine is not None:
        # Imported lazily: repro.simulate depends on repro.perfmodel at
        # import time, so the package-level import would be circular.
        from ..simulate.memory import estimate_memory

        # Activation residency is bounded by the *microbatch* (gradient
        # accumulation splits the replica batch); the smallest useful
        # microbatch is one sequence per Z shard.
        micro = min(global_batch // c.gdata, c.gz)
        footprint = estimate_memory(cfg, config, micro, checkpointing=True)
        if not footprint.fits(machine, headroom=MEMORY_HEADROOM):
            need = footprint.total / 1e9
            have = machine.gpu.memory_bytes * MEMORY_HEADROOM / 1e9
            return (
                f"does not fit: needs {need:.1f} GB/device, "
                f"{have:.1f} GB usable on {machine.gpu.name}"
            )
    return None


def feasible(
    cfg: GPTConfig,
    config: GridConfig,
    global_batch: int,
    machine: MachineSpec | None = None,
) -> bool:
    """Whether a grid can legally and physically run the model (see
    :func:`infeasibility_reason` for the individual checks)."""
    return infeasibility_reason(cfg, config, global_batch, machine) is None


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
            if feasible(cfg, config, global_batch, machine)
        ],
        machine,
        db,
    )
    return ranked if max_configs is None else ranked[:max_configs]
