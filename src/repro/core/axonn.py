"""Top-level facade: the `axonn`-style user API.

Mirrors the real AxoNN's two-call workflow: initialize the 4D grid for a
job allocation, then parallelize a model configuration.  The facade also
wires in the performance model's auto-configuration (Section V-B) so a
user can simply ask for "the best grid for this model on N GPUs of this
machine".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import MachineSpec, Placement, get_machine
from ..config import GPTConfig, get_model
from ..runtime import CommTracer
from .grid import Grid4D, GridConfig
from .parallel_transformer import ParallelGPT

__all__ = ["AxoNN", "init"]


@dataclass
class AxoNN:
    """A configured AxoNN context: grid + placement + tracer."""

    grid: Grid4D
    placement: Placement | None
    tracer: CommTracer

    @property
    def config(self) -> GridConfig:
        return self.grid.config

    def parallelize(self, model_cfg: GPTConfig | str) -> ParallelGPT:
        """Build a 4D-parallel GPT for this context (seed 0)."""
        if isinstance(model_cfg, str):
            model_cfg = get_model(model_cfg)
        return ParallelGPT(self.grid, model_cfg)


def init(
    gx: int,
    gy: int,
    gz: int,
    gdata: int = 1,
    gs: int = 1,
    machine: str | MachineSpec | None = None,
    trace: bool = True,
    collective_algo: str = "flat",
) -> AxoNN:
    """Initialize a 4D-parallel context (the `axonn.init` analogue).

    ``gs`` opens the sequence-parallel ring axis (``G_seq`` contiguous
    sequence shards with ring-attention KV rotation); the default of 1
    is the classic 4D grid.

    When ``machine`` is given, a block placement of the grid's
    ``gx*gy*gz*gdata*gs`` devices on that machine is attached, enabling
    the performance layers; otherwise the context is purely functional.

    ``collective_algo`` (``"flat"`` | ``"hierarchical"`` | ``"auto"``)
    picks how node-straddling collectives execute; activate it around
    model code with ``with ctx.grid.collective_scope(): ...``.  The non-flat
    algorithms need ``machine`` — the decomposition is defined by the
    node topology.
    """
    cfg = GridConfig(gx, gy, gz, gdata, gs, collective_algo=collective_algo)
    placement = None
    if machine is not None:
        spec = get_machine(machine) if isinstance(machine, str) else machine
        placement = Placement(spec, cfg.total)
    elif collective_algo != "flat":
        raise ValueError(
            f"collective_algo={collective_algo!r} needs machine= (the "
            "node topology decides the decomposition)"
        )
    tracer = CommTracer(enabled=trace)
    grid = Grid4D(cfg, placement=placement, tracer=tracer)
    return AxoNN(grid=grid, placement=placement, tracer=tracer)
