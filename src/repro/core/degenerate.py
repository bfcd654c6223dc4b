"""Degenerate 4D configurations = existing parallel training algorithms.

Section V-A observes that the 4D algorithm generalizes the
state-of-the-art schemes.  This module names those special cases, builds
their grids, and describes the collective signature each must exhibit —
which the test suite checks against the actual communication trace:

* ``fsdp``      — only the Z axis: Fully Sharded Data Parallelism /
  ZeRO-3.  Weights sharded, all-gathered before use; gradients
  reduce-scattered.  No tensor-parallel all-reduces.
* ``hsdp``      — Z axis + data: Hybrid Sharded Data Parallelism /
  ZeRO++ (sharding within a group, replication across groups).
* ``megatron``  — only the X axis (with the transpose scheme): Shoeybi
  et al.'s Megatron-LM 1D tensor parallelism.  All-reduces over X/Y,
  no weight all-gathers or gradient reduce-scatters of meaningful size.
* ``pure_data`` — only the data axis: classic data parallelism.
* ``axonn_4d``  — all four axes in use.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import Placement
from ..runtime import CommTracer
from .grid import Grid4D, GridConfig

__all__ = [
    "DEGENERATE_SCHEMES",
    "DegenerateScheme",
    "make_degenerate_grid",
]


@dataclass(frozen=True)
class DegenerateScheme:
    """A named special case of the 4D algorithm."""

    name: str
    description: str
    #: Which axes carry parallelism (subset of {"x", "y", "z", "data"}).
    active_axes: frozenset[str]
    #: Collective tags that must appear in a training-step trace.
    expected_tags: frozenset[str]
    #: Collective tags that must NOT appear (beyond trivial size-1 groups,
    #: which the runtime elides from meaningful communication).
    forbidden_tags: frozenset[str] = frozenset()


DEGENERATE_SCHEMES: dict[str, DegenerateScheme] = {
    "fsdp": DegenerateScheme(
        name="fsdp",
        description="Z axis only: FSDP / ZeRO-3 sharded data parallelism",
        active_axes=frozenset({"z"}),
        expected_tags=frozenset({"linear.AG_z"}),
    ),
    "hsdp": DegenerateScheme(
        name="hsdp",
        description="Z + data: hybrid sharded data parallelism / ZeRO++",
        active_axes=frozenset({"z", "data"}),
        expected_tags=frozenset({"linear.AG_z"}),
    ),
    "megatron": DegenerateScheme(
        name="megatron",
        description="X axis only (+transpose scheme): Megatron-LM 1D TP",
        active_axes=frozenset({"x"}),
        expected_tags=frozenset({"linear.AR_x", "linear.AR_y"}),
    ),
    "pure_data": DegenerateScheme(
        name="pure_data",
        description="data axis only: classic data parallelism",
        active_axes=frozenset({"data"}),
        expected_tags=frozenset(),
    ),
    "axonn_4d": DegenerateScheme(
        name="axonn_4d",
        description="all four axes: the full hybrid algorithm",
        active_axes=frozenset({"x", "y", "z", "data"}),
        expected_tags=frozenset(
            {"linear.AG_z", "linear.AR_x", "linear.AR_y"}
        ),
    ),
}


def make_degenerate_grid(
    scheme: str,
    num_gpus: int,
    placement: Placement | None = None,
    tracer: CommTracer | None = None,
    shard_group_size: int | None = None,
) -> Grid4D:
    """Build the grid realizing a named scheme on ``num_gpus`` devices.

    ``shard_group_size`` sets Gz for ``hsdp`` (defaults to the machine
    node size when a placement is given, else to a square-ish split).
    """
    try:
        spec = DEGENERATE_SCHEMES[scheme]
    except KeyError:
        raise KeyError(
            f"unknown scheme {scheme!r}; available: {sorted(DEGENERATE_SCHEMES)}"
        ) from None

    if scheme == "fsdp":
        cfg = GridConfig(1, 1, num_gpus, 1)
    elif scheme == "megatron":
        cfg = GridConfig(num_gpus, 1, 1, 1)
    elif scheme == "pure_data":
        cfg = GridConfig(1, 1, 1, num_gpus)
    elif scheme == "hsdp":
        gz = shard_group_size
        if gz is None:
            gz = placement.gpus_per_node if placement is not None else _near_sqrt(num_gpus)
        if num_gpus % gz:
            raise ValueError(f"{num_gpus} GPUs not divisible by Gz={gz}")
        cfg = GridConfig(1, 1, gz, num_gpus // gz)
    else:  # axonn_4d: balanced split, preferring X=Y and modest Z.
        cfg = _balanced_4d(num_gpus)
    grid = Grid4D(cfg, placement=placement, tracer=tracer)
    return grid


def _near_sqrt(n: int) -> int:
    """Largest power-of-two divisor of n not exceeding sqrt(n)."""
    best = 1
    f = 1
    while f * f <= n:
        if n % f == 0 and f & (f - 1) == 0:
            best = f
        f += 1
    return best


def _balanced_4d(num_gpus: int) -> GridConfig:
    """A reasonable default 4D split: Gx = Gy where possible, Gz to soak
    a node's worth, remainder to data."""
    gx = _near_sqrt(num_gpus)
    rem = num_gpus // gx
    gy = min(gx, _near_sqrt(rem))
    rem //= gy
    gz = _near_sqrt(rem)
    gdata = rem // gz
    return GridConfig(gx, gy, gz, gdata)
