"""The 4D virtual grid of Section V-A/V-B (plus the sequence axis).

A job's ``G`` GPUs are organized as ``G_x x G_y x G_z x G_data`` with the
paper's hierarchy: **X-tensor parallelism innermost, then Y, then Z, and
data parallelism outermost**.  Global rank ``r`` has coordinates

    r = x + G_x * (y + G_y * (z + G_z * d))

so consecutive ranks differ in ``x`` first — e.g. with
``G_x = G_y = G_z = G_data = 2`` the X groups are (0,1), (2,3), (4,5),
(6,7) and the Y groups are (0,2), (1,3), (4,6), (5,7), exactly the
worked example in Section V-B.

The long-context extension adds an optional **sequence-parallel axis**
of degree ``G_seq`` (ring attention over contiguous sequence shards).
It sits *outside* data parallelism in the rank numbering,

    r = x + G_x * (y + G_y * (z + G_z * (d + G_data * s)))

so the ``s = 0`` sub-grid is numbered exactly like the plain 4D grid
and every ``G_seq = 1`` configuration is bit-for-bit the old layout
(rank math, group membership, golden traces).  ``coords_of`` keeps its
4-tuple contract with the sequence coordinate folded out; use
:meth:`Grid4D.coords5_of` and
``group_along("seq", rank)`` for the new axis.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import product

from ..cluster import MachineSpec, Placement
from ..config import GPTConfig
from ..runtime import CommTracer, ProcessGroup

__all__ = [
    "GridConfig",
    "Grid4D",
    "enumerate_grid_configs",
    "infeasibility_reason",
]

#: Names of the four axes in hierarchy order (innermost first).
AXES = ("x", "y", "z", "data")

#: All five axes including the optional sequence-parallel axis
#: (outermost).  Code that predates sequence parallelism iterates
#: ``AXES``; the sequence axis only appears where ``G_seq > 1`` matters.
AXES5 = AXES + ("seq",)

#: Legal values of :attr:`GridConfig.collective_algo`.
COLLECTIVE_ALGOS = ("flat", "hierarchical", "auto")

#: Fraction of device memory usable after fragmentation and framework
#: overheads; applied to the full footprint from the memory model.
MEMORY_HEADROOM = 0.9


@dataclass(frozen=True)
class GridConfig:
    """Sizes of the four parallel dimensions, ``(G_x, G_y, G_z, G_data)``.

    ``collective_algo`` selects how node-straddling collectives execute:
    ``"flat"`` (single ring, the default), ``"hierarchical"`` (two-level
    intra-node + leaders decomposition whenever the group straddles
    nodes), or ``"auto"`` (per-collective analytic selection via
    :func:`repro.perfmodel.choose_algorithm`).  The knob is execution
    policy, not grid geometry, so it is excluded from equality/hashing —
    two configs with the same dims are the same grid.
    """

    gx: int
    gy: int
    gz: int
    gdata: int = 1
    gs: int = 1
    collective_algo: str = field(default="flat", compare=False)

    def __post_init__(self) -> None:
        for axis, g in zip(AXES5, self.full_dims):
            if g < 1:
                raise ValueError(f"G_{axis} must be >= 1, got {g}")
        if self.collective_algo not in COLLECTIVE_ALGOS:
            raise ValueError(
                f"collective_algo must be one of {COLLECTIVE_ALGOS}, "
                f"got {self.collective_algo!r}"
            )

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.gx, self.gy, self.gz, self.gdata)

    @property
    def full_dims(self) -> tuple[int, int, int, int, int]:
        """All five axis degrees, ``(G_x, G_y, G_z, G_data, G_seq)``."""
        return (self.gx, self.gy, self.gz, self.gdata, self.gs)

    @property
    def total(self) -> int:
        return self.gx * self.gy * self.gz * self.gdata * self.gs

    @property
    def gtensor(self) -> int:
        """GPUs per tensor-parallel group, ``G_x * G_y * G_z``."""
        return self.gx * self.gy * self.gz

    def __str__(self) -> str:
        base = f"(Gx={self.gx}, Gy={self.gy}, Gz={self.gz}, Gdata={self.gdata}"
        if self.gs > 1:
            base += f", Gseq={self.gs}"
        return base + ")"


class Grid4D:
    """Process-group factory for one 4D configuration.

    Optionally carries a :class:`~repro.cluster.Placement` (for the
    performance layers) and a :class:`~repro.runtime.CommTracer` that the
    collectives of the functional model record into.
    """

    def __init__(
        self,
        config: GridConfig,
        placement: Placement | None = None,
        tracer: CommTracer | None = None,
    ) -> None:
        self.config = config
        self.placement = placement
        self.tracer = tracer
        if placement is not None and placement.num_gpus != config.total:
            raise ValueError(
                f"grid {config} needs {config.total} GPUs but placement "
                f"has {placement.num_gpus}"
            )
        if config.collective_algo != "flat" and placement is None:
            raise ValueError(
                f"collective_algo={config.collective_algo!r} needs a "
                "placement (the node topology decides the decomposition)"
            )
        self._group_cache: dict[tuple[str, int], ProcessGroup] = {}

    def collective_scope(self):
        """Context manager activating this grid's collective-algorithm
        policy; a no-op for the default ``"flat"`` algorithm.

        Collectives issued inside the ``with`` block whose group
        straddles nodes route through the two-level implementations of
        :mod:`repro.runtime.hierarchical` (always for
        ``"hierarchical"``, per the analytic model for ``"auto"``).
        """
        if self.config.collective_algo == "flat" or self.placement is None:
            return nullcontext(None)
        from ..runtime.hierarchical import collective_policy_scope

        return collective_policy_scope(
            self.placement, self.config.collective_algo
        )

    # -- coordinate arithmetic ---------------------------------------------

    def rank_of(self, x: int, y: int, z: int, d: int = 0, s: int = 0) -> int:
        """Global rank of coordinates (x, y, z, d[, s])."""
        c = self.config
        for v, g, axis in (
            (x, c.gx, "x"), (y, c.gy, "y"), (z, c.gz, "z"),
            (d, c.gdata, "data"), (s, c.gs, "seq"),
        ):
            if not 0 <= v < g:
                raise ValueError(f"{axis}-coordinate {v} outside [0, {g})")
        return x + c.gx * (y + c.gy * (z + c.gz * (d + c.gdata * s)))

    def coords_of(self, rank: int) -> tuple[int, int, int, int]:
        """Coordinates (x, y, z, d) of a global rank.

        The sequence coordinate, outermost in the numbering, is folded
        out so the 4-tuple contract of the plain grid is preserved; use
        :meth:`coords5_of` when the sequence shard index matters.
        """
        return self.coords5_of(rank)[:4]

    def coords5_of(self, rank: int) -> tuple[int, int, int, int, int]:
        """Coordinates (x, y, z, d, s) of a global rank."""
        c = self.config
        if not 0 <= rank < c.total:
            raise ValueError(f"rank {rank} outside [0, {c.total})")
        x = rank % c.gx
        rank //= c.gx
        y = rank % c.gy
        rank //= c.gy
        z = rank % c.gz
        rank //= c.gz
        d = rank % c.gdata
        s = rank // c.gdata
        return (x, y, z, d, s)


    def iter_coords(self):
        """Yield (x, y, z, d) for every rank in rank order.

        With ``G_seq > 1`` the 4-tuple repeats once per sequence shard
        (the seq coordinate is folded out, matching :meth:`coords_of`).
        """
        c = self.config
        for s, d, z, y, x in product(
            range(c.gs), range(c.gdata), range(c.gz), range(c.gy), range(c.gx)
        ):
            yield (x, y, z, d)

    # -- process groups ------------------------------------------------------

    def group_along(self, axis: str, rank: int) -> ProcessGroup:
        """The process group containing ``rank`` that varies ``axis``.

        ``axis`` is one of ``"x"``, ``"y"``, ``"z"``, ``"data"``,
        ``"seq"``.  Group members are ordered by their coordinate along
        the axis, so group rank == axis coordinate (for ``"seq"`` that is
        the sequence-shard index, i.e. ring position).
        """
        if axis not in AXES5:
            raise ValueError(f"axis must be one of {AXES5}, got {axis!r}")
        axis_i = AXES5.index(axis)
        key_coords = list(self.coords5_of(rank))
        key_coords[axis_i] = 0
        cache_key = (axis, self.rank_of(*key_coords))
        cached = self._group_cache.get(cache_key)
        if cached is not None:
            return cached
        n = self.config.full_dims[axis_i]
        members = []
        for i in range(n):
            coords = list(key_coords)
            coords[axis_i] = i
            members.append(self.rank_of(*coords))
        group = ProcessGroup(tuple(members))
        self._group_cache[cache_key] = group
        return group

    def tensor_block_ranks(self, d: int) -> list[int]:
        """All ranks of data-parallel replica ``d`` (one full model copy).

        With ``G_seq > 1`` the replica spans every sequence shard: each
        shard holds the same weights and a contiguous slice of the
        sequence, so the block is ``G_seq`` times larger.
        """
        c = self.config
        return [
            self.rank_of(x, y, z, d, s)
            for s in range(c.gs)
            for z in range(c.gz)
            for y in range(c.gy)
            for x in range(c.gx)
        ]


def enumerate_grid_configs(
    num_gpus: int,
    max_gz: int | None = None,
    powers_of_two_only: bool | None = None,
    max_gs: int | None = None,
) -> list[GridConfig]:
    """All factorizations of ``num_gpus`` into (Gx, Gy, Gz, Gdata[, Gseq]).

    The paper's performance model ranks exactly this space.  For
    power-of-two GPU counts only power-of-two factors are considered
    (NCCL/RCCL process groups follow the hardware's structure); counts
    with other prime factors — e.g. Alps' 6144 = 3 * 2^11 — enumerate
    all divisors so the odd factor can land on a legal axis.

    ``max_gs`` opens the sequence-parallel axis: when > 1, each split is
    additionally factored by a ring degree ``gs <= max_gs``.  The default
    (``None``/1) keeps the classic 4D space, and the ``gs = 1`` configs
    always come first in the original order.
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if powers_of_two_only is None:
        powers_of_two_only = num_gpus & (num_gpus - 1) == 0

    def factors(n: int) -> list[int]:
        fs = [f for f in range(1, n + 1) if n % f == 0]
        if powers_of_two_only:
            fs = [f for f in fs if f & (f - 1) == 0]
        return fs

    seq_degrees = [
        f for f in factors(num_gpus) if f <= (max_gs or 1)
    ]
    configs = []
    for gs in seq_degrees:
        rem_s = num_gpus // gs
        for gx in factors(rem_s):
            rem_x = rem_s // gx
            for gy in factors(rem_x):
                rem_y = rem_x // gy
                for gz in factors(rem_y):
                    if max_gz is not None and gz > max_gz:
                        continue
                    gdata = rem_y // gz
                    configs.append(GridConfig(gx, gy, gz, gdata, gs))
    return configs


def infeasibility_reason(
    cfg: GPTConfig,
    grid: GridConfig,
    global_batch: int | None = None,
    machine: MachineSpec | None = None,
) -> str | None:
    """Why ``grid`` cannot run ``cfg``, or ``None`` when it can.

    The one spelling of the 4D algorithm's divisibility rule: attention
    heads and the vocabulary over X, the hidden features over Y*Z (the
    contraction of qkv/fc1) and X*Z (the contraction of proj/fc2), the
    sequence over the ring degree and, unless ``global_batch`` is
    ``None``, the batch over Z*Data.  Every other shape the parallel
    layers shard follows from these: ``hidden % num_heads`` makes the
    QKV width divide by X, and the FFN width, a multiple of hidden,
    divides wherever hidden does.  With a ``machine`` (and a batch) the
    full per-device footprint must also fit in device memory
    (:func:`repro.simulate.estimate_memory`).  The string is the
    verdict :class:`repro.autotune.NoFeasibleConfigError` carries.
    """
    h = cfg.hidden_size
    c = grid
    if cfg.num_heads % c.gx:
        return f"num_heads {cfg.num_heads} not divisible by Gx={c.gx}"
    if h % (c.gy * c.gz):
        return f"hidden {h} not divisible by Gy*Gz={c.gy * c.gz}"
    if h % (c.gx * c.gz):
        return f"hidden {h} not divisible by Gx*Gz={c.gx * c.gz}"
    if cfg.vocab_size % c.gx:
        return f"vocab {cfg.vocab_size} not divisible by Gx={c.gx}"
    if cfg.seq_len % c.gs:
        return f"seq_len {cfg.seq_len} not divisible by Gseq={c.gs}"
    if c.gs > cfg.seq_len:
        return f"Gseq={c.gs} exceeds seq_len {cfg.seq_len}"
    if global_batch is not None and global_batch % (c.gz * c.gdata):
        return (
            f"global batch {global_batch} not divisible by "
            f"Gz*Gdata={c.gz * c.gdata}"
        )
    if machine is not None:
        # Imported lazily: repro.simulate depends on repro.core at
        # import time, so the package-level import would be circular.
        from ..simulate.memory import estimate_memory

        # Activation residency is bounded by the *microbatch* (gradient
        # accumulation splits the replica batch); the smallest useful
        # microbatch is one sequence per Z shard.
        micro = min(global_batch // c.gdata, c.gz)
        footprint = estimate_memory(cfg, grid, micro, checkpointing=True)
        if not footprint.fits(machine, headroom=MEMORY_HEADROOM):
            need = footprint.total / 1e9
            have = machine.gpu.memory_bytes * MEMORY_HEADROOM / 1e9
            return (
                f"does not fit: needs {need:.1f} GB/device, "
                f"{have:.1f} GB usable on {machine.gpu.name}"
            )
    return None
