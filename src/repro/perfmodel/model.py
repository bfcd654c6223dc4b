"""The communication performance model: Eqs. 1–6 of the paper.

For one FC layer computing a (m x k) @ (k x n) product on a
``G_x x G_y x G_z x G_data`` grid, the model charges (per training
iteration, in seconds):

    t_AG,z  = (G_z - 1)           * k*n / (Gx*Gy*Gz) / beta_z      (Eq. 1)
    t_RS,z  = (G_z - 1)/G_z       * k*n / (Gx*Gy)    / beta_z      (Eq. 2)
    t_AR,y  = 2 (G_y - 1)/G_y     * m*n / (Gz*Gx)    / beta_y      (Eq. 3)
    t_AR,x  = 2 (G_x - 1)/G_x     * m*k / (Gz*Gy)    / beta_x      (Eq. 4)
    t_AR,d  = 2 (G_d - 1)/G_d     * k*n / (Gx*Gy*Gz) / beta_data   (Eq. 5)

with sizes converted to bytes (bf16 = 2 bytes).  Layers with transposed
weights swap ``G_x <-> G_y`` (and their bandwidths).  The network total
is the sum over layers (Eq. 6).  The byte terms are written once, in
:func:`layer_collectives`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import MachineSpec
from ..config import GPTConfig
from ..core.grid import GridConfig
from .bandwidth import BandwidthDatabase, effective_bandwidths
from .ring import TIME_FNS
from .seq_parallel import ring_kv_payload_bytes, seq_ring_time

__all__ = [
    "LayerShape",
    "gpt_layer_shapes",
    "layer_comm_time",
    "model_comm_time",
    "CommBreakdown",
]

#: Bytes per bf16 element: the wire and activation width every cost
#: model of the package prices.
BF16_BYTES = 2

#: One collective of Algorithm 1: ``(op, axis, p, groups, nbytes)`` --
#: the op's name, the grid axis it runs over, the group size, the number
#: of distinct groups one data-parallel replica's ranks take part in,
#: and one rank's input-buffer bytes.
Collective = tuple[str, str, int, int, float]


@dataclass(frozen=True)
class LayerShape:
    """One FC layer's GEMM shape: (m x k) @ (k x n), plus orientation."""

    name: str
    m: int
    k: int
    n: int
    transposed: bool = False


    @property
    def flops(self) -> float:
        """Forward-pass multiply-add flops of the full layer."""
        return 2.0 * self.m * self.k * self.n


def layer_collectives(
    layer: LayerShape, config: GridConfig, dtype_bytes: int
) -> tuple[Collective, ...]:
    """Algorithm 1's collectives of one FC layer, in this order:

    ``ag_z`` (line 2), ``rs_z`` (line 14), ``ar_fwd`` (line 4, over the
    contraction axis), ``ar_bwd`` (line 12, over the column axis), the
    data-parallel and the sequence-parallel weight-gradient all-reduces.

    The one table of the package's byte terms: the perf model, the
    volume count and the simulator all read it.  A transposed layer
    swaps the roles (and axes) of X and Y.  Sequence shards hold
    ``S / G_seq`` of every sequence, so they shrink the activation
    blocks and multiply the group count, and replicate every weight, so
    their gradients all-reduce over the sequence axis.
    """
    gx, gy, gz, gs = config.gx, config.gy, config.gz, config.gs
    ax, ay = "x", "y"
    if layer.transposed:
        gx, gy = gy, gx
        ax, ay = ay, ax
    m, k, n = layer.m, layer.k, layer.n
    shard = k * n / (gx * gy * gz) * dtype_bytes  # W_hat
    block = k * n / (gx * gy) * dtype_bytes  # W_{j,i}
    out_block = m * n / (gz * gx * gs) * dtype_bytes  # O_hat
    in_block = m * k / (gz * gy * gs) * dtype_bytes  # dI_hat
    z_groups = gx * gy * gs
    return (
        ("all_gather", "z", gz, z_groups, shard),
        ("reduce_scatter", "z", gz, z_groups, block),
        ("all_reduce", ay, gy, gx * gz * gs, out_block),
        ("all_reduce", ax, gx, gy * gz * gs, in_block),
        ("all_reduce", "data", config.gdata, z_groups * gz, shard),
        ("all_reduce", "seq", gs, gx * gy * gz, shard),
    )


def gpt_layer_shapes(
    cfg: GPTConfig, batch_size: int, include_head: bool = True
) -> list[LayerShape]:
    """The FC layers of one GPT iteration (per data-parallel replica of
    batch ``batch_size`` sequences), with alternating orientations:
    QKV and FC1 normal; attention-proj and FC2 transposed."""
    m = batch_size * cfg.seq_len
    h = cfg.hidden_size
    layers: list[LayerShape] = []
    for i in range(cfg.num_layers):
        layers.append(LayerShape(f"block{i}.qkv", m, h, 3 * h, False))
        layers.append(LayerShape(f"block{i}.proj", m, h, h, True))
        layers.append(LayerShape(f"block{i}.fc1", m, h, cfg.ffn_hidden, False))
        layers.append(LayerShape(f"block{i}.fc2", m, cfg.ffn_hidden, h, True))
    if include_head:
        layers.append(LayerShape("lm_head", m, h, cfg.vocab_size, False))
    return layers


@dataclass
class CommBreakdown:
    """Per-collective communication seconds for one iteration.

    ``ring_seq`` is the sequence-parallel ring-attention rotation time
    (zero on classic 4D grids); see :mod:`repro.perfmodel.seq_parallel`.
    """

    ag_z: float = 0.0
    rs_z: float = 0.0
    ar_y: float = 0.0
    ar_x: float = 0.0
    ar_data: float = 0.0
    ring_seq: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.ag_z
            + self.rs_z
            + self.ar_y
            + self.ar_x
            + self.ar_data
            + self.ring_seq
        )

    def __add__(self, other: "CommBreakdown") -> "CommBreakdown":
        return CommBreakdown(
            self.ag_z + other.ag_z,
            self.rs_z + other.rs_z,
            self.ar_y + other.ar_y,
            self.ar_x + other.ar_x,
            self.ar_data + other.ar_data,
            self.ring_seq + other.ring_seq,
        )


def layer_comm_time(
    layer: LayerShape,
    config: GridConfig,
    betas: dict[str, float],
    dtype_bytes: int = BF16_BYTES,
) -> CommBreakdown:
    """Eqs. 1–5 for one layer, each record at its axis' bandwidth.

    The records are :func:`layer_collectives`'.  ``ar_y`` / ``ar_x``
    are the forward / backward all-reduces (over Y and X for a normal
    layer, X and Y for a transposed one).  With the sequence axis active
    (``G_seq > 1``) the weight-gradient reduction across sequence shards
    is charged into ``ar_data`` at the sequence axis' bandwidth.  A
    size-1 group costs nothing, so its axis need not be in ``betas``.
    """
    # A loop, not a comprehension: this runs once per layer shape per
    # ranked grid, and 3.10/3.11 give a comprehension a frame of its own.
    times = []
    records = layer_collectives(layer, config, dtype_bytes)
    for op, axis, p, _, nbytes in records:
        times.append(TIME_FNS[op](nbytes, p, betas[axis]) if p > 1 else 0.0)
    ag_z, rs_z, ar_y, ar_x, ar_d, ar_s = times
    return CommBreakdown(ag_z, rs_z, ar_y, ar_x, ar_d + ar_s)


def _layers_comm_time(
    cfg: GPTConfig,
    layers: list[LayerShape],
    per_group: int,
    config: GridConfig,
    betas: dict[str, float],
    dtype_bytes: int = BF16_BYTES,
) -> CommBreakdown:
    """Eq. 6 over the given FC ``layers`` of one replica.

    The sum of :func:`layer_comm_time`, layer by layer, plus the
    sequence ring for the replica's batch of ``per_group`` sequences.

    A GPT stack repeats a handful of shapes and a layer enters Eqs. 1-5
    through ``(m, k, n, transposed)`` only, so each distinct shape is
    priced once; its six fields are still added per layer, in order,
    into six float accumulators — the same adds ``CommBreakdown.__add__``
    would do, without a breakdown per layer — so no float moves.
    """
    priced: dict[tuple, tuple[float, ...]] = {}
    ag_z = rs_z = ar_y = ar_x = ar_data = ring_seq = 0.0
    for layer in layers:
        shape = (layer.m, layer.k, layer.n, layer.transposed)
        fields = priced.get(shape)
        if fields is None:
            bd = layer_comm_time(layer, config, betas, dtype_bytes)
            fields = priced[shape] = (
                bd.ag_z, bd.rs_z, bd.ar_y, bd.ar_x, bd.ar_data, bd.ring_seq
            )
        a, r, y, x, d, s = fields
        ag_z += a
        rs_z += r
        ar_y += y
        ar_x += x
        ar_data += d
        ring_seq += s
    if config.gs > 1:
        payload = ring_kv_payload_bytes(cfg, config, per_group, dtype_bytes)
        # The other five fields would add 0.0: an accumulator that
        # starts at +0.0 never holds -0.0, so that add is the identity.
        ring_seq += cfg.num_layers * seq_ring_time(
            payload, config.gs, betas["seq"]
        )
    return CommBreakdown(ag_z, rs_z, ar_y, ar_x, ar_data, ring_seq)


def model_comm_time(
    cfg: GPTConfig,
    global_batch: int,
    config: GridConfig,
    machine: MachineSpec,
    db: BandwidthDatabase | None = None,
    dtype_bytes: int = BF16_BYTES,
    include_head: bool = True,
) -> CommBreakdown:
    """Eq. 6: total predicted communication time of one iteration.

    ``global_batch`` is the whole job's batch (sequences); each data
    group processes ``global_batch / G_data``.
    """
    if global_batch % config.gdata:
        raise ValueError(
            f"global batch {global_batch} not divisible by "
            f"G_data={config.gdata}"
        )
    per_group = global_batch // config.gdata
    return _layers_comm_time(
        cfg,
        gpt_layer_shapes(cfg, per_group, include_head=include_head),
        per_group,
        config,
        effective_bandwidths(config, machine, db),
        dtype_bytes,
    )
