"""Discrete-event simulation of one AxoNN training iteration.

The executor reproduces, per representative GPU (the SPMD program is
symmetric), the timeline of one batch: forward all-gathers and GEMMs,
the forward all-reduce, activation recomputation, the two backward
GEMMs, the backward all-reduce and reduce-scatter, and the final
data-parallel gradient all-reduce — on a two-stream model (one compute
stream, one communication stream per GPU), with the three overlap
optimizations of Section V-D as switches:

* **OAR** — the backward all-reduce (line 12) runs concurrently with the
  dW GEMM (line 13) and is waited on afterwards;
* **ORS** — the weight-gradient reduce-scatters (line 14) are issued
  asynchronously and waited on only once the whole backward pass is
  done;
* **OAG** — forward weight all-gathers are prefetched in topological
  order, so layer i+1's gather overlaps layer i's compute.

Compute times come from the platform GEMM model (optionally after
kernel-mode tuning, Section V-C); communication times use ring-collective
costs over bandwidths *measured* on the network substrate under
contention (:mod:`repro.simulate.network_sim`) plus per-step latency —
i.e. the simulator deliberately includes the effects (latency, compute,
exact contention, run-to-run variability) that the analytical model of
Section V-B assumes away.

:func:`simulate_iteration` is three stages composed over one
:func:`job_inputs` value: :func:`price_iteration` (what every kernel and
collective costs), :func:`schedule_iteration` (when each runs, under the
overlap switches) and :func:`summarise_iteration` (jitter and the
reported breakdown).  It is the one-shot composition; a caller that
varies only some knobs composes the same stages itself and repeats only
what its knob moves (:func:`repro.autotune.autotune` prices once per
kernel mode x collective algorithm and schedules once per overlap
subset).
There is one timing engine; the per-rank scalar walks of
:mod:`repro.simulate.network_sim` and the uncached
:func:`repro.kernels.tune_matmuls` define the same numbers readably and
feed the same price stage in ``tests/test_sim_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..cluster import MachineSpec, Placement
from ..config import GPTConfig
from ..core.grid import AXES5, Grid4D, GridConfig
from ..kernels import GemmModel, MatmulOp, tune_matmuls_cached
from ..perfmodel.model import LayerShape, gpt_layer_shapes
from ..perfmodel.hierarchical import hierarchical_time
from ..perfmodel.ring import (
    all_gather_time,
    all_reduce_time,
    reduce_scatter_time,
)
from .engine import (
    deterministic_jitter,
    group_timings,
    hierarchical_group_timings,
)
from .network_sim import HierTiming, LinkTiming

__all__ = [
    "OverlapFlags",
    "IterationResult",
    "LayerPrice",
    "IterationPrices",
    "JobInputs",
    "ShapePlan",
    "local_matmul_ops",
    "job_inputs",
    "price_iteration",
    "schedule_iteration",
    "summarise_iteration",
    "simulate_iteration",
    "baseline_config",
]

#: Per-parameter bytes of the training state (see perfmodel.configs).
BYTES_PER_PARAM = 16
#: bf16 bytes for activations/weights/grads on the wire.
DTYPE_BYTES = 2
#: Amplitude of the deterministic run-to-run variability applied to the
#: final batch time (network congestion / filesystem interference, which
#: the paper reports observing even inside reservations).
DEFAULT_NOISE = 0.03


@dataclass(frozen=True)
class OverlapFlags:
    """Which of the Section V-D overlap optimizations are enabled."""

    oar: bool = False
    ors: bool = False
    oag: bool = False

    @staticmethod
    def none() -> "OverlapFlags":
        return OverlapFlags(False, False, False)

    @staticmethod
    def all() -> "OverlapFlags":
        return OverlapFlags(True, True, True)


@dataclass
class IterationResult:
    """Timing of one simulated training iteration (seconds)."""

    total_time: float
    compute_time: float
    #: Communication time not hidden behind compute.
    exposed_comm_time: float
    #: Sum of all collective durations, hidden or not.
    raw_comm_time: float
    config: GridConfig
    tuning_speedup: float = 1.0
    details: dict[str, float] = field(default_factory=dict)
    #: Per-axis collective algorithm actually used: "flat",
    #: "hierarchical", "mixed" (auto chose per message size), or "n/a"
    #: (size-1 axis, nothing to communicate).
    algo_choices: dict[str, str] = field(default_factory=dict)
    #: Timeline events the iteration scheduled with ``end > start`` (a
    #: positive duration absorbed into a large clock does not count) —
    #: counted whether or not a trace recorded them (the unit of the
    #: benchmark suite's events/s throughput metric).
    num_events: int = 0


class LayerPrice(NamedTuple):
    """Durations (seconds) of one FC layer's compute and collectives."""

    name: str
    #: Forward compute: GEMM + elementwise (+ attention core after QKV).
    fwd: float
    #: Backward compute: recompute + dI + dW + elementwise (+ attention).
    bwd: float
    #: The dW GEMM alone (the part OAR hides the backward all-reduce behind).
    dw: float
    ag_z: float
    rs_z: float
    ar_fwd: float
    ar_bwd: float


@dataclass(frozen=True)
class IterationPrices:
    """Everything one iteration costs, before anything is scheduled.

    The output of :func:`price_iteration`: a function of the job, the
    measured links, the tuned GEMM plan and the pricing knobs only —
    never of ``overlap``, ``trace``, ``noise`` or ``run_salt``, so one
    value serves every overlap combination and every repeated run.
    Treat the two containers as read-only.
    """

    config: GridConfig
    #: Identity of the job for the run-to-run jitter hash.
    job_key: str
    activation_checkpointing: bool
    layers: tuple[LayerPrice, ...]
    #: Busy time of the compute stream: every layer's forward and
    #: backward plus the optimizer step.
    compute_total: float
    #: Every FC-layer collective's duration, hidden or not (the weight
    #: all-gather counted twice under activation checkpointing).
    layer_comm_total: float
    #: Attention core of one transformer block (all G_seq ring steps).
    attention_fwd: float
    #: Ring-attention KV rotation (all zero on classic G_seq = 1 grids):
    #: fused K+V payload per hop, wire time of one forward / backward
    #: hop, and the part of a block's rotation no compute hides.
    ring_payload_bytes: float
    seq_hop_fwd: float
    seq_hop_bwd: float
    seq_exposed_fwd: float
    seq_exposed_bwd: float
    #: Wire time of every rotation hop of the iteration, hidden or not
    #: (one ring per attention core, i.e. per transformer block).
    seq_raw_time: float
    #: Data-parallel gradient all-reduce and the optimizer step.
    dp_time: float
    optimizer_time: float
    tuning_speedup: float
    #: Per axis, the algorithms elected for its node-straddling
    #: collectives.  A set: a repeated (op, bytes, axis) price repeats
    #: its pick, so memoizing repeats cannot change what is reported.
    axis_picks: dict[str, frozenset[str]]


#: Local ``(fwd, dI, dW)`` GEMM seconds of one FC-layer shape.
GemmTimes = tuple[float, float, float]


class ShapePlan(NamedTuple):
    """A replica's tuned GEMM plan, per distinct FC-layer shape.

    What :func:`price_iteration` reads of the per-op
    :class:`~repro.kernels.TunedPlan` of the replica's
    :func:`local_matmul_ops`: every layer of one shape runs the same
    three local GEMMs, and a GPT stack has a handful of shapes.
    """

    #: ``(m, k, n, transposed)`` -> ``(default, tuned)`` local GEMM
    #: times.
    times: dict[tuple[int, int, int, bool], tuple[GemmTimes, GemmTimes]]
    #: ``TunedPlan.speedup`` of the per-op plan, bitwise.
    speedup: float


class JobInputs(NamedTuple):
    """The knob-free inputs of :func:`price_iteration`, GEMMs per shape.

    What pricing reads of a (job, grid, placement), in that function's
    argument order — ``price_iteration(cfg, global_batch, config,
    machine, *inputs, algo, ...)`` — so one value serves every (kernel
    mode, collective algorithm, overlap) combination tried on the grid.
    ``plan`` is a :class:`ShapePlan`, not the per-op
    :class:`~repro.kernels.TunedPlan`.
    """

    layers: list[LayerShape]
    plan: ShapePlan
    timings: dict[str, LinkTiming]
    #: Empty when the caller prices ``"flat"`` only.
    hier_timings: dict[str, HierTiming | None]


def _local_gemm_shapes(
    layer: LayerShape, config: GridConfig
) -> tuple[int, int, int]:
    """Per-rank local GEMM dims (m_l, k_l, n_l) for one FC layer.

    The row dimension (batch x sequence) is sharded by both the batch
    axis Z and the sequence axis: each sequence shard holds S/G_seq of
    every token row.
    """
    g_contract = config.gx if layer.transposed else config.gy
    g_col = config.gy if layer.transposed else config.gx
    m_l = max(1, layer.m // (config.gz * config.gs))
    k_l = max(1, layer.k // g_contract)
    n_l = max(1, layer.n // g_col)
    return m_l, k_l, n_l


def local_matmul_ops(
    layers: list[LayerShape], config: GridConfig
) -> list[MatmulOp]:
    """The per-rank forward / dI / dW GEMMs of every FC layer.

    Kernel tuning (Section V-C) operates on these *local* shapes."""
    ops: list[MatmulOp] = []
    for layer in layers:
        m_l, k_l, n_l = _local_gemm_shapes(layer, config)
        ops.append(MatmulOp(f"{layer.name}.fwd", m_l, k_l, n_l, "NN"))
        ops.append(MatmulOp(f"{layer.name}.dI", m_l, n_l, k_l, "NT"))
        ops.append(MatmulOp(f"{layer.name}.dW", k_l, m_l, n_l, "TN"))
    return ops


def _attention_compute(
    cfg: GPTConfig, config: GridConfig, batch_per_group: int, gemm: GemmModel
) -> float:
    """Per-layer, per-rank forward time of one attention *block*.

    Each rank computes ``heads/G_x`` heads over its ``B/(G_z G_data)``
    samples: two (s x hd) x (hd x s)-ish batched GEMMs per head.  These
    small GEMMs run at low efficiency, which the size model captures.

    With sequence parallelism the rank holds ``S/G_seq`` query rows and
    visits KV blocks of the same length, so this is the time of *one*
    ring step; the full attention core runs ``G_seq`` such blocks
    (``G_seq = 1`` degenerates to the whole (S x S) core).
    """
    b_loc = max(1, batch_per_group // config.gz)
    heads_loc = max(1, cfg.num_heads // config.gx)
    s, hd = max(1, cfg.seq_len // config.gs), cfg.head_dim
    per_head = gemm.time(s, hd, s, "NN") + gemm.time(s, s, hd, "NN")
    return b_loc * heads_loc * per_head


def _memory_bound_overheads(
    cfg: GPTConfig,
    config: GridConfig,
    batch_per_group: int,
    machine: MachineSpec,
) -> tuple[float, float]:
    """(per-layer elementwise time, per-iteration optimizer time).

    Elementwise ops (LayerNorm, residual adds, GELU, bias) stream each
    layer's local activations through HBM a handful of times; the
    optimizer step reads and writes every local parameter's 16 bytes of
    state.  Both are memory-bound and invisible to the GEMM model.
    """
    hbm = machine.gpu.hbm_bw
    rows_local = max(
        1, batch_per_group * cfg.seq_len // (config.gz * config.gs)
    )
    h_local = max(1, cfg.hidden_size // max(config.gx, config.gy))
    # ~10 activation-sized HBM passes per transformer layer (2 LN, 2
    # residuals, GELU on 4h, biases), bf16.
    elementwise = 10.0 * rows_local * h_local * DTYPE_BYTES / hbm
    params_local = cfg.num_parameters() / config.gtensor
    optimizer = 2.0 * params_local * BYTES_PER_PARAM / hbm
    return elementwise, optimizer


_FLAT_TIME_FNS = {
    "all_gather": all_gather_time,
    "reduce_scatter": reduce_scatter_time,
    "all_reduce": all_reduce_time,
}


def _priced_collective(
    op: str,
    nbytes: float,
    p: int,
    link: LinkTiming,
    hier: HierTiming | None,
    algo: str,
) -> tuple[float, str | None]:
    """(duration, picked algorithm) of one collective — pure pricing.

    ``algo="hierarchical"`` always takes the two-level path when the
    group decomposes (``hier`` is not None); ``"auto"`` takes whichever
    of the two measured timings is cheaper.  The pick is ``None`` when
    no flat-vs-hierarchical decision was in play (forced flat, size-1,
    or non-decomposable group).
    """
    t_flat = _FLAT_TIME_FNS[op](nbytes, p, link.bandwidth, link.latency)
    if algo == "flat" or hier is None or p <= 1:
        return t_flat, None
    t_hier = hierarchical_time(
        op, nbytes, hier.L, hier.Q,
        hier.intra.bandwidth, hier.leaders.bandwidth,
        hier.intra.latency, hier.leaders.latency,
    )
    pick_hier = algo == "hierarchical" or t_hier < t_flat
    pick = "hierarchical" if pick_hier else "flat"
    return (t_hier if pick_hier else t_flat), pick


def _layer_collectives(
    layer: LayerShape, config: GridConfig, collective
) -> tuple[tuple[float, float, float, float], float]:
    """``((ag_z, rs_z, ar_fwd, ar_bwd), dp shard bytes)`` of Algorithm 1
    for one layer; ``collective(op, nbytes, p, axis)`` prices each."""
    gx, gy, gz = config.gx, config.gy, config.gz
    ax, ay = "x", "y"
    if layer.transposed:
        gx, gy = gy, gx
        ax, ay = ay, ax
    m, k, n = layer.m, layer.k, layer.n

    shard = k * n / (config.gx * config.gy * gz) * DTYPE_BYTES
    block = k * n / (config.gx * config.gy) * DTYPE_BYTES
    out_block = m * n / (gz * gx) * DTYPE_BYTES
    in_block = m * k / (gz * gy) * DTYPE_BYTES
    return (
        collective("all_gather", shard, gz, "z"),
        collective("reduce_scatter", block, gz, "z"),
        collective("all_reduce", out_block, gy, ay),
        collective("all_reduce", in_block, gx, ax),
    ), shard


def job_inputs(
    cfg: GPTConfig,
    global_batch: int,
    config: GridConfig,
    machine: MachineSpec,
    placement_strategy: str,
    hierarchical: bool,
) -> JobInputs:
    """Stage 0: assemble one grid's :class:`JobInputs`.

    The replica's FC layers, their tuned GEMM times per distinct layer
    shape and the measured per-axis links of ``config`` placed on
    ``machine``.  ``hierarchical`` says whether any pricing of these
    inputs will use a non-flat ``algo``; the two-level timings are
    measured only then (``"flat"`` pricing never reads them)."""
    placement = Placement(machine, config.total, strategy=placement_strategy)
    grid = Grid4D(config, placement=placement)
    layers = gpt_layer_shapes(cfg, global_batch // config.gdata)
    gemm = GemmModel(machine)
    times: dict[tuple, tuple[GemmTimes, GemmTimes]] = {}
    per_layer: list[tuple[GemmTimes, GemmTimes]] = []
    for layer in layers:
        key = (layer.m, layer.k, layer.n, layer.transposed)
        t = times.get(key)
        if t is None:
            plan = tune_matmuls_cached(local_matmul_ops([layer], config), gemm)
            t = times[key] = (
                tuple(plan.default_times.values()),
                tuple(plan.tuned_times.values()),
            )
        per_layer.append(t)
    # TunedPlan.speedup's two sums: sum() itself over the same fwd, dI,
    # dW sequence, so the result is bitwise on every Python (3.12's
    # float sum() is compensated, not left to right).
    total_default = sum(v for default, _ in per_layer for v in default)
    total_tuned = sum(v for _, tuned in per_layer for v in tuned)
    speedup = 1.0 if total_tuned == 0 else total_default / total_tuned
    return JobInputs(
        layers,
        ShapePlan(times, speedup),
        group_timings(grid, placement),
        hierarchical_group_timings(grid, placement) if hierarchical else {},
    )


def price_iteration(
    cfg: GPTConfig,
    global_batch: int,
    config: GridConfig,
    machine: MachineSpec,
    layers: list[LayerShape],
    plan: ShapePlan,
    timings: dict[str, LinkTiming],
    hier_timings: dict[str, HierTiming | None],
    algo: str,
    kernel_tuning: bool,
    activation_checkpointing: bool,
    compute_slowdown: float,
    comm_slowdown: float,
) -> IterationPrices:
    """Stage 1: price every kernel and collective of one iteration.

    ``layers`` are the replica's FC layers
    (``gpt_layer_shapes(cfg, global_batch // config.gdata)``), ``plan``
    the tuned GEMM plan of their :func:`local_matmul_ops` per distinct
    layer shape, and
    ``timings`` / ``hier_timings`` the per-axis link measurements
    (``hier_timings`` may be empty under ``algo="flat"``).  Each
    ``(collective, bytes, axis)`` and each repeated layer shape is
    priced once — GPT stacks repeat identical transformer blocks.
    """
    if global_batch % config.gdata:
        raise ValueError(
            f"global batch {global_batch} not divisible by G_data {config.gdata}"
        )
    if config.gs > 1 and cfg.seq_len % config.gs:
        raise ValueError(
            f"seq_len {cfg.seq_len} not divisible by G_seq {config.gs}"
        )
    if compute_slowdown < 1.0 or comm_slowdown < 1.0:
        raise ValueError("slowdown factors must be >= 1")
    if algo not in ("flat", "hierarchical", "auto"):
        raise ValueError(
            f"collective_algo must be 'flat', 'hierarchical' or 'auto', got {algo!r}"
        )
    gemm = GemmModel(machine)
    batch_per_group = global_batch // config.gdata
    gemm_times = plan.times
    tuned = 1 if kernel_tuning else 0

    memo: dict[tuple, float] = {}
    picks: dict[str, set[str]] = {}

    def collective(op: str, nbytes: float, p: int, axis: str) -> float:
        key = (op, nbytes, axis)
        t = memo.get(key)
        if t is None:
            t, pick = _priced_collective(
                op, nbytes, p, timings[axis], hier_timings.get(axis), algo
            )
            t = memo[key] = t * comm_slowdown
            if pick is not None:
                picks.setdefault(axis, set()).add(pick)
        return t

    attn_blk = _attention_compute(cfg, config, batch_per_group, gemm)
    attn_blk *= compute_slowdown
    # Full attention core = G_seq ring blocks (one block on classic grids).
    attn_fwd = config.gs * attn_blk
    # Ring-attention KV rotation: each of the G_seq steps overlaps one
    # block's compute with one fused K+V hop on the sequence ring; only
    # the part of the hop not hidden behind the block is exposed.
    ring_payload = seq_hop_f = seq_hop_b = 0.0
    seq_exp_fwd = seq_exp_bwd = 0.0
    if config.gs > 1:
        ts = timings["seq"]
        b_loc = max(1, batch_per_group // config.gz)
        ring_payload = (
            2.0
            * b_loc
            * (cfg.seq_len / config.gs)
            * (cfg.hidden_size / config.gx)
            * DTYPE_BYTES
        )
        seq_hop_f = comm_slowdown * (ts.latency + ring_payload / ts.bandwidth)
        # The backward hop carries the KV pair plus its gradients.
        seq_hop_b = comm_slowdown * (
            ts.latency + 2.0 * ring_payload / ts.bandwidth
        )
        seq_exp_fwd = config.gs * max(attn_blk, seq_hop_f) - attn_fwd
        seq_exp_bwd = (
            config.gs * max(2.0 * attn_blk, seq_hop_b) - 2.0 * attn_fwd
        )
    elementwise, optimizer_time = _memory_bound_overheads(
        cfg, config, batch_per_group, machine
    )
    elementwise *= compute_slowdown
    optimizer_time *= compute_slowdown

    priced: list[LayerPrice] = []
    shard_bytes: list[float] = []
    shape_colls: dict[tuple, tuple[tuple[float, ...], float]] = {}
    for layer in layers:
        name = layer.name
        # The attention core runs after the QKV projection of each block.
        qkv = name.endswith(".qkv")
        # The layer only enters its GEMMs and collectives through this key.
        shape_key = (layer.m, layer.k, layer.n, layer.transposed)
        t_fwd, t_di, t_dw = gemm_times[shape_key][tuned]
        fc = t_fwd * compute_slowdown + elementwise
        if qkv:
            fc += attn_fwd
        recompute = fc if activation_checkpointing else 0.0
        dw = t_dw * compute_slowdown
        bc = recompute + t_di * compute_slowdown + dw
        bc += elementwise
        if qkv:
            bc += 2.0 * attn_fwd  # attention backward ~ 2x forward
        c = shape_colls.get(shape_key)
        if c is None:
            c = shape_colls[shape_key] = _layer_collectives(
                layer, config, collective
            )
        priced.append(LayerPrice(name, fc, bc, dw, *c[0]))
        shard_bytes.append(c[1])

    dp_time = collective("all_reduce", sum(shard_bytes), config.gdata, "data")
    return IterationPrices(
        config=config,
        job_key=f"{machine.name}|{config}|{cfg.name}|{global_batch}",
        activation_checkpointing=activation_checkpointing,
        layers=tuple(priced),
        compute_total=(
            sum(c.fwd for c in priced)
            + sum(c.bwd for c in priced)
            + optimizer_time
        ),
        layer_comm_total=sum(
            c.ag_z * (2 if activation_checkpointing else 1)
            + c.rs_z + c.ar_fwd + c.ar_bwd
            for c in priced
        ),
        attention_fwd=attn_fwd,
        ring_payload_bytes=ring_payload,
        seq_hop_fwd=seq_hop_f,
        seq_hop_bwd=seq_hop_b,
        seq_exposed_fwd=seq_exp_fwd,
        seq_exposed_bwd=seq_exp_bwd,
        seq_raw_time=cfg.num_layers * config.gs * (seq_hop_f + seq_hop_b),
        dp_time=dp_time,
        optimizer_time=optimizer_time,
        tuning_speedup=plan.speedup if kernel_tuning else 1.0,
        axis_picks={axis: frozenset(p) for axis, p in picks.items()},
    )


def schedule_iteration(
    prices: IterationPrices, overlap: OverlapFlags, trace
) -> tuple[float, int]:
    """Stage 2: walk both passes over the priced layers, stream by stream.

    One compute stream plus one communication stream per communicator
    family (as with NCCL/RCCL, collectives over different process
    groups proceed concurrently; collectives over the same group
    serialize).  The Z stream carries weight all-gathers and gradient
    reduce-scatters; the X/Y streams carry activation all-reduces.
    Returns ``(end of the iteration, events with end > start)``; each
    such event is also added to ``trace`` unless that is ``None``.

    The walk is plain float arithmetic on five local stream clocks.
    ``x if x > y else y`` stands for ``max(y, x)`` and keeps its tie
    rule (the first argument wins unless the second is strictly
    greater).  An event counts when ``end > start``, which is not
    ``duration > 0``: a tiny duration can vanish into a large clock.
    """
    oar, ors, oag = overlap.oar, overlap.ors, overlap.oag
    recompute = prices.activation_checkpointing
    seq_exp_fwd, seq_exp_bwd = prices.seq_exposed_fwd, prices.seq_exposed_bwd
    traced = trace is not None
    # The compute stream and the Z, forward-AR, backward-AR and
    # sequence-ring communication streams.
    comp = z = ar_f = ar_b = seq = 0.0
    num_events = 0

    # Forward pass.  Size-1 groups cost nothing and must not act as
    # stream barriers, so zero-duration collectives are skipped.
    for name, fwd, _, _, ag_z, _, ar_fwd, _ in prices.layers:
        if ag_z > 0:
            start = comp if not oag and comp > z else z
            z = start + ag_z
            if z > start:
                num_events += 1
                if traced:
                    trace.add("comm.z", f"{name}.AG_z", start, z)
            if z > comp:
                comp = z
        end = comp + fwd
        if end > comp:
            num_events += 1
            if traced:
                trace.add("compute", f"{name}.fwd", comp, end)
        comp = end
        if seq_exp_fwd > 0 and name.endswith(".qkv"):
            # Exposed part of the KV ring rotation (the hidden part ran
            # inside the attention share of the forward compute).
            start = seq if seq > comp else comp
            end = start + seq_exp_fwd
            if end > start:
                num_events += 1
                if traced:
                    trace.add("comm.seq", f"{name}.ring_seq", start, end)
            comp = seq = end
        if ar_fwd > 0:
            # Forward all-reduce: blocking (the output is needed now).
            start = ar_f if ar_f > comp else comp
            end = start + ar_fwd
            if end > start:
                num_events += 1
                if traced:
                    trace.add("comm.ar_fwd", f"{name}.AR_fwd", start, end)
            comp = ar_f = end

    # Backward pass (reverse layer order).
    for name, _, bwd, dw, ag_z, rs_z, _, ar_bwd in reversed(prices.layers):
        # Activation checkpointing re-gathers the layer's weights for the
        # recompute; with OAG these gathers prefetch on the Z stream.
        if recompute and ag_z > 0:
            start = comp if not oag and comp > z else z
            z = start + ag_z
            if z > start:
                num_events += 1
                if traced:
                    trace.add("comm.z", f"{name}.AG_z(recompute)", start, z)
            if z > comp:
                comp = z
        # Recompute + dI GEMM (+ attention backward), then AR over the
        # column axis.
        end = comp + (bwd - dw)
        if end > comp:
            num_events += 1
            if traced:
                trace.add("compute", f"{name}.bwd", comp, end)
        comp = end
        if seq_exp_bwd > 0 and name.endswith(".qkv"):
            start = seq if seq > comp else comp
            end = start + seq_exp_bwd
            if end > start:
                num_events += 1
                if traced:
                    trace.add("comm.seq", f"{name}.ring_seq(bwd)", start, end)
            comp = seq = end
        if ar_bwd > 0:
            # Issued once the recompute + dI is done; OAR runs it beside
            # the dW GEMM, otherwise dW waits for it.
            start = comp if comp > ar_b else ar_b
            ar_b = start + ar_bwd
            if ar_b > start:
                num_events += 1
                if traced:
                    trace.add("comm.ar_bwd", f"{name}.AR_bwd", start, ar_b)
            if not oar:
                comp = ar_b
        end = comp + dw
        if end > comp:
            num_events += 1
            if traced:
                trace.add("compute", f"{name}.dW", comp, end)
        comp = end
        if oar and ar_bwd > 0 and ar_b > comp:
            comp = ar_b  # wait after dW
        if rs_z > 0:
            start = comp if comp > z else z
            end = start + rs_z
            if end > start:
                num_events += 1
                if traced:
                    trace.add("comm.z", f"{name}.RS_z", start, end)
            z = end
            if not ors:
                comp = end  # blocking; with ORS it is waited on at the join

    # Join streams, then the data-parallel gradient all-reduce and the
    # (memory-bound) optimizer step.
    t = comp
    if z > t:
        t = z
    if ar_f > t:
        t = ar_f
    if ar_b > t:
        t = ar_b
    if seq > t:
        t = seq
    dp_time, optimizer_time = prices.dp_time, prices.optimizer_time
    start = t + dp_time
    if dp_time > 0 and start > t:
        num_events += 1
        if traced:
            trace.add("comm.data", "grad.AR_data", t, start)
    end = start + optimizer_time
    if end > start:
        num_events += 1
        if traced:
            trace.add("compute", "optimizer.step", start, end)
    return end, num_events


def summarise_iteration(
    prices: IterationPrices,
    total: float,
    num_events: int,
    noise: float,
    run_salt: int,
) -> IterationResult:
    """Stage 3: the scheduled end time as an :class:`IterationResult`.

    Applies the run-to-run jitter and reports the compute / exposed /
    raw communication split and the per-axis algorithm choices."""
    p, config = prices, prices.config
    key = p.job_key
    if run_salt:
        key += f"|{run_salt}"
    total *= deterministic_jitter(key, noise)
    total = max(total, p.compute_total)

    algo_choices: dict[str, str] = {}
    for axis, size in zip(AXES5, config.full_dims):
        picks = p.axis_picks.get(axis, ())
        if size <= 1:
            algo_choices[axis] = "n/a"
        elif "hierarchical" not in picks:
            algo_choices[axis] = "flat"
        elif "flat" not in picks:
            algo_choices[axis] = "hierarchical"
        else:
            algo_choices[axis] = "mixed"
    details = {"dp_time": p.dp_time, "attention_fwd_per_block": p.attention_fwd}
    if config.gs > 1:
        details.update(
            ring_seq_payload_bytes=p.ring_payload_bytes,
            ring_seq_hop_fwd=p.seq_hop_fwd,
            ring_seq_hop_bwd=p.seq_hop_bwd,
            ring_seq_exposed_fwd=p.seq_exposed_fwd,
            ring_seq_exposed_bwd=p.seq_exposed_bwd,
        )
    return IterationResult(
        total_time=total,
        compute_time=p.compute_total,
        exposed_comm_time=total - p.compute_total,
        raw_comm_time=p.dp_time + p.seq_raw_time + p.layer_comm_total,
        config=config,
        tuning_speedup=p.tuning_speedup,
        details=details,
        algo_choices=algo_choices,
        num_events=num_events,
    )


def simulate_iteration(
    cfg: GPTConfig,
    global_batch: int,
    config: GridConfig,
    machine: MachineSpec,
    overlap: OverlapFlags = OverlapFlags.none(),
    kernel_tuning: bool = False,
    activation_checkpointing: bool = True,
    noise: float = DEFAULT_NOISE,
    trace=None,
    run_salt: int = 0,
    placement_strategy: str = "block",
    compute_slowdown: float = 1.0,
    comm_slowdown: float = 1.0,
    collective_algo: str | None = None,
    timing_only: bool = False,
) -> IterationResult:
    """Simulate one training iteration and return its timing breakdown.

    Three stages, each a function of its own: :func:`price_iteration`
    (the :func:`job_inputs` -- link timings, tuned GEMM plan -- and
    per-layer durations -> :class:`IterationPrices`),
    :func:`schedule_iteration` (the
    multi-stream walk under ``overlap``) and :func:`summarise_iteration`
    (jitter and the :class:`IterationResult`).

    Pass a :class:`repro.simulate.trace.Timeline` as ``trace`` to record
    every kernel and collective as a Gantt event (pre-jitter times).
    ``run_salt`` varies the deterministic congestion jitter, modeling
    repeated submissions of the same job (Section VI-B's run-to-run
    variability).  ``placement_strategy`` selects the rank -> device
    mapping (see :class:`repro.cluster.Placement`).
    ``compute_slowdown``/``comm_slowdown`` (>= 1) stretch the compute
    and communication streams respectively — a straggler node throttled
    on clocks or sharing a congested switch slows *every* rank in the
    SPMD program to its pace (see :mod:`repro.simulate.failures`).
    ``collective_algo`` (``"flat"`` | ``"hierarchical"`` | ``"auto"``)
    overrides ``config.collective_algo`` for pricing node-straddling
    collectives; the per-axis outcome is reported in
    :attr:`IterationResult.algo_choices`.  ``timing_only=True`` skips
    per-event ``Timeline`` records (``trace`` stays empty) when only
    aggregate iteration time is needed; every timing field, including
    :attr:`IterationResult.num_events`, is unchanged.
    """
    algo = collective_algo if collective_algo is not None else config.collective_algo
    inputs = job_inputs(
        cfg, global_batch, config, machine, placement_strategy, algo != "flat"
    )
    prices = price_iteration(
        cfg, global_batch, config, machine, *inputs,
        algo, kernel_tuning, activation_checkpointing,
        compute_slowdown, comm_slowdown,
    )
    total, num_events = schedule_iteration(
        prices, overlap, None if timing_only else trace
    )
    return summarise_iteration(prices, total, num_events, noise, run_salt)


def baseline_config(
    cfg: GPTConfig, num_gpus: int, machine: MachineSpec
) -> GridConfig:
    """The Fig. 7 baseline: Megatron-style 1D tensor parallelism inside
    each node (G_x = node size) plus hybrid sharded data parallelism
    across nodes (Z grows until the shard fits in memory, the remainder
    goes to data parallelism)."""
    gx = min(machine.gpus_per_node, num_gpus)
    rem = num_gpus // gx
    budget = machine.gpu.memory_bytes * 0.8
    gz = 1
    while (
        cfg.num_parameters() * BYTES_PER_PARAM / (gx * gz) > budget
        and gz < rem
    ):
        gz *= 2
    if num_gpus % (gx * gz):
        raise ValueError(
            f"cannot build baseline: {num_gpus} GPUs vs Gx={gx}, Gz={gz}"
        )
    return GridConfig(gx, 1, gz, num_gpus // (gx * gz))
