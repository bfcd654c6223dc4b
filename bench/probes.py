"""Layer probes: one public function of one layer, called in isolation at
the shapes the workloads use.

Each probe is the median of 15 calls after 3 warm-ups (forward+backward
where the function has a backward).  A probe says what one layer costs
on its own; the workloads say whether that cost matters end to end.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from repro.autotune import PlanRequest
from repro.cluster import Placement, get_machine
from repro.config import get_model
from repro.core import (
    Grid4D,
    GridConfig,
    enumerate_grid_configs,
    pmm3d_backward,
    pmm3d_forward,
    shard_input,
    shard_weight,
)
from repro.kernels import GemmModel, MatmulOp, tune_matmuls, tune_matmuls_cached
from repro.nn import GPT, decode_step, generate_greedy, prefill
from repro.perfmodel import rank_configurations
from repro.runtime import (
    ProcessGroup,
    all_gather,
    all_reduce,
    hierarchical_all_reduce,
    reduce_scatter,
)
from repro.serving import (
    BatchingConfig,
    ContinuousBatcher,
    PagedKVCache,
    TensorParallelDecoder,
    batched_decode_step,
    poisson_trace,
)
from repro.simulate import (
    OverlapFlags,
    ServingModel,
    simulate_iteration,
    simulate_serving,
)
from repro.tensor import Tensor, cross_entropy, embedding, gelu, layer_norm, softmax

from workloads import BATCH, SEQ, VOCAB, model_config

WARMUPS, REPEATS = 3, 15
_rng = np.random.default_rng(0)  # probe inputs are fixed, not seeded


def _leaf(*shape) -> Tensor:
    return Tensor(_rng.standard_normal(shape), requires_grad=True)


def _fwd_bwd(build):
    """Probe of ``build() -> Tensor``: forward, then backward of ones."""
    out = build()
    ones = np.ones_like(out.data)
    return lambda: build().backward(ones)


# -- tensor -------------------------------------------------------------------


def _matmul():
    a, b = _leaf(512, 128), _leaf(128, 512)
    return _fwd_bwd(lambda: a @ b)


def _gelu():
    x = _leaf(BATCH, SEQ, 512)
    return _fwd_bwd(lambda: gelu(x))


def _softmax():
    x = _leaf(BATCH, 8, SEQ, SEQ)
    return _fwd_bwd(lambda: softmax(x))


def _layer_norm():
    x, w, b = _leaf(BATCH, SEQ, 128), _leaf(128), _leaf(128)
    return _fwd_bwd(lambda: layer_norm(x, w, b))


def _embedding():
    w = _leaf(VOCAB, 128)
    ids = _rng.integers(0, VOCAB, (BATCH, SEQ))
    return _fwd_bwd(lambda: embedding(w, ids))


def _cross_entropy():
    logits = _leaf(BATCH, SEQ, VOCAB)
    targets = _rng.integers(0, VOCAB, (BATCH, SEQ))
    return _fwd_bwd(lambda: cross_entropy(logits, targets))


# -- runtime ------------------------------------------------------------------


def _collective(fn, p, nbytes, **kw):
    group = ProcessGroup(tuple(range(p)))
    # Leading dimension 64 divides by every group size used here.
    bufs = {r: _rng.standard_normal((64, nbytes // 8 // 64)) for r in range(p)}
    return lambda: fn(bufs, group, **kw)


def _all_reduce_hier():
    placement = Placement(get_machine("perlmutter"), 8)  # 2 nodes x 4
    return _collective(hierarchical_all_reduce, 8, 64 << 10, placement=placement)


# -- core ---------------------------------------------------------------------


def _pmm3d():
    grid = Grid4D(GridConfig(2, 2, 2, 1))
    inp = shard_input(_rng.standard_normal((BATCH * SEQ, 128)), grid)
    w = shard_weight(_rng.standard_normal((128, 512)), grid)
    return grid, inp, w


def _pmm3d_fwd():
    grid, inp, w = _pmm3d()
    return lambda: pmm3d_forward(grid, inp, w)


def _pmm3d_bwd():
    grid, inp, w = _pmm3d()
    out, cache = pmm3d_forward(grid, inp, w)
    d_out = {r: np.ones_like(o) for r, o in out.items()}
    return lambda: pmm3d_backward(grid, d_out, cache)


# -- nn generation and serving -------------------------------------------------

@functools.cache
def _model() -> GPT:
    return GPT(model_config(256), seed=0)


def _prefill():
    model, prompt = _model(), _rng.integers(0, VOCAB, 128)
    return lambda: prefill(model, prompt)


def _decode_step():
    model = _model()
    _, cache = prefill(model, _rng.integers(0, VOCAB, 48))
    # The cache grows by one token per call: 18 calls on 48 tokens.
    return lambda: decode_step(model, np.array([7]), cache)


def _generate_greedy():
    model, prompt = _model(), _rng.integers(0, VOCAB, 8)
    return lambda: generate_greedy(model, prompt, 16)


def _paged(batch: int, context: int = 48):
    """A paged KV cache holding ``batch`` sequences of ``context`` tokens."""
    model = _model()
    cfg = model.cfg
    kv = PagedKVCache(cfg.num_layers, cfg.num_heads, cfg.head_dim)
    for s in range(batch):
        kv.add_sequence(s)
        kv.reserve(s, context + WARMUPS + REPEATS + 1)
        for layer in range(cfg.num_layers):
            kv.write(s, layer, *_rng.standard_normal(
                (2, cfg.num_heads, context, cfg.head_dim)))
        kv.advance(s, context)
    return model, kv


def _batched_decode(batch: int):
    def make():
        model, kv = _paged(batch)
        tokens, seqs = np.full(batch, 7), list(range(batch))
        return lambda: batched_decode_step(model, tokens, kv, seqs)

    return make


def _kv_gather():
    _, kv = _paged(1)
    return lambda: kv.gather(0, 0)


def _kv_write():
    model, kv = _paged(1, context=0)
    cfg = model.cfg
    k = _rng.standard_normal((cfg.num_heads, 128, cfg.head_dim))
    kv.reserve(0, 128)
    # No advance(): every call rewrites the same 128 uncommitted slots.
    return lambda: kv.write(0, 0, k, k)


def _admit():
    config = BatchingConfig(max_batch=16, block_size=16, num_blocks=256)
    trace = poisson_trace(1.0, 16, vocab_size=VOCAB)

    def call():
        batcher = ContinuousBatcher(config)
        for r in trace:
            batcher.enqueue(r)
        return batcher.admit(0, config.num_blocks)

    return call


def _tp_decode():
    dec = TensorParallelDecoder(_model(), Grid4D(GridConfig(4, 1, 1, 1)))
    for s in range(8):
        dec.add_sequence(s, 48 + WARMUPS + REPEATS + 1)
        dec.prefill(s, _rng.integers(0, VOCAB, 48))
    tokens, seqs = np.full(8, 7), list(range(8))
    return lambda: dec.decode_step(tokens, seqs)


# -- simulate, perfmodel, kernels ---------------------------------------------


def _iteration(model: str, grid: tuple, count_events=False):
    cfg, config = get_model(model), GridConfig(*grid)
    frontier = get_machine("frontier")

    def call():
        res = simulate_iteration(
            cfg, 2 * config.total, config, frontier,
            overlap=OverlapFlags.all(), kernel_tuning=True,
            collective_algo="auto", timing_only=True,
        )
        return res.num_events if count_events else None

    return call


def _serving_sim():
    cfg = get_model("GPT-5B")
    trace = poisson_trace(4.0, 64, vocab_size=cfg.vocab_size)
    model = ServingModel(cfg, get_machine("frontier"), tp=4)

    def call():
        simulate_serving(trace, model, BatchingConfig(max_batch=16))
        return len(trace)

    return call


def _rank():
    request = PlanRequest("GPT-10B", 1024, "frontier", top_k=1024)
    request = request.replace(db=request.resolved_db())
    return lambda: rank_configurations(request)


def _matmul_ops() -> list[MatmulOp]:
    # The distinct GEMM shapes of a GPT-20B block at a few local sizes.
    return [
        MatmulOp(f"op{i}", m, k, n, mode)
        for i, (m, k, n, mode) in enumerate(
            (4096 * s, 6144 // t, 4 * 6144 // t, mode)
            for s in (1, 2, 4) for t in (1, 2, 4)
            for mode in ("NN", "NT", "TN")
        )
    ]


def _tune_cold():
    ops, gemm = _matmul_ops(), GemmModel(get_machine("frontier"))
    return lambda: tune_matmuls(ops, gemm)


def _tune_warm():
    ops, gemm = _matmul_ops(), GemmModel(get_machine("frontier"))
    return lambda: tune_matmuls_cached(ops, gemm)


#: name -> (unit, factory of the zero-argument call to time).  A "1/s"
#: probe's call returns the number of items it processed.
PROBES = {
    "tensor.matmul_ms": ("ms", _matmul),
    "tensor.gelu_ms": ("ms", _gelu),
    "tensor.softmax_ms": ("ms", _softmax),
    "tensor.layer_norm_ms": ("ms", _layer_norm),
    "tensor.embedding_ms": ("ms", _embedding),
    "tensor.cross_entropy_ms": ("ms", _cross_entropy),
    "runtime.all_reduce_ms.p2": ("ms", lambda: _collective(all_reduce, 2, 64 << 10)),
    "runtime.all_reduce_ms.p4": ("ms", lambda: _collective(all_reduce, 4, 64 << 10)),
    "runtime.all_gather_ms.p2": ("ms", lambda: _collective(all_gather, 2, 64 << 10)),
    "runtime.reduce_scatter_ms.p2": (
        "ms", lambda: _collective(reduce_scatter, 2, 64 << 10)),
    # 1 KiB: the payload of a tensor-parallel decode all-reduce.
    "runtime.all_reduce_small_ms.p4": (
        "ms", lambda: _collective(all_reduce, 4, 1 << 10)),
    "runtime.all_reduce_hier_ms.p8": ("ms", _all_reduce_hier),
    "core.pmm3d_fwd_ms": ("ms", _pmm3d_fwd),
    "core.pmm3d_bwd_ms": ("ms", _pmm3d_bwd),
    "nn.prefill_ms.s128": ("ms", _prefill),
    "nn.decode_step_ms": ("ms", _decode_step),
    "nn.generate_greedy_ms": ("ms", _generate_greedy),
    "serving.batched_decode_ms.b1": ("ms", _batched_decode(1)),
    "serving.batched_decode_ms.b8": ("ms", _batched_decode(8)),
    "serving.batched_decode_ms.b16": ("ms", _batched_decode(16)),
    "serving.kv_gather_ms": ("ms", _kv_gather),
    "serving.kv_write_ms": ("ms", _kv_write),
    "serving.admit_us": ("us", _admit),
    "serving.tp_decode_ms.gx4": ("ms", _tp_decode),
    "simulate.iteration_ms.r1024": (
        "ms", lambda: _iteration("GPT-20B", (2, 1, 16, 32))),
    "simulate.iteration_ms.r8192": (
        "ms", lambda: _iteration("GPT-80B", (2, 1, 64, 64))),
    "simulate.events_per_s": (
        "1/s", lambda: _iteration("GPT-40B", (2, 1, 16, 128), count_events=True)),
    "simulate.serving_req_per_s": ("1/s", _serving_sim),
    "perfmodel.rank_ms.g1024": ("ms", _rank),
    "perfmodel.enumerate_ms.g8192": ("ms", lambda: lambda: enumerate_grid_configs(8192)),
    "kernels.tune_cold_ms": ("ms", _tune_cold),
    "kernels.tune_warm_us": ("us", _tune_warm),
}


def run_probes() -> dict[str, tuple[float, str]]:
    """Time every probe; ``{name: (value, unit)}``."""
    out = {}
    for name, (unit, make) in PROBES.items():
        call = make()
        times = []
        for i in range(WARMUPS + REPEATS):
            t = time.perf_counter()
            items = call()
            times.append(time.perf_counter() - t)
        median = float(np.median(times[WARMUPS:]))
        if unit == "1/s":
            out[name] = (items / median, unit)
        else:
            out[name] = (median * {"ms": 1e3, "us": 1e6}[unit], unit)
    return out

