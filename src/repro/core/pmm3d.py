"""Algorithm 1: the 3D parallel matrix multiply with Z-sharded weights.

This module is a line-for-line realization of the paper's Algorithm 1 in
pure NumPy over the virtual ranks of one tensor-parallel block.  GPU
``g_{i,j,k}`` (``i`` = X-coordinate, ``j`` = Y, ``k`` = Z) holds

* ``I_{k,j}``  — the input block: rows (batch) split over **Z**, columns
  (in-features) split over **Y**, replicated along **X**;
* ``W_hat_{j,i}`` — its shard of the weight block: ``W``'s rows split
  over **Y**, columns split over **X**, and each (j, i) block further
  sharded along its rows over **Z** (the memory optimization replacing
  Agarwal's Z-replication);

and computes ``O_{k,i}`` — rows split over **Z**, columns (out-features)
split over **X**, replicated along **Y**.  A layer consuming ``O`` as its
input must therefore have its weight 'transposed' (X and Y roles
swapped), which is the paper's alternating-layer scheme.

The forward pass is lines 1–7 (all-gather_z, local matmul, all-reduce_y)
and the backward pass lines 9–16 (two local matmuls, all-reduce_x,
reduce-scatter_z).  For transposed layers pass ``transposed=True``; every
collective then runs over the swapped group.

These functions are the specification-level artifact used by the unit
tests; the autograd-integrated version is
:class:`repro.core.parallel_layers.ParallelLinear`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime import CommTracer, all_gather, all_reduce, reduce_scatter
from ..telemetry.spans import get_tracer as _telemetry, traced as _traced
from .grid import Grid4D

__all__ = [
    "shard_input",
    "shard_weight",
    "pmm3d_forward",
    "pmm3d_backward",
    "PMMCache",
]


def _axes(transposed: bool) -> tuple[str, str]:
    """(column axis, contraction axis) of the layer orientation.

    Normal layers contract over Y and split output columns over X;
    transposed layers swap the two.
    """
    return ("y", "x") if transposed else ("x", "y")


def _block(a: np.ndarray, axis: int, index: int, count: int) -> np.ndarray:
    """The ``index``-th of ``count`` equal blocks of ``a`` along ``axis``."""
    size = a.shape[axis]
    if size % count:
        raise ValueError(
            f"dimension {axis} of size {size} not divisible by {count}"
        )
    step = size // count
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(index * step, (index + 1) * step)
    return a[tuple(sl)]


def shard_input(
    I: np.ndarray, grid: Grid4D, transposed: bool = False
) -> dict[int, np.ndarray]:
    """Distribute the (m, k) input across the tensor block of replica 0.

    Rows over Z; columns over the contraction axis (Y normally, X when
    transposed); replicated along the remaining tensor axis.
    """
    c = grid.config
    col_axis, contract_axis = _axes(transposed)
    parts: dict[int, np.ndarray] = {}
    for x, y, z, dd in grid.iter_coords():
        if dd:
            continue
        j = y if contract_axis == "y" else x
        rows = _block(I, 0, z, c.gz)
        n_contract = c.gy if contract_axis == "y" else c.gx
        parts[grid.rank_of(x, y, z, 0)] = _block(rows, 1, j, n_contract).copy()
    return parts


def shard_weight(
    W: np.ndarray, grid: Grid4D, transposed: bool = False
) -> dict[int, np.ndarray]:
    """Distribute the (k, n) weight of replica 0: rows over the
    contraction axis, columns over the column axis, then rows of each
    block over Z."""
    c = grid.config
    col_axis, contract_axis = _axes(transposed)
    n_contract = c.gy if contract_axis == "y" else c.gx
    n_col = c.gx if col_axis == "x" else c.gy
    parts: dict[int, np.ndarray] = {}
    for x, y, z, dd in grid.iter_coords():
        if dd:
            continue
        j = y if contract_axis == "y" else x  # row-block coordinate
        i = x if col_axis == "x" else y  # col-block coordinate
        block = _block(_block(W, 0, j, n_contract), 1, i, n_col)
        parts[grid.rank_of(x, y, z, 0)] = _block(block, 0, z, c.gz).copy()
    return parts


@dataclass
class PMMCache:
    """Per-rank tensors cached by the forward pass for the backward pass
    (line 5 of Algorithm 1)."""

    I_parts: dict[int, np.ndarray]
    W_full: dict[int, np.ndarray]  # all-gathered (unsharded along Z) blocks


@_traced(cat="compute")
def pmm3d_forward(
    grid: Grid4D,
    I_parts: dict[int, np.ndarray],
    W_shards: dict[int, np.ndarray],
    transposed: bool = False,
    tracer: CommTracer | None = None,
) -> tuple[dict[int, np.ndarray], PMMCache]:
    """Lines 1–7 of Algorithm 1 across replica 0's tensor block.

    Returns the per-rank output blocks and the backward cache.
    """
    tracer = tracer if tracer is not None else grid.tracer
    _, contract_axis = _axes(transposed)
    block = grid.tensor_block_ranks(0)

    # Line 2: W_{j,i} = all-gather_z(W_hat_{j,i})
    W_full: dict[int, np.ndarray] = {}
    done: set[int] = set()
    for r in block:
        if r in done:
            continue
        zg = grid.group_along("z", r)
        out = all_gather({s: W_shards[s] for s in zg}, zg, tracer=tracer, tag="pmm3d.AG_z")
        W_full.update(out)
        done.update(zg.ranks)

    # Line 3: local matmul O_hat = I @ W.
    O_hat = {r: I_parts[r] @ W_full[r] for r in block}
    tel = _telemetry()
    if tel is not None:
        tel.metrics.counter("compute.flops.pmm3d").add(
            sum(
                2 * I_parts[r].shape[0] * I_parts[r].shape[1] * W_full[r].shape[1]
                for r in block
            )
        )

    # Line 4: O = all-reduce over the contraction axis.
    O: dict[int, np.ndarray] = {}
    done.clear()
    for r in block:
        if r in done:
            continue
        cg = grid.group_along(contract_axis, r)
        out = all_reduce(
            {s: O_hat[s] for s in cg}, cg, tracer=tracer,
            tag=f"pmm3d.AR_{contract_axis}",
        )
        O.update(out)
        done.update(cg.ranks)

    return O, PMMCache(I_parts={r: I_parts[r] for r in block}, W_full=W_full)


@_traced(cat="compute")
def pmm3d_backward(
    grid: Grid4D,
    dO_parts: dict[int, np.ndarray],
    cache: PMMCache,
    transposed: bool = False,
    tracer: CommTracer | None = None,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Lines 9–16 of Algorithm 1: returns (dL/dI parts, dL/dW_hat shards).

    The incoming ``dO_parts`` must be replicated along the contraction
    axis, matching the layout the forward pass produced.
    """
    tracer = tracer if tracer is not None else grid.tracer
    col_axis, contract_axis = _axes(transposed)
    block = grid.tensor_block_ranks(0)

    # Line 11: dI_hat = dO @ W^T  (local).
    dI_hat = {r: dO_parts[r] @ cache.W_full[r].T for r in block}

    # Line 12: dI = all-reduce over the *column* axis (X for normal
    # layers), because output columns were split along it.
    dI: dict[int, np.ndarray] = {}
    done: set[int] = set()
    for r in block:
        if r in done:
            continue
        g = grid.group_along(col_axis, r)
        out = all_reduce(
            {s: dI_hat[s] for s in g}, g, tracer=tracer,
            tag=f"pmm3d.AR_{col_axis}",
        )
        dI.update(out)
        done.update(g.ranks)

    # Line 13: dW_hat = I^T @ dO  (local).
    dW_full = {r: cache.I_parts[r].T @ dO_parts[r] for r in block}
    tel = _telemetry()
    if tel is not None:
        # Two matmuls per rank: dO @ W^T and I^T @ dO.
        tel.metrics.counter("compute.flops.pmm3d").add(
            sum(
                2 * dO_parts[r].shape[0] * dO_parts[r].shape[1]
                * cache.W_full[r].shape[0]
                + 2 * cache.I_parts[r].shape[1] * cache.I_parts[r].shape[0]
                * dO_parts[r].shape[1]
                for r in block
            )
        )

    # Line 14: dW = reduce-scatter_z (weights are Z-sharded).
    dW: dict[int, np.ndarray] = {}
    done.clear()
    for r in block:
        if r in done:
            continue
        zg = grid.group_along("z", r)
        out = reduce_scatter(
            {s: dW_full[s] for s in zg}, zg, tracer=tracer, tag="pmm3d.RS_z"
        )
        dW.update(out)
        done.update(zg.ranks)

    return dI, dW
