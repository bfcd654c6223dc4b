"""4D-parallel layers built on differentiable collectives.

Data layouts (for one tensor block; ``B_loc`` = the batch shard owned by
a Z coordinate):

* **layout A** — activations of shape ``(B_loc, S, H/G_y)``: rows (batch)
  split over Z, features split over Y, replicated along X.  This is the
  residual-stream layout.
* **layout B** — ``(B_loc, S, H/G_x)``: features split over X, replicated
  along Y.  This is what a normal-orientation :class:`ParallelLinear`
  produces.

A *normal* linear maps A -> B (contract over Y, all-reduce_y); a
*transposed* linear maps B -> A (contract over X, all-reduce_x) — the
paper's alternating 'transpose' scheme, implemented by swapping the
roles of the X and Y process groups.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..nn.layers import INIT_STD
from ..nn.module import Module, Parameter
from ..runtime import CommTracer, ProcessGroup
from ..runtime import collectives as rc
from ..telemetry.spans import get_tracer as _telemetry
from ..tensor import Tensor
from ..tensor import functional as F
from ..tensor.tensor import _matmul_grads, _unbroadcast
from .collective_ops import all_gather_t, all_reduce_t
from .grid import Grid4D

__all__ = ["ParallelLinear", "ParallelLayerNorm", "ParallelEmbedding", "RankDict"]

#: Per-rank tensors keyed by global rank.
RankDict = dict[int, Tensor]


def _check_divisible(value: int, by: int, what: str) -> None:
    if value % by:
        raise ValueError(f"{what} ({value}) must be divisible by {by}")


def _per_distinct(fn, block, *inputs: RankDict) -> RankDict:
    """``{r: fn(inputs[0][r], inputs[1][r], ...) for r in block}``, with
    ``fn`` applied once per distinct tuple of input *objects*.

    A collective hands every rank of its group one shared output, so the
    ranks of that group hold the same tensors until something rank-local
    (a weight shard) enters; work on those tensors runs once and every
    rank holding them gets the one result.  Here identity, not value,
    decides: a corrupted collective result is one object for its whole
    group, and distinct objects with equal values still run per rank.
    Value decides in one place only, between sibling collectives over the
    same inputs (:func:`~repro.core.collective_ops._sibling_node`): they
    return one object when their rings agree bit for bit.
    """
    done: dict[tuple[int, ...], Tensor] = {}
    out: RankDict = {}
    for r in block:
        args = tuple(x[r] for x in inputs)
        key = tuple(map(id, args))
        res = done.get(key)
        if res is None:
            res = done[key] = fn(*args)
        out[r] = res
    return out


def _count_local_flops(x_parts: RankDict, block, n_local: int) -> None:
    """Add each rank's local product ``x_parts[r] @ W`` (``n_local``
    output columns), ``2 * rows * k_local * n_local`` flops, to the
    ``compute.flops.pmm3d`` counter while telemetry is active."""
    tel = _telemetry()
    if tel is not None:
        tel.metrics.counter("compute.flops.pmm3d").add(
            sum(2 * x_parts[r].size * n_local for r in block)
        )


def _contract(
    xs: list[Tensor],
    ws: list[Tensor],
    bias: Tensor | None,
    group: ProcessGroup,
    tracer: CommTracer | None,
    tag: str,
) -> Tensor:
    """Algorithm 1's lines 3–4 for one contraction group, plus the
    group's bias shard, as one autograd node.

    Group position ``i`` multiplies its activations ``xs[i]`` by its
    gathered weight ``ws[i]``; the products are plain arrays that the
    traced ring all-reduce sums, and they die with this call.  The node
    keeps its parents only.  The all-reduce's backward is the identity,
    so every position's ``(dx, dW)`` comes from the one output gradient.
    """
    partials = {r: x.data @ w.data for r, x, w in zip(group.ranks, xs, ws)}
    data = rc.all_reduce(partials, group, tracer=tracer, tag=tag)[group.ranks[0]]
    del partials
    parents = (*xs, *ws)
    if bias is not None:
        data = data + bias.data  # the ring's result is shared and read-only
        parents += (bias,)

    def backward(g):
        pairs = [_matmul_grads(g, x.data, w.data) for x, w in zip(xs, ws)]
        db = () if bias is None else (_unbroadcast(g, bias.shape),)
        return (*(dx for dx, _ in pairs), *(dw for _, dw in pairs), *db)

    return Tensor._make(data, parents, backward, "linear_group")


class ParallelLinear(Module):
    """An FC layer parallelized with Algorithm 1 (3D PMM, Z-sharded W).

    Weight shards are :class:`Parameter`\\ s keyed by tensor coordinates
    ``(x, y, z)`` — one *distinct* piece of ``W`` per rank, shared across
    data-parallel replicas in the functional model (gradient accumulation
    plays the role of the data-parallel all-reduce).

    The forward pass issues, per Algorithm 1: all-gather over Z (line 2),
    then, for each contraction group, the local matmuls (line 3), the
    all-reduce over the contraction axis (line 4) and the bias add as one
    autograd node whose per-rank products are never graph tensors.  The
    backward communication — all-reduce over the column axis (line 12)
    and reduce-scatter over Z (line 14) — emerges from the differentiable
    collectives.
    """

    def __init__(
        self,
        grid: Grid4D,
        in_features: int,
        out_features: int,
        transposed: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng()
        c = grid.config
        self.grid = grid
        self.in_features = in_features
        self.out_features = out_features
        self.transposed = transposed
        # Contraction axis: Y for normal layers, X for transposed ones.
        self.contract_axis = "x" if transposed else "y"
        self.col_axis = "y" if transposed else "x"
        self.g_contract = c.gx if transposed else c.gy
        self.g_col = c.gy if transposed else c.gx
        _check_divisible(in_features, self.g_contract * c.gz, "in_features")
        _check_divisible(out_features, self.g_col, "out_features")
        self.in_block = in_features // self.g_contract
        self.out_block = out_features // self.g_col
        self.shard_rows = self.in_block // c.gz

        # One weight shard per (x, y, z); biases sharded along the column
        # axis only (replicated elsewhere -> one Parameter per column
        # coordinate).
        self.weight_shards: dict[tuple[int, int, int], Parameter] = {}
        for z in range(c.gz):
            for y in range(c.gy):
                for x in range(c.gx):
                    self.weight_shards[(x, y, z)] = Parameter(rng.normal(
                        0.0, INIT_STD, (self.shard_rows, self.out_block)
                    ))
        self.bias_shards = {
            i: Parameter(np.zeros(self.out_block)) for i in range(self.g_col)
        }

    # -- whole-weight (de)serialization --------------------------------------

    def _block_coords(self, x: int, y: int) -> tuple[int, int]:
        """(row-block j, col-block i) of W held at tensor coords (x, y)."""
        return (x, y) if self.transposed else (y, x)

    def load_full_weight(self, W: np.ndarray, bias: np.ndarray | None = None) -> None:
        """Shard a full (in, out) weight (and bias) onto the grid."""
        if W.shape != (self.in_features, self.out_features):
            raise ValueError(
                f"expected weight {(self.in_features, self.out_features)}, "
                f"got {W.shape}"
            )
        c = self.grid.config
        rb = self.in_block
        cb = self.out_block
        for (x, y, z), p in self.weight_shards.items():
            j, i = self._block_coords(x, y)
            block = W[j * rb : (j + 1) * rb, i * cb : (i + 1) * cb]
            p.data = block[z * self.shard_rows : (z + 1) * self.shard_rows].copy()
        if bias is not None:
            for i, p in self.bias_shards.items():
                p.data = bias[i * cb : (i + 1) * cb].copy()

    def full_weight(self) -> np.ndarray:
        """Reassemble the full (in, out) weight from all shards."""
        W = np.zeros((self.in_features, self.out_features))
        rb, cb = self.in_block, self.out_block
        for (x, y, z), p in self.weight_shards.items():
            j, i = self._block_coords(x, y)
            r0 = j * rb + z * self.shard_rows
            W[r0 : r0 + self.shard_rows, i * cb : (i + 1) * cb] = p.data
        return W

    # -- forward ---------------------------------------------------------------

    def forward(
        self, x_parts: RankDict, d: int = 0, gathers: dict | None = None
    ) -> RankDict:
        """Apply the layer to the per-rank activations of replica ``d``.

        ``gathers`` is the sibling memo of the Z all-gathers
        (:func:`~repro.core.collective_ops.all_gather_t`), kept by the
        caller for one forward over every replica: the Z groups of every
        sequence shard and data replica gather the same shards, so each
        gathered weight is one node while their rings agree."""
        grid = self.grid
        tracer = grid.tracer
        block = grid.tensor_block_ranks(d)
        if gathers is None:
            gathers = {}

        # Line 2: all-gather the Z-sharded weights.
        W_full: dict[int, Tensor] = {}
        for r in block:
            if r in W_full:
                continue
            zg = grid.group_along("z", r)
            shards = []
            for s in zg.ranks:
                sx, sy, sz, _ = grid.coords_of(s)
                shards.append(self.weight_shards[(sx, sy, sz)])
            outs = all_gather_t(
                shards, zg, tracer=tracer, tag="linear.AG_z", siblings=gathers
            )
            W_full.update(dict(zip(zg.ranks, outs)))

        # Lines 3-4 and the bias, one node per contraction group: its
        # ranks share the sum and the column coordinate that picks the
        # bias shard.
        _count_local_flops(x_parts, block, self.out_block)
        col = 1 if self.transposed else 0
        out: RankDict = {}
        for r in block:
            if r in out:
                continue
            g = grid.group_along(self.contract_axis, r)
            y = _contract(
                [x_parts[s] for s in g.ranks], [W_full[s] for s in g.ranks],
                self.bias_shards[grid.coords_of(r)[col]], g, tracer,
                f"linear.AR_{self.contract_axis}",
            )
            out.update(dict.fromkeys(g.ranks, y))
        return out


class ParallelLayerNorm(Module):
    """LayerNorm over a feature dimension sharded along one grid axis.

    Mean and variance need the *full* feature dimension, so the layer
    all-reduces the local first and second moments over the feature
    group before normalizing locally, one autograd node per distinct
    input (the backward issues no collective: the moments' gradients
    flow back through the all-reduce nodes); the local moments run once
    per distinct input tensor.  The feature groups across the other
    tensor axis (X for the residual stream) all-reduce the same moment
    tensors: each issues its rings, and while they agree bit for bit
    they share one node per moment, so the normalize runs once per
    ``(y, z, d[, s])`` rather than once per rank.  Scale/shift
    parameters are sharded the same way as the features (one Parameter
    per coordinate along ``feature_axis``, shared by the ranks that hold
    that shard).
    """

    def __init__(
        self,
        grid: Grid4D,
        dim: int,
        feature_axis: str = "y",
    ) -> None:
        if feature_axis not in ("x", "y"):
            raise ValueError("feature_axis must be 'x' or 'y'")
        c = grid.config
        self.grid = grid
        self.dim = dim
        self.feature_axis = feature_axis
        n = c.gy if feature_axis == "y" else c.gx
        _check_divisible(dim, n, "layernorm dim")
        self.block = dim // n
        self.weight_shards = {i: Parameter(np.ones(self.block)) for i in range(n)}
        self.bias_shards = {i: Parameter(np.zeros(self.block)) for i in range(n)}

    def load_full(self, weight: np.ndarray, bias: np.ndarray) -> None:
        """Shard full-length scale/shift vectors onto the grid."""
        for i in self.weight_shards:
            sl = slice(i * self.block, (i + 1) * self.block)
            self.weight_shards[i].data = weight[sl].copy()
            self.bias_shards[i].data = bias[sl].copy()

    def forward(self, x_parts: RankDict, d: int = 0) -> RankDict:
        grid = self.grid
        tracer = grid.tracer
        block = grid.tensor_block_ranks(d)

        # Distributed moments over the feature axis, once per distinct
        # input tensor (the residual stream is shared along X).
        local_sum = _per_distinct(_sum_last, block, x_parts)
        local_sq = _per_distinct(_sum_of_squares, block, x_parts)
        sums: dict[int, Tensor] = {}
        sqs: dict[int, Tensor] = {}
        siblings: dict = {}
        for r in block:
            if r in sums:
                continue
            g = grid.group_along(self.feature_axis, r)
            summed = all_reduce_t(
                [local_sum[s] for s in g.ranks], g, tracer=tracer,
                tag="ln.AR_sum", siblings=siblings,
            )
            squared = all_reduce_t(
                [local_sq[s] for s in g.ranks], g, tracer=tracer,
                tag="ln.AR_sq", siblings=siblings,
            )
            sums.update(zip(g.ranks, summed))
            sqs.update(zip(g.ranks, squared))

        axis = 1 if self.feature_axis == "y" else 0
        weight: RankDict = {}
        bias: RankDict = {}
        for r in block:
            i = grid.coords_of(r)[axis]
            weight[r] = self.weight_shards[i]
            bias[r] = self.bias_shards[i]
        normalize = partial(_normalize, dim=self.dim, eps=1e-5)
        return _per_distinct(normalize, block, x_parts, sums, sqs, weight, bias)


def _sum_last(x: Tensor) -> Tensor:
    return x.sum(axis=-1, keepdims=True)


def _sum_of_squares(x: Tensor) -> Tensor:
    """``(x * x).sum(axis=-1, keepdims=True)`` as one node."""
    xd = x.data

    def backward(g):
        gx = xd * g
        gx += gx  # 2·x·g; doubling is exact
        return (gx,)

    return Tensor._make(
        (xd * xd).sum(axis=-1, keepdims=True), (x,), backward, "sum_of_squares"
    )


def _normalize(
    x: Tensor, sum_x: Tensor, sum_sq: Tensor, weight: Tensor, bias: Tensor,
    dim: int, eps: float,
) -> Tensor:
    """One rank's LayerNorm output from its feature shard ``x`` and the
    moments ``sum_x`` / ``sum_sq`` all-reduced over the whole feature
    dimension ``dim``, as one node with a closed-form backward.

    The forward is the scalar-op composite's arithmetic in its order, so
    it is bit-identical to it; the backward differs from the composite's
    chain of nodes by rounding only.  The node keeps ``centered`` and
    ``inv``; the backward recomputes ``xhat`` from them, the same
    operation on the same operands.
    """
    xd = x.data
    scale = np.asarray(1.0 / dim, dtype=xd.dtype)
    mu = sum_x.data * scale
    var_eps = sum_sq.data * scale - mu * mu
    var_eps += np.asarray(eps, dtype=xd.dtype)
    inv = var_eps**-0.5
    centered = xd - mu
    data = centered * inv  # xhat
    data *= weight.data
    data += bias.data

    def backward(g):
        xhat = centered * inv
        n = xhat.shape[-1]
        gw = (g * xhat).reshape(-1, n).sum(axis=0)
        gb = g.reshape(-1, n).sum(axis=0)
        gx = g * weight.data  # d/d xhat
        # d/d var, through inv = var_eps ** -0.5; var = E[x²] - mu².
        g_var = (gx * centered).sum(axis=-1, keepdims=True)
        g_var *= -0.5 * var_eps**-1.5
        gx *= inv  # the direct path, moments held fixed
        g_mu = gx.sum(axis=-1, keepdims=True)
        g_mu += 2.0 * mu * g_var
        np.negative(g_mu, out=g_mu)
        return (gx, g_mu * scale, g_var * scale, gw, gb)

    return Tensor._make(
        data, (x, sum_x, sum_sq, weight, bias), backward, "layer_norm_shard"
    )


class ParallelEmbedding(Module):
    """Token/positional embedding with feature-sharded output.

    The table itself is kept whole (embedding tables are data-parallel in
    AxoNN's easy API); each rank receives the feature slice matching its
    coordinate along ``feature_axis`` for its Z-shard of the batch.
    """

    def __init__(
        self,
        grid: Grid4D,
        num_embeddings: int,
        dim: int,
        feature_axis: str = "y",
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng()
        c = grid.config
        if feature_axis not in ("x", "y"):
            raise ValueError("feature_axis must be 'x' or 'y'")
        self.grid = grid
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.feature_axis = feature_axis
        n = c.gy if feature_axis == "y" else c.gx
        _check_divisible(dim, n, "embedding dim")
        self.block = dim // n
        self.weight = Parameter(
            rng.normal(0.0, INIT_STD, (num_embeddings, dim))
        )

    def forward(self, ids_by_z: dict, d: int = 0) -> RankDict:
        """``ids_by_z``: integer ids per shard, shape (B_loc, S_loc).

        Keys are either a Z coordinate (the classic 4D layout) or a
        ``(z, s)`` tuple when the batch is additionally sequence-sharded
        over the ring axis.
        """
        grid = self.grid
        c = grid.config
        n = c.gy if self.feature_axis == "y" else c.gx
        out: RankDict = {}
        # One gather per batch shard, then one feature slice per shard
        # coordinate, shared by the ranks replicating it.
        for key, ids in ids_by_z.items():
            z, s = key if isinstance(key, tuple) else (key, 0)
            ids = np.asarray(ids)
            F.check_token_ids(ids, self.num_embeddings)
            full = F.embedding(self.weight, ids)
            parts = [full[..., i * self.block : (i + 1) * self.block] for i in range(n)]
            for y in range(c.gy):
                for x in range(c.gx):
                    i = y if self.feature_axis == "y" else x
                    out[grid.rank_of(x, y, z, d, s)] = parts[i]
        return out
