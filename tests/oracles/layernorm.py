"""The grid LayerNorm as it was built from scalar-op autograd nodes.

:class:`repro.core.ParallelLayerNorm` runs one fused node per rank; this
is its forward before the fusion, about fifteen ``mul`` / ``sub`` /
``pow`` / ``add`` nodes per rank around the same two moment all-reduces.
The fused forward must be ``float.hex``-equal to it and its gradients
``allclose(rtol=1e-12)`` (``tests/test_parallel_model.py``).
"""

from __future__ import annotations

from repro.core.collective_ops import all_reduce_t
from repro.core.parallel_layers import ParallelLayerNorm, RankDict
from repro.tensor import Tensor


def composite_layer_norm(
    ln: ParallelLayerNorm, x_parts: RankDict, d: int = 0
) -> RankDict:
    """``ln``'s output, one scalar-op node at a time."""
    grid = ln.grid
    tracer = grid.tracer
    block = grid.tensor_block_ranks(d)

    # Distributed moments over the feature axis.
    local_sum = {r: x_parts[r].sum(axis=-1, keepdims=True) for r in block}
    local_sq = {
        r: (x_parts[r] * x_parts[r]).sum(axis=-1, keepdims=True) for r in block
    }
    mu: dict[int, Tensor] = {}
    ex2: dict[int, Tensor] = {}
    for r in block:
        if r in mu:
            continue
        g = grid.group_along(ln.feature_axis, r)
        sums = all_reduce_t(
            [local_sum[s] for s in g.ranks], g, tracer=tracer, tag="ln.AR_sum"
        )
        sqs = all_reduce_t(
            [local_sq[s] for s in g.ranks], g, tracer=tracer, tag="ln.AR_sq"
        )
        for s, sm, sq in zip(g.ranks, sums, sqs):
            mu[s] = sm * (1.0 / ln.dim)
            ex2[s] = sq * (1.0 / ln.dim)

    out: RankDict = {}
    for r in block:
        x, y, _, _ = grid.coords_of(r)
        i = y if ln.feature_axis == "y" else x
        var = ex2[r] - mu[r] * mu[r]
        inv = (var + 1e-5) ** -0.5
        xhat = (x_parts[r] - mu[r]) * inv
        out[r] = xhat * ln.weight_shards[i] + ln.bias_shards[i]
    return out
