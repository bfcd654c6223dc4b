"""Basic layers: Linear, Embedding, LayerNorm.

Initialization follows GPT-2/GPT-3 conventions: normal(0, 0.02) weights,
zero biases, with residual-branch output projections scaled down by
``1/sqrt(2 * num_layers)``.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor import functional as F
from ..tensor.tensor import _matmul_grads, _unbroadcast
from .module import Module, Parameter

__all__ = ["Linear", "Embedding", "LayerNorm", "init_normal"]

INIT_STD = 0.02


def init_normal(
    rng: np.random.Generator, shape: tuple[int, ...], std: float = INIT_STD
) -> np.ndarray:
    """GPT-style normal(0, std) initialization."""
    return rng.normal(0.0, std, size=shape)


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with ``W`` of shape (in, out).

    The (in, out) weight orientation matches Algorithm 1 of the paper,
    where the forward pass computes ``I x W`` directly.  With a bias the
    layer is one autograd node over ``(x, W, b)``, so the pre-bias
    product is never a graph tensor; its bits are those of
    ``(x @ W) + b``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        std: float = INIT_STD,
    ) -> None:
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init_normal(rng, (in_features, out_features), std), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        w, b = self.weight, self.bias
        if b is None:
            return x @ w
        data = x.data @ w.data
        data += b.data

        def backward(g):
            dx, dw = _matmul_grads(g, x.data, w.data)
            return dx, dw, _unbroadcast(g, b.shape)

        return Tensor._make(data, (x, w, b), backward, "linear")


class Embedding(Module):
    """Lookup table mapping integer ids to vectors."""

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(
            init_normal(rng, (num_embeddings, dim)), name="weight"
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        F.check_token_ids(ids, self.num_embeddings)
        return F.embedding(self.weight, ids)


class LayerNorm(Module):
    """LayerNorm over the last dimension with learned scale and shift."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim), name="weight")
        self.bias = Parameter(np.zeros(dim), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, self.eps)
