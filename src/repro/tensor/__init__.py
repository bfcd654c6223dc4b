"""Autograd engine: Tensor, fused NN ops, bf16 emulation, checkpointing."""

from .checkpoint import checkpoint
from .dtype import to_bf16
from .functional import (
    cross_entropy,
    embedding,
    gelu,
    layer_norm,
    softmax,
    where_mask,
)
from .tensor import Tensor, as_tensor, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "to_bf16",
    "checkpoint",
    "gelu",
    "softmax",
    "layer_norm",
    "embedding",
    "cross_entropy",
    "where_mask",
]
