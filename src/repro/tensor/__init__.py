"""Autograd engine: Tensor, fused NN ops, bf16 emulation, checkpointing."""

from .checkpoint import checkpoint
from .dtype import to_bf16
from .functional import (
    cross_entropy,
    dropout,
    embedding,
    gelu,
    layer_norm,
    relu,
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
    "relu",
    "softmax",
    "layer_norm",
    "embedding",
    "cross_entropy",
    "dropout",
    "where_mask",
]
