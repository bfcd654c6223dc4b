"""Fused neural-network operations with hand-written backward passes.

These are the layer-level primitives a GPT transformer is made of.  Each
is implemented as a single autograd node with a closed-form, fully
NumPy-vectorized backward — both for speed and so the 4D-parallel code
can reason about exactly which arrays cross rank boundaries.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _scatter_add

__all__ = [
    "gelu",
    "relu",
    "softmax",
    "layer_norm",
    "embedding",
    "cross_entropy",
    "where_mask",
]

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def _square(a: np.ndarray) -> np.ndarray:
    """``a * a`` in a fresh array for in-place use (``a * a`` itself is a
    NumPy scalar, which no ``out=`` accepts, when ``a`` is 0-d)."""
    return np.multiply(a, a, out=np.empty_like(a))


def gelu(x: Tensor) -> Tensor:
    """GELU activation (tanh approximation, as used by GPT-2/3).

    Multiplies only: ``np.power`` takes ~50x as long per element as a
    multiply, and was most of a training step.  Temporaries are reused
    in place; the backward closure keeps ``x`` and ``tanh`` only and
    recomputes ``x*x``.
    """
    xd = x.data
    t = _square(xd)
    t *= _GELU_A * _GELU_C
    t += _GELU_C
    t *= xd
    np.tanh(t, out=t)  # t = tanh(c * (x + a*x^3))
    data = t + 1.0
    data *= xd
    data *= 0.5

    def backward(g):
        d = _square(xd)
        d *= 3.0 * _GELU_A * _GELU_C
        d += _GELU_C  # d(inner)/dx = c * (1 + 3a*x^2)
        sech2 = _square(t)
        np.subtract(1.0, sech2, out=sech2)
        d *= sech2
        d *= xd
        d += t
        d += 1.0
        d *= 0.5  # 0.5*(1 + t) + 0.5*x*sech2*d(inner)/dx
        d *= g
        return (d,)

    return Tensor._make(data, (x,), backward, "gelu")


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    data = np.maximum(x.data, 0.0)

    def backward(g):
        return (g * (x.data > 0),)

    return Tensor._make(data, (x,), backward, "relu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def backward(g):
        gx = g * data
        dot = gx.sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= data
        return (gx,)

    return Tensor._make(data, (x,), backward, "softmax")


def layer_norm(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5
) -> Tensor:
    """LayerNorm over the last dimension with affine parameters."""
    xd = x.data
    n = xd.shape[-1]
    xhat = xd - xd.mean(axis=-1, keepdims=True)
    # The biased variance, as ``xd.var`` computes it, minus its second
    # pass over ``xd`` for the mean.
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    data = xhat * weight.data
    data += bias.data

    def backward(g):
        tmp = g * xhat
        gw = tmp.reshape(-1, n).sum(axis=0)
        gb = g.reshape(-1, n).sum(axis=0)
        gx = g * weight.data
        mean_g = gx.mean(axis=-1, keepdims=True)
        np.multiply(gx, xhat, out=tmp)
        mean_gx = tmp.mean(axis=-1, keepdims=True)
        np.multiply(xhat, mean_gx, out=tmp)
        gx -= mean_g
        gx -= tmp
        gx *= inv
        return (gx, gw, gb)

    return Tensor._make(data, (x, weight, bias), backward, "layer_norm")


def check_token_ids(ids: np.ndarray, n: int) -> None:
    """Raise :class:`IndexError` unless every id in ``ids`` is in ``[0, n)``.

    Unchecked, NumPy reads a negative id from the end of a table and a
    vocabulary-sharded loss finds no owner for an id past the end: both
    give a wrong loss without a word.  ``Embedding``,
    ``ParallelEmbedding`` and both cross-entropies (serial and
    vocab-parallel) call this one check.
    """
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)].flat[0]
        raise IndexError(f"token id {bad} out of range [0, {n})")


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows ``ids`` from the embedding matrix ``weight``."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError(f"token ids must be integers, got {ids.dtype}")
    data = weight.data[ids]

    def backward(g):
        return (_scatter_add(weight.data, ids, g),)

    return Tensor._make(data, (weight,), backward, "embedding")


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    loss_mask: np.ndarray | None = None,
) -> Tensor:
    """Token-averaged cross-entropy.

    ``logits``: (..., V); ``targets``: integer array of shape (...).
    ``loss_mask``: optional {0,1} array of the same shape as ``targets``;
    masked-out (0) positions contribute nothing to the loss or gradient —
    this is the hook the Goldfish loss uses.
    """
    targets = np.asarray(targets)
    v = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, v)
    flat_targets = targets.reshape(-1)
    if flat_targets.shape[0] != flat_logits.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits "
            f"{logits.shape}"
        )
    check_token_ids(flat_targets, v)
    if loss_mask is None:
        mask = np.ones(flat_targets.shape[0])
    else:
        mask = np.asarray(loss_mask, dtype=np.float64).reshape(-1)
    denom = mask.sum()
    if denom == 0:
        raise ValueError("loss_mask masks out every token")

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(flat_targets.shape[0])
    nll = -(logp[rows, flat_targets] * mask).sum() / denom
    sm = np.exp(logp)

    def backward(g):
        grad = sm.copy()
        grad[rows, flat_targets] -= 1.0
        grad *= (mask / denom)[:, None] * g
        return (grad.reshape(logits.shape),)

    return Tensor._make(np.asarray(nll), (logits,), backward, "cross_entropy")


def where_mask(x: Tensor, mask: np.ndarray, fill: float) -> Tensor:
    """Replace positions where ``mask`` is False with ``fill``.

    Used for causal attention masking; gradients flow only through the
    kept positions.
    """
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, x.data, fill)

    def backward(g):
        return (np.where(mask, g, 0.0),)

    return Tensor._make(data, (x,), backward, "where_mask")
