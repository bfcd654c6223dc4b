"""Causal attention as it was built from scalar-op autograd nodes.

:func:`repro.nn.causal_attention` is one node over the fused
``[Q | K | V]`` projection; this is its composite form before the
fusion, on separate q / k / v tensors: ``reshape`` / ``transpose``,
``matmul``, ``mul``, ``where_mask``, ``softmax`` and back.  The fused
node's output and gradient must be ``assert_array_equal`` to it
(``tests/test_tensor_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.transformer import causal_mask
from repro.tensor import Tensor
from repro.tensor import functional as F


def causal_attention(
    q: Tensor, k: Tensor, v: Tensor, num_heads: int
) -> Tensor:
    """Multi-head causal self-attention core on (B, S, H) projections.

    Shared by the serial and parallel models (the parallel model calls
    it with its local slice of heads), guaranteeing identical math.
    """
    b, s, h = q.shape
    hd = h // num_heads

    def split(t: Tensor) -> Tensor:
        return t.reshape(b, s, num_heads, hd).transpose((0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)  # (B, nh, S, hd)
    scores = (qh @ kh.t()) * (1.0 / np.sqrt(hd))
    # -inf, not a finite "very negative" constant: a finite fill can end
    # up *above* legitimate scores (large-magnitude float32 activations
    # reach below -1e30), silently handing the softmax mass to future
    # positions.  With max-subtracted softmax, exp(-inf - m) == 0 exactly
    # for any finite row max, so the fill is dtype-independent.
    scores = F.where_mask(scores, causal_mask(s), -np.inf)
    att = F.softmax(scores, axis=-1)
    out = att @ vh  # (B, nh, S, hd)
    return out.transpose((0, 2, 1, 3)).reshape(b, s, h)


def causal_attention_on_qkv(qkv: Tensor, num_heads: int) -> Tensor:
    """The composite on a fused ``[Q | K | V]`` projection, sliced the
    way ``CausalSelfAttention.forward`` sliced it (three ``getitem``
    nodes)."""
    h = qkv.shape[-1] // 3
    q, k, v = qkv[..., :h], qkv[..., h : 2 * h], qkv[..., 2 * h :]
    return causal_attention(q, k, v, num_heads)
