"""Sequence-parallel ring attention over the grid's sequence axis.

Long-context training shards the *sequence* dimension: each of the
``G_seq`` ranks of a sequence group holds a contiguous shard of every
sample and computes the attention of its own queries against the full
sequence by **rotating KV blocks around a ring** (Ring Attention /
Ring Self-Attention style).  Softmax is accumulated **online** with a
running maximum and denominator — the flash-attention recurrence —

    m'   = max(m, rowmax(S_j))
    l'   = l * exp(m - m') + sum_k exp(S_jk - m')
    acc' = acc * exp(m - m') + exp(S_j - m') @ V_j

so no rank ever materializes the full (S, S) score matrix, and the
composed result equals the serial :func:`repro.nn.causal_attention` to
floating-point roundoff (bitwise for payloads whose arithmetic is
exact).  The running max is carried as a *constant* (non-differentiable)
shift: softmax is shift-invariant, so the gradient through the
constant-shifted graph is exactly the true softmax gradient — the same
idiom as :func:`repro.core.collective_ops.all_reduce_max_const`.

KV blocks travel through the traced :func:`repro.runtime.send_recv`
p2p primitive (one fused K+V payload per hop, tag ``"seq.ring_kv"``),
so the schedule validator and the fault injector see the ring schedule
with no extra integration.  Every step ends with a rotation — including
the last, which returns each block to its owner — so the loop body is
degree-independent: a ``G_seq = 1`` "ring" issues one traced
self-transfer per layer instead of special-casing the degenerate
topology.
"""

from __future__ import annotations

import numpy as np

from ..runtime import CommTracer, ProcessGroup, send_recv
from ..tensor import Tensor
from ..tensor import functional as F
from .transformer import causal_mask

__all__ = ["RING_KV_TAG", "ring_causal_attention"]

#: Tag of the fused K+V ring-rotation p2p messages.
RING_KV_TAG = "seq.ring_kv"


def _identity_node(data: np.ndarray, parent: Tensor) -> Tensor:
    """Graph node carrying ``data`` whose gradient flows to ``parent``.

    This is the autograd face of a received p2p message: forward value
    comes from the wire, backward is the reverse hop (which emerges from
    plain gradient accumulation in the functional model).
    """
    return Tensor._make(data, (parent,), lambda g: (g,), "ring_p2p")


def ring_causal_attention(
    q_shards: list[Tensor],
    k_shards: list[Tensor],
    v_shards: list[Tensor],
    num_heads: int,
    group: ProcessGroup,
    tracer: CommTracer | None = None,
) -> list[Tensor]:
    """Causal attention over a sequence sharded across a ring.

    ``q_shards[i]``/``k_shards[i]``/``v_shards[i]`` are the (B, S/gs, H)
    projections held by the rank at ring position ``i`` (= sequence
    shard ``i``, in group order).  Returns the per-shard attention
    outputs, each (B, S/gs, H), matching :func:`causal_attention` of
    the full sequence's ``[Q | K | V]`` projection split back into
    shards.

    The schedule is uniform compute-then-rotate: at step ``t`` position
    ``i`` holds KV block ``(i - t) mod gs``, folds it into its online
    softmax state if the block is not entirely in its future, then
    forwards it to position ``i + 1``.  After ``gs`` steps every block
    is back at its owner.
    """
    gs = group.size
    if not (len(q_shards) == len(k_shards) == len(v_shards) == gs):
        raise ValueError(
            f"need one q/k/v shard per ring position; got "
            f"{len(q_shards)}/{len(k_shards)}/{len(v_shards)} for gs={gs}"
        )
    b, sl, h = q_shards[0].shape
    for t in (*q_shards, *k_shards, *v_shards):
        if t.shape != (b, sl, h):
            raise ValueError(
                f"all shards must share shape {(b, sl, h)}; got {t.shape}"
            )
    hd = h // num_heads
    scale = 1.0 / np.sqrt(hd)

    def split(t: Tensor) -> Tensor:
        return t.reshape(b, sl, num_heads, hd).transpose((0, 2, 1, 3))

    qh = [split(t) for t in q_shards]  # (B, nh, Sl, hd) each
    kv = [(split(k), split(v)) for k, v in zip(k_shards, v_shards)]

    # Per-position online-softmax state.
    acc: list[Tensor | None] = [None] * gs  # running numerator
    den: list[Tensor | None] = [None] * gs  # running denominator
    mx: list[np.ndarray | None] = [None] * gs  # running max (constant)

    for t in range(gs):
        for i in range(gs):
            j = (i - t) % gs  # owner of the KV block at position i
            if j > i:
                continue  # block entirely in shard i's future: fully masked
            kh, vh = kv[i]
            scores = (qh[i] @ kh.t()) * scale
            if j == i:
                # Diagonal block: the only one with intra-block masking.
                scores = F.where_mask(scores, causal_mask(sl), -np.inf)
            bm = scores.data.max(axis=-1, keepdims=True)
            if mx[i] is None:
                new_m = bm
                p = (scores - new_m).exp()
                den[i] = p.sum(axis=-1, keepdims=True)
                acc[i] = p @ vh
            else:
                new_m = np.maximum(mx[i], bm)
                alpha = np.exp(mx[i] - new_m)
                p = (scores - new_m).exp()
                den[i] = den[i] * alpha + p.sum(axis=-1, keepdims=True)
                acc[i] = acc[i] * alpha + p @ vh
            mx[i] = new_m
        # Rotate every block one position forward (uniform, even on the
        # last step — blocks end the layer at their owners, and a gs=1
        # ring exercises the traced self-transfer path).
        rotated: list[tuple[Tensor, Tensor]] = []
        for i in range(gs):
            kh_prev, vh_prev = kv[(i - 1) % gs]
            payload = np.stack([kh_prev.data, vh_prev.data])
            received = send_recv(
                payload,
                src=group.ranks[(i - 1) % gs],
                dst=group.ranks[i],
                tracer=tracer,
                tag=RING_KV_TAG,
            )
            rotated.append(
                (
                    _identity_node(received[0], kh_prev),
                    _identity_node(received[1], vh_prev),
                )
            )
        kv = rotated

    out = []
    for i in range(gs):
        o = acc[i] / den[i]  # (B, nh, Sl, hd)
        out.append(o.transpose((0, 2, 1, 3)).reshape(b, sl, h))
    return out
