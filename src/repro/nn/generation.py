"""Incremental decoding with a key/value cache.

Autoregressive evaluation (the memorization study's exact-match test)
re-runs the transformer once per generated token.  Recomputing the full
prefix each step costs O(n^2) forward passes; caching each layer's keys
and values makes each step O(1) forward work on the single new token —
the standard KV-cache inference optimization every serving stack uses.

The cached path computes the same logits as the full forward to
rounding (the tests hold them to 1e-12 relative in float64), and the
same greedy tokens, so evaluation results are unchanged — only faster.

The cached block math is written once, in :func:`_forward_cached`, for
ragged batches over ``n >= 1`` weight shards.  :func:`prefill` and
:func:`decode_step` run it with one shard and the dense :class:`KVCache`;
:mod:`repro.serving` runs the same function over paged KV, with one
shard (the serial decoder) or one per tensor-parallel rank.

So is the attention under it: :func:`_attention_with_cache` takes a
batch whose rows have different cached lengths, and is what the lone
path, the serial decoder and every tensor-parallel rank call.  For
decode it pads the batch to one scores array for everything elementwise
and keeps the three length-ordered reductions (``q @ k^T``, the softmax
denominator, ``att @ v``) per row, over exactly the row's live
positions — padding those instead was measured and is not bitwise on
this BLAS (ROADMAP item 1).  A prefill row runs alone, in query tiles
that score only the keys their queries can see and reduce over the
tile's own live length.  Either way a row's bits are its own, so served
== lone stays an ``assert_array_equal``.
The FC products keep the same *batch invariance* by fixing the call
shape: :func:`_fc`, the one place a decode row meets a weight, runs every
decode row, lone or batched, on every decoder, as the same 4-row GEMM —
and so does the LM head, which runs on the last position only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..tensor import Tensor, no_grad
from ..tensor import functional as F
from .transformer import GPT

__all__ = ["KVCache", "prefill", "decode_step", "generate_greedy"]


@dataclass
class KVCache:
    """Per-layer cached keys/values, shape (B, heads, S_past, head_dim).

    Storage is pre-allocated in ``block_tokens``-sized chunks (doubling
    when a chunk is outgrown) and a per-layer logical length tracks how
    much of each buffer is live: appending a token writes into the next
    free slots instead of reallocating, so decoding ``S`` tokens copies
    O(S) bytes total.  The previous ``np.concatenate``-per-step
    implementation copied the whole cache every step — O(S^2) bytes —
    which ``copied_bytes`` exists to pin down in the perf regression
    test.
    """

    block_tokens: int = 64
    #: Total bytes moved by cache maintenance (token writes + buffer
    #: regrowth).  The regression test asserts this stays linear in the
    #: number of decoded tokens.
    copied_bytes: int = 0
    _k: list[np.ndarray] = field(default_factory=list, repr=False)
    _v: list[np.ndarray] = field(default_factory=list, repr=False)
    _lens: list[int] = field(default_factory=list, repr=False)

    @property
    def seq_len(self) -> int:
        return self._lens[0] if self._lens else 0

    @property
    def keys(self) -> list[np.ndarray]:
        """Live (B, heads, S, head_dim) views, one per layer."""
        return [b[:, :, :n] for b, n in zip(self._k, self._lens)]

    @property
    def values(self) -> list[np.ndarray]:
        return [b[:, :, :n] for b, n in zip(self._v, self._lens)]

    def _capacity_for(self, tokens: int) -> int:
        blocks = -(-tokens // self.block_tokens)
        return blocks * self.block_tokens

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        s_new = k.shape[2]
        if layer == len(self._k):
            cap = self._capacity_for(s_new)
            shape = k.shape[:2] + (cap,) + k.shape[3:]
            self._k.append(np.empty(shape, dtype=k.dtype))
            self._v.append(np.empty(shape, dtype=v.dtype))
            self._lens.append(0)
        n = self._lens[layer]
        buf_k, buf_v = self._k[layer], self._v[layer]
        cap = buf_k.shape[2]
        if n + s_new > cap:
            # Geometric growth keeps total regrow traffic <= 2x the
            # final cache size (amortized O(1) per token).
            new_cap = max(2 * cap, self._capacity_for(n + s_new))
            for bufs in (self._k, self._v):
                old = bufs[layer]
                grown = np.empty(
                    old.shape[:2] + (new_cap,) + old.shape[3:], dtype=old.dtype
                )
                grown[:, :, :n] = old[:, :, :n]
                bufs[layer] = grown
                self.copied_bytes += old[:, :, :n].nbytes
            buf_k, buf_v = self._k[layer], self._v[layer]
        buf_k[:, :, n : n + s_new] = k
        buf_v[:, :, n : n + s_new] = v
        self.copied_bytes += k.nbytes + v.nbytes
        self._lens[layer] = n + s_new


def _split_heads(t: np.ndarray, num_heads: int) -> np.ndarray:
    b, s, h = t.shape
    return t.reshape(b, s, num_heads, h // num_heads).transpose(0, 2, 1, 3)


#: Query rows per prefill attention tile.  Measured on ``serve_prefill``
#: (DESIGN.md, "Kernel rewrite contract"): 24 to 64 tie within 1%, 16
#: loses 2%, one untiled block per row 6%.
_TILE_QUERIES = 32


def _attention_with_cache(q, keys, values, pasts) -> np.ndarray:
    """Causal attention of ``q`` (B, nh, S_new, hd) over ragged caches:
    row ``j`` has ``pasts[j]`` cached positions, and ``keys`` /
    ``values`` yield its (nh, pasts[j] + S_new, hd) operands in row
    order (a dense (B, nh, S, hd) array iterates as exactly that; a
    lazy iterable is read one row at a time, keys before values).

    The three reductions whose floating-point order depends on a length
    (``q @ k^T``, the softmax denominator, ``att @ v``) never run over
    another row's padding, so a row's bits do not depend on what it is
    batched with.  The split is :func:`_fc`'s:

    * Decode (``S_new == 1``): the batch shares one (B, nh, 1, S_max)
      scores array whose hidden entries — a shorter row's padding — are
      ``-inf``, and everything elementwise (scale, mask, max-subtract,
      ``exp``, normalise) runs over it once; the reductions run per row
      over exactly its live positions.
    * Prefill and replay (``S_new >= 2``): each row runs alone, in tiles
      of ``_TILE_QUERIES`` queries.  Tile ``[i0, i1)`` scores only keys
      ``[0, past + i1)`` — nothing past its own last query — and reduces
      over that live length, which depends on the row's own ``past`` and
      ``S_new`` only.  The ``1/sqrt(hd)`` scale goes on ``q``, the max
      and ``exp`` run over visible scores only, and the softmax
      denominator divides the (tile, hd) output instead of the scores.
    """
    b, nh, s_new, hd = q.shape
    if s_new != 1:
        # A Python float divisor is weak under NEP 50: float32 stays.
        q = q / float(np.sqrt(hd))
        out = np.empty((b, s_new, nh, hd), dtype=q.dtype)
        for j, (k, v) in enumerate(zip(keys, values)):
            for i0 in range(0, s_new, _TILE_QUERIES):
                i1 = min(i0 + _TILE_QUERIES, s_new)
                n, t = pasts[j] + i1, i1 - i0
                visible = np.arange(n) <= np.arange(n - t, n)[:, None]
                att = q[j, :, i0:i1] @ k[:, :n].swapaxes(-1, -2)
                att -= att.max(
                    axis=-1, keepdims=True, where=visible, initial=-np.inf
                )
                np.exp(att, out=att, where=visible)
                # Only the tile's own future is hidden: zero it.
                np.copyto(att[..., n - t :], 0.0, where=~visible[:, n - t :])
                tile = att @ v[:, :n]
                tile /= att.sum(axis=-1, keepdims=True)
                out[j, i0:i1] = tile.swapaxes(0, 1)
        return out.reshape(b, s_new, nh * hd)
    totals = [past + s_new for past in pasts]
    scores = np.empty((b, nh, s_new, max(totals)), dtype=q.dtype)
    for j, k in enumerate(keys):
        np.matmul(q[j], k.swapaxes(-1, -2), out=scores[j, :, :, : totals[j]])
    # Row j's one query (global position pasts[j]) sees keys
    # 0..pasts[j]: the mask hides the shorter rows' padding.
    reach = np.asarray(pasts)[:, None] + np.arange(s_new)
    visible = np.arange(scores.shape[-1]) <= reach[:, None, :, None]
    # -inf, not a finite fill: see ``causal_attention`` (a legitimate
    # float32 score can undershoot any finite sentinel).
    np.copyto(scores, -np.inf, where=~visible)
    # A Python float divisor is weak under NEP 50 (a NumPy scalar would
    # promote float32 scores to float64); dividing, not multiplying by
    # the reciprocal, keeps the float64 bits.
    scores /= float(np.sqrt(hd))
    scores -= scores.max(axis=-1, keepdims=True)
    # exp(-inf) is exactly 0 but takes a slow path: skip hidden entries.
    att = np.zeros_like(scores)
    np.exp(scores, out=att, where=visible)
    denom = np.empty((b, nh, s_new, 1), dtype=q.dtype)
    for j, n in enumerate(totals):
        att[j, :, :, :n].sum(axis=-1, keepdims=True, out=denom[j])
    att /= denom
    out = np.empty((b, nh, s_new, hd), dtype=q.dtype)
    for j, v in enumerate(values):
        np.matmul(att[j, :, :, : totals[j]], v, out=out[j])
    return out.transpose(0, 2, 1, 3).reshape(b, s_new, nh * hd)


class _BlockShard(NamedTuple):
    """One shard's slices of one transformer block's FC weights."""

    qkv_w: np.ndarray  # (H, 3H/n): this shard's heads' [Q | K | V] columns
    qkv_b: np.ndarray
    proj_w: np.ndarray  # (H/n, H): input rows follow the head layout
    fc1_w: np.ndarray  # (H, F/n)
    fc1_b: np.ndarray
    fc2_w: np.ndarray  # (F/n, H)


def _shard_weights(
    model: GPT, n: int = 1, order_qkv=lambda w: w
) -> tuple[list[list[_BlockShard]], list[np.ndarray]]:
    """The model's FC weights cut into ``n`` column/row shards per block,
    and the LM head into ``n`` vocabulary slices.

    ``order_qkv`` reorders the fused QKV columns so that a contiguous
    slice holds one shard's own q/k/v; one shard needs no reordering.
    Every entry is a basic-slice view, so at ``n = 1`` the GEMMs read
    the model's *own* arrays — the serial arithmetic bit for bit — and
    the views go stale if a parameter's ``.data`` is rebound: the lone
    path therefore calls this per forward.
    """

    def cut(w: np.ndarray, axis: int) -> list[np.ndarray]:
        width = w.shape[axis] // n
        spans = [slice(i * width, (i + 1) * width) for i in range(n)]
        return [w[s] if axis == 0 else w[..., s] for s in spans]

    blocks = [
        [
            _BlockShard(*parts)
            for parts in zip(
                cut(order_qkv(blk.attn.qkv.weight.data), -1),
                cut(order_qkv(blk.attn.qkv.bias.data), -1),
                cut(blk.attn.proj.weight.data, 0),
                cut(blk.mlp.fc1.weight.data, -1),
                cut(blk.mlp.fc1.bias.data, -1),
                cut(blk.mlp.fc2.weight.data, 0),
            )
        ]
        for blk in model.blocks
    ]
    return blocks, cut(model.wte.weight.data, 0)


def _lone_shard(parts: list[np.ndarray], tag: str) -> np.ndarray:
    """How one shard "meets": its partial product is already the sum,
    its vocabulary slice already the whole."""
    (whole,) = parts
    return whole


#: Rows per decode GEMM.  Measured (DESIGN.md, "Kernel rewrite contract"):
#: 4 and 8 tie on ``serve_decode``, 2 and 16 lose; a lone row pays a tile.
_TILE_ROWS = 4


def _fc(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for C-contiguous (B, S_new, k) activations and a (k, n)
    weight view, batch-invariant for decode rows.

    BLAS picks its kernel, and with it a row's summation order, from the
    call's shape: a lone row runs ``gemv``, and a row of an ``(M, k)`` GEMM
    changes bits with ``M``.  So decode rows (``S_new == 1``) are padded
    to whole tiles, each the same ``(_TILE_ROWS, k) @ (k, n)`` call.
    ``S_new >= 2`` (prefill) stays stacked: one GEMM per sequence.
    """
    b, s_new, k = a.shape
    if s_new != 1:
        return a @ w
    tiles = -(-b // _TILE_ROWS)
    if b % _TILE_ROWS:
        rows = np.zeros((tiles * _TILE_ROWS, k), dtype=a.dtype)
        rows[:b] = a[:, 0]
    else:
        rows = a.reshape(b, k)
    if tiles > 1:
        rows = rows.reshape(tiles, _TILE_ROWS, k)
    return (rows @ w).reshape(-1, 1, w.shape[-1])[:b]


def _forward_cached(
    model: GPT,
    shards: tuple[list[list[_BlockShard]], list[np.ndarray]],
    ids: np.ndarray,
    pasts: list[int],
    attend,
    all_reduce=_lone_shard,
    all_gather=_lone_shard,
) -> np.ndarray:
    """Last-position logits (B, 1, V) for the new tokens ``ids`` (B,
    S_new), where row ``j`` already has ``pasts[j]`` cached positions.

    The one cached forward: lone generation, the serial serving decoder
    and the tensor-parallel decoder all run this function and differ in
    exactly three places.  ``attend(shard, layer, qh, kh, vh)`` owns
    where keys/values live: it stores the new (B, heads/n, S_new, hd)
    ``kh``/``vh`` and returns causal attention of ``qh`` over everything
    cached, as (B, S_new, H/n).  ``all_reduce(partials, tag)`` sums the
    shards' (B, S_new, H) partial products and ``all_gather(slices,
    tag)`` concatenates their vocabulary slices of the logits along the
    last axis — how shards meet.  With one shard (``_shard_weights(model)``)
    both are the identity and every line below is the serial arithmetic.

    Every caller keeps only the last position's logits (the next token),
    so ``ln_f`` and the LM head run on that row alone: a prefill pays for
    one head row, not ``S_new``.  Token ids outside the vocabulary raise
    :class:`IndexError` (:func:`repro.tensor.functional.check_token_ids`)
    before any key or value is stored.
    """
    cfg = model.cfg
    blocks, head = shards
    heads_local = cfg.num_heads // len(head)
    s_new = ids.shape[1]
    if max(pasts) + s_new > cfg.seq_len:
        raise ValueError(
            f"sequence of {max(pasts)} cached + {s_new} new tokens exceeds "
            f"the model's context {cfg.seq_len}"
        )
    F.check_token_ids(ids, cfg.vocab_size)
    pos = np.asarray(pasts)[:, None] + np.arange(s_new)[None, :]

    def ln(mod, arr):
        return F.layer_norm(Tensor(arr), mod.weight, mod.bias, mod.eps).data

    with no_grad():
        x = model.wte.weight.data[ids] + model.wpe.weight.data[pos]
        for layer, (blk, parts) in enumerate(zip(model.blocks, blocks)):
            a = ln(blk.ln1, x)
            partials = []
            for i, w in enumerate(parts):
                qkv = _fc(a, w.qkv_w) + w.qkv_b
                hb = qkv.shape[-1] // 3
                q, k, v = qkv[..., :hb], qkv[..., hb : 2 * hb], qkv[..., 2 * hb :]
                qh, kh, vh = (_split_heads(t, heads_local) for t in (q, k, v))
                partials.append(_fc(attend(i, layer, qh, kh, vh), w.proj_w))
            proj = all_reduce(partials, "serve.proj_AR_x")
            x = x + (proj + blk.attn.proj.bias.data)
            a = ln(blk.ln2, x)
            partials = [
                _fc(F.gelu(Tensor(_fc(a, w.fc1_w) + w.fc1_b)).data, w.fc2_w)
                for w in parts
            ]
            fc2 = all_reduce(partials, "serve.mlp_AR_x")
            x = x + (fc2 + blk.mlp.fc2.bias.data)
        x = ln(model.ln_f, x[:, -1:])
        return all_gather([_fc(x, w.T) for w in head], "serve.head_AG_x")


def _forward_lone(
    model: GPT, ids_new: np.ndarray, cache: KVCache
) -> np.ndarray:
    """Last-position logits (B, 1, V) for the new tokens, extending the
    dense cache: the one-shard forward whose keys/values live in
    ``cache``."""
    past = cache.seq_len

    def attend(shard, layer, qh, kh, vh):
        cache.append(layer, kh, vh)
        return _attention_with_cache(
            qh, cache.keys[layer], cache.values[layer], pasts
        )

    pasts = [past] * len(ids_new)
    return _forward_cached(
        model, _shard_weights(model), ids_new, pasts, attend
    )


def prefill(model: GPT, prefix: np.ndarray) -> tuple[np.ndarray, KVCache]:
    """Run the prompt once; return (last-position logits, filled cache)."""
    prefix = np.atleast_2d(np.asarray(prefix))
    if prefix.ndim != 2:
        raise ValueError(
            f"token ids must be at most 2-D (batch, seq); got shape "
            f"{prefix.shape}"
        )
    if prefix.size == 0:
        raise ValueError(
            "prefill requires a non-empty prompt (got an empty prefix)"
        )
    cache = KVCache()
    logits = _forward_lone(model, prefix, cache)
    return logits[:, -1], cache


def decode_step(
    model: GPT, token: np.ndarray, cache: KVCache
) -> np.ndarray:
    """One incremental step: feed the new tokens, get (B, V) logits.

    Accepts a scalar, a (B,) vector, or an already-2D (B, 1) column —
    one new token per sequence either way.
    """
    token = np.atleast_1d(np.asarray(token))
    if token.ndim == 1:
        token = token[:, None]
    if token.ndim != 2 or token.shape[1] != 1:
        raise ValueError(
            f"decode_step takes one new token per sequence: scalar, (B,) "
            f"or (B, 1); got shape {np.asarray(token).shape}"
        )
    if token.size == 0:
        raise ValueError("decode_step requires at least one sequence")
    logits = _forward_lone(model, token, cache)
    return logits[:, -1]


def generate_greedy(
    model: GPT, prefix: np.ndarray, num_tokens: int
) -> np.ndarray:
    """Greedy continuation of a 1-D prefix using the KV cache.

    Produces exactly the same tokens as uncached greedy decoding (one
    full forward per token), in O(prefix + n) total forward work instead
    of O(n * (prefix + n)).
    """
    if num_tokens < 1:
        raise ValueError("num_tokens must be >= 1")
    prefix = np.asarray(prefix)
    if prefix.ndim != 1:
        raise ValueError(f"prefix must be 1-D; got shape {prefix.shape}")
    if prefix.size == 0:
        raise ValueError("prefix must contain at least one token")
    logits, cache = prefill(model, prefix[None, :])
    out = []
    nxt = int(np.argmax(logits[0]))
    out.append(nxt)
    for _ in range(num_tokens - 1):
        logits = decode_step(model, np.array([nxt]), cache)
        nxt = int(np.argmax(logits[0]))
        out.append(nxt)
    return np.asarray(out, dtype=np.int64)
