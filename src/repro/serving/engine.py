"""Continuous-batching serving engine over the paged KV cache.

:class:`ServingEngine` is the :class:`~repro.serving.loop.ServingLoop`
(scheduling and round semantics: see its module docstring) over a
serial decoder: one :class:`~repro.serving.paged_kv.PagedKVCache`, the
single-sequence cached prefill, and :func:`batched_decode_step`.

Numerical contract: the engine's greedy output is **bitwise identical**
to running :func:`repro.nn.generation.generate_greedy` per request.
Prefill *is* the single-sequence cached forward (then copied into KV
blocks), and the batched decode step evaluates, per batch row, exactly
the float64 operations of the single-sequence path: embedding rows are
gathered per sequence, LayerNorm/GELU/residuals are row-local, NumPy
batches stacked matmuls as independent per-row GEMMs, and attention is
evaluated per sequence over its gathered blocks.  The equivalence tests
assert logits equality with ``assert_array_equal``, not a tolerance.
"""

from __future__ import annotations

import numpy as np

from ..nn.generation import (
    _attention_with_cache,
    _split_heads,
    prefill,
)
from ..nn.transformer import GPT
from ..tensor import Tensor, no_grad
from ..tensor import functional as F
from .loop import FinishedRequest, ServingLoop
from .paged_kv import PagedKVCache
from .scheduler import BatchingConfig

__all__ = ["FinishedRequest", "ServingEngine", "batched_decode_step"]


def batched_decode_step(
    model: GPT,
    tokens: np.ndarray,
    kv: PagedKVCache,
    seq_ids: list[int],
) -> np.ndarray:
    """One decode step for ``len(seq_ids)`` sequences at once.

    ``tokens[i]`` is the next input token of ``kv`` sequence
    ``seq_ids[i]``; returns (B, V) logits.  Writes each sequence's new
    keys/values into its KV blocks and commits the position afterwards.
    Per batch row this computes bit-for-bit the single-sequence
    :func:`repro.nn.generation.decode_step` arithmetic (see module
    docstring).
    """
    cfg = model.cfg
    b = len(seq_ids)
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.shape != (b,):
        raise ValueError(
            f"expected ({b},) next tokens for {b} sequences; got "
            f"{tokens.shape}"
        )
    pasts = [kv.seq_len(s) for s in seq_ids]
    for s, past in zip(seq_ids, pasts):
        if past + 1 > cfg.seq_len:
            raise ValueError(
                f"sequence {s} at {past} cached tokens exceeds the "
                f"model's context {cfg.seq_len}"
            )
    h = cfg.hidden_size
    nh = cfg.num_heads
    pos = np.asarray(pasts)

    def ln(mod, arr):
        return F.layer_norm(Tensor(arr), mod.weight, mod.bias, mod.eps).data

    with no_grad():
        x = (
            model.wte.weight.data[tokens[:, None]]
            + model.wpe.weight.data[pos][:, None, :]
        )  # (B, 1, H)
        for layer in range(cfg.num_layers):
            blk = model.blocks[layer]
            a = ln(blk.ln1, x)
            qkv = a @ blk.attn.qkv.weight.data + blk.attn.qkv.bias.data
            q, k, v = qkv[..., :h], qkv[..., h : 2 * h], qkv[..., 2 * h :]
            qh, kh, vh = (_split_heads(t, nh) for t in (q, k, v))
            rows = []
            for i, s in enumerate(seq_ids):
                kv.write(s, layer, kh[i], vh[i])
                k_all, v_all = kv.gather(s, layer, include_uncommitted=1)
                rows.append(
                    _attention_with_cache(
                        qh[i : i + 1], k_all[None], v_all[None], pasts[i]
                    )
                )
            att = np.concatenate(rows, axis=0)  # (B, 1, H)
            x = x + (att @ blk.attn.proj.weight.data + blk.attn.proj.bias.data)
            a = ln(blk.ln2, x)
            f1 = F.gelu(
                Tensor(a @ blk.mlp.fc1.weight.data + blk.mlp.fc1.bias.data)
            ).data
            x = x + (f1 @ blk.mlp.fc2.weight.data + blk.mlp.fc2.bias.data)
        x = F.layer_norm(
            Tensor(x), model.ln_f.weight, model.ln_f.bias, model.ln_f.eps
        ).data
        logits = x @ model.wte.weight.data.T
    for s in seq_ids:
        kv.advance(s, 1)
    return logits[:, -1]


class _SerialDecoder:
    """The decoder surface over one :class:`PagedKVCache` and the serial
    cached forward."""

    def __init__(self, model: GPT, config: BatchingConfig) -> None:
        self.model = model
        self.kv = PagedKVCache(
            model.cfg.num_layers,
            model.cfg.num_heads,
            model.cfg.head_dim,
            block_size=config.block_size,
            num_blocks=config.num_blocks,
        )

    def add_sequence(self, seq_id: int, reserve_tokens: int) -> None:
        self.kv.add_sequence(seq_id)
        self.kv.reserve(seq_id, reserve_tokens)

    def free_sequence(self, seq_id: int) -> None:
        self.kv.free_sequence(seq_id)

    def reserve(self, seq_id: int, num_new: int) -> None:
        self.kv.reserve(seq_id, num_new)

    @property
    def num_free_blocks(self) -> int:
        return self.kv.allocator.num_free

    def prefill(self, seq_id: int, prompt: np.ndarray) -> np.ndarray:
        # Prefill IS the single-sequence cached forward; its per-layer
        # keys/values are copied once into this sequence's KV blocks.
        logits, cache = prefill(self.model, prompt[None, :])
        for layer, (k, v) in enumerate(zip(cache.keys, cache.values)):
            self.kv.write(seq_id, layer, k[0], v[0])
        self.kv.advance(seq_id, prompt.shape[0])
        return logits[0]

    def decode_step(self, tokens: np.ndarray, seq_ids: list[int]) -> np.ndarray:
        return batched_decode_step(self.model, tokens, self.kv, seq_ids)


class ServingEngine(ServingLoop):
    """The serving loop over the serial decoder.

    Owns a :class:`PagedKVCache` (``self.kv``, the block pool sized by
    ``config``) and samples greedily; scheduling, preemption and typed
    overload outcomes are :class:`~repro.serving.loop.ServingLoop`'s.
    """

    def __init__(
        self,
        model: GPT,
        config: BatchingConfig | None = None,
        *,
        eos_id: int | None = None,
    ) -> None:
        config = config or BatchingConfig()
        decoder = _SerialDecoder(model, config)
        super().__init__(
            decoder, config, context_len=model.cfg.seq_len, eos_id=eos_id
        )
        self.model = model
        self.kv = decoder.kv
