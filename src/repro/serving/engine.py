"""Continuous-batching serving engine over the paged KV cache.

:class:`ServingEngine` is the :class:`~repro.serving.loop.ServingLoop`
(scheduling and round semantics: see its module docstring) over the
serial decoder: :class:`PagedDecoder` with one weight shard and one
:class:`~repro.serving.paged_kv.PagedKVCache`.

Numerical contract: the engine's greedy output is **bitwise identical**
to running :func:`repro.nn.generation.generate_greedy` per request.
The math is the same *by construction*: prefill and the batched decode
step are calls of the one cached forward
(:func:`repro.nn.generation._forward_cached`) that the lone path runs,
over views of the model's own weight arrays, and the paged ``attend``
below is one call of the attention the lone path calls
(:func:`repro.nn.generation._attention_with_cache`) — no per-sequence
write -> gather -> attention loop lives here.  What served == lone
still rests on is *batch invariance* — a row's bits cannot depend on
its batch: embedding rows are gathered per sequence,
LayerNorm/GELU/residuals are row-local, every decode row's FC products
are the same fixed 4-row GEMM call alone or in a batch
(:func:`repro.nn.generation._fc`), and inside attention only three
reductions have a floating-point order that depends on a length —
``q @ k^T``, the softmax denominator, ``att @ v`` — and those run per
row with the call shapes of a lone run: a decode row's over exactly its
live positions (everything else elementwise over the padded batch), a
prefill row's per query tile over that tile's live length.  Keys/values
are read from token-major pages (:mod:`repro.serving.paged_kv`): the lone
path's dense-cache values under other strides.  The tests assert logits
with ``assert_array_equal``, not a tolerance:
``tests/test_serving_batch_invariance.py`` holds every row of a batch to
the row decoded alone, ``tests/test_serving_paged_attention.py`` this
path to the per-sequence loop it replaced (bitwise for decode, to a
stated budget for prefill's query tiles).
"""

from __future__ import annotations

import numpy as np

from ..nn.generation import (
    _attention_with_cache,
    _forward_cached,
    _lone_shard,
    _shard_weights,
)
from ..nn.transformer import GPT
from .loop import FinishedRequest, ServingLoop
from .paged_kv import PagedKVCache
from .scheduler import BatchingConfig

__all__ = [
    "FinishedRequest",
    "PagedDecoder",
    "ServingEngine",
    "batched_decode_step",
]


def _kv_pools(
    model: GPT, n: int, block_size: int, num_blocks: int
) -> list[PagedKVCache]:
    """``n`` block pools of ``num_heads / n`` heads each, in the model's
    dtype (a pool of another dtype would silently cast K/V on write)."""
    cfg = model.cfg
    return [
        PagedKVCache(
            cfg.num_layers,
            cfg.num_heads // n,
            cfg.head_dim,
            block_size=block_size,
            num_blocks=num_blocks,
            dtype=model.wte.weight.data.dtype,
        )
        for _ in range(n)
    ]


class PagedDecoder:
    """The cached forward over paged KV: the decoder surface
    :class:`~repro.serving.loop.ServingLoop` drives.

    ``shards`` (:func:`repro.nn.generation._shard_weights`) cuts the
    model into ``len(kv)`` weight shards and ``kv[i]`` pages shard
    ``i``'s heads.  As constructed here — one shard, no collectives —
    this *is* the serial decoder;
    :class:`~repro.serving.tp.TensorParallelDecoder` is the same class
    with more shards and the two hooks that make them meet.  The shard
    views are taken once, at construction: rebuild the decoder after
    rebinding a parameter's ``.data``.
    """

    #: How the shards' partial sums / vocabulary slices meet.
    _all_reduce = _all_gather = staticmethod(_lone_shard)

    def __init__(self, model: GPT, kv: list[PagedKVCache], shards) -> None:
        self.model = model
        self.kv = kv
        self.shards = shards

    # -- sequence lifecycle (PagedKVCache's, fanned over the shards) -------

    def add_sequence(self, seq_id: int, reserve_tokens: int) -> None:
        for kv in self.kv:
            kv.add_sequence(seq_id)
            kv.reserve(seq_id, reserve_tokens)

    def free_sequence(self, seq_id: int) -> None:
        for kv in self.kv:
            kv.free_sequence(seq_id)

    def reserve(self, seq_id: int, num_new: int) -> None:
        """Grow every shard's reservation by ``num_new`` tokens.

        All-or-nothing across shards: every shard holds the same block
        count for a sequence (identical tables, different head slices),
        so the shards either all succeed or the first one raises
        :class:`~repro.serving.paged_kv.CacheOutOfBlocks` before any
        state diverges.
        """
        for kv in self.kv:
            kv.reserve(seq_id, num_new)

    @property
    def num_free_blocks(self) -> int:
        """Free blocks per shard (all shards allocate in lockstep)."""
        return self.kv[0].allocator.num_free

    # -- forward -----------------------------------------------------------

    def _forward(self, ids: np.ndarray, seq_ids: list[int]) -> np.ndarray:
        """Last-position logits (B, 1, V) for new tokens ``ids`` (B,
        S_new), one row per sequence, extending every shard's cache.
        Keys/values land at uncommitted offsets and are committed only
        after the whole forward, so a forward that raises can simply be
        re-run.
        This is the one place sequence ids enter the forward: a repeated
        id is rejected here, before any byte is written."""
        if len(set(seq_ids)) != len(seq_ids):
            # Two rows of one sequence would land on the same slots (the
            # second shadowing the first) and advance its length twice.
            batch = list(seq_ids)
            repeated = sorted({s for s in batch if batch.count(s) > 1})
            raise ValueError(
                f"sequence ids {repeated} appear more than once in the "
                f"batch {batch}; a forward takes one row per sequence"
            )
        s_new = ids.shape[1]
        pasts = [self.kv[0].seq_len(s) for s in seq_ids]

        def attend(shard, layer, qh, kh, vh):
            kv = self.kv[shard]
            kv.write_rows(seq_ids, layer, kh, vh)
            keys, values = kv.gather_rows(seq_ids, layer, s_new)
            return _attention_with_cache(qh, keys, values, pasts)

        logits = _forward_cached(
            self.model, self.shards, ids, pasts, attend,
            self._all_reduce, self._all_gather,
        )
        for kv in self.kv:
            for s in seq_ids:
                kv.advance(s, s_new)
        return logits

    def prefill(self, seq_id: int, prompt: np.ndarray) -> np.ndarray:
        """Run one prompt, writing its K/V straight into the sequence's
        pages; returns (V,) last-position logits.  The sequence must be
        added (and reserved) first."""
        prompt = np.asarray(prompt, dtype=np.int64)
        if prompt.ndim != 1 or prompt.size == 0:
            raise ValueError(
                f"prompt must be a non-empty 1-D token array; got shape "
                f"{prompt.shape}"
            )
        return self._forward(prompt[None, :], [seq_id])[0, -1]

    def decode_step(self, tokens: np.ndarray, seq_ids: list[int]) -> np.ndarray:
        """One batched decode step: ``tokens[i]`` is the next input token
        of sequence ``seq_ids[i]``; returns (B, V) logits."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.shape != (len(seq_ids),):
            raise ValueError(
                f"expected ({len(seq_ids)},) next tokens for "
                f"{len(seq_ids)} sequences; got {tokens.shape}"
            )
        return self._forward(tokens[:, None], seq_ids)[:, -1]

    def generate_greedy(
        self, prompt: np.ndarray, num_tokens: int, seq_id: int = 0
    ) -> np.ndarray:
        """Single-prompt greedy generation (mirrors
        :func:`repro.nn.generation.generate_greedy`)."""
        if num_tokens < 1:
            raise ValueError("num_tokens must be >= 1")
        prompt = np.asarray(prompt, dtype=np.int64)
        self.add_sequence(seq_id, prompt.shape[0] + num_tokens)
        try:
            out = [int(np.argmax(self.prefill(seq_id, prompt)))]
            for _ in range(num_tokens - 1):
                logits = self.decode_step(np.asarray([out[-1]]), [seq_id])
                out.append(int(np.argmax(logits[0])))
        finally:
            self.free_sequence(seq_id)
        return np.asarray(out, dtype=np.int64)


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
    decoder = PagedDecoder(model, [kv], _shard_weights(model))
    return decoder.decode_step(tokens, seq_ids)


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
        decoder = PagedDecoder(
            model,
            _kv_pools(model, 1, config.block_size, config.num_blocks),
            _shard_weights(model),
        )
        super().__init__(
            decoder,
            config,
            context_len=model.cfg.seq_len,
            vocab_size=model.cfg.vocab_size,
            eos_id=eos_id,
        )
        self.model = model
        (self.kv,) = decoder.kv
