"""Batch invariance of the decode FC stream and of prefill attention.

DESIGN.md "Kernel rewrite contract", inference paragraph: a decode row's
bits must not depend on what the row is batched with.  BLAS chooses its
kernel — and with it the order a row's ``k`` products are summed in —
from the shape of the call, so ``nn/generation.py::_fc`` gives
every decode row one call shape: a fixed 4-row GEMM tile.  Three layers
of evidence, all ``assert_array_equal``:

(i)   the helper alone, over shapes, dtypes, the three weight layouts
      the forward passes it, every batch size and every row position;
(ii)  a model through every decoder: a ragged batch's logits (and, under
      tensor parallelism, every rank's partial products) against each
      row decoded alone, including after a rank is killed and its KV is
      replayed;
(iii) the formula the tile replaced, ``a @ w`` stacked, as the
      *tolerance-class* oracle: moving decode onto the tile re-associates
      a ``k``-term sum, so values move by rounding and no more.

Prefill and replay rows (``S_new >= 2``) run attention in query tiles
(``nn/generation.py::_attention_with_cache``) whose every reduction
length is set by the row's own ``past`` and ``S_new``; (iv) holds a
row of a B-row prefill to the row alone the same way, through the
helper, the serial decoder, TP ranks and the lone dense-cache path.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig
from repro.core.grid import Grid4D, GridConfig
from repro.nn import generation
from repro.nn.generation import (
    _TILE_QUERIES,
    _attention_with_cache,
    _fc,
    decode_step,
    generate_greedy,
    prefill,
)
from repro.nn.transformer import GPT
from repro.runtime import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.serving import (
    BatchingConfig,
    Request,
    ServingEngine,
    TensorParallelDecoder,
)
from repro.serving.resilience import FaultAbsorbingDecoder

#: Every residue mod the tile, one and two full tiles, and past them.
BATCHES = (1, 2, 3, 4, 5, 8, 16, 17)
POOL = BatchingConfig(block_size=8, num_blocks=96)


def _weight(rng, k, n, dtype, layout):
    """A (k, n) weight the way the forward hands one over: the model's
    own array, a tensor-parallel column shard, or the LM head's ``w.T``."""
    if layout == "contiguous":
        return rng.standard_normal((k, n)).astype(dtype)
    if layout == "column_slice":
        return rng.standard_normal((k, 2 * n)).astype(dtype)[:, n:]
    return rng.standard_normal((n, k)).astype(dtype).T


# -- (i) the helper -----------------------------------------------------------


class TestTileIsBatchInvariant:
    # Where an unpadded fold changes a row's bits on OpenBLAS 0.3.31
    # (M*n*k crossing 1e6 with k > 256), and the bench model's shapes.
    @example(seed=0, k=512, n=128, b=16, dtype=np.float64, layout="contiguous")
    @example(seed=1, k=1024, n=128, b=8, dtype=np.float64, layout="contiguous")
    @example(seed=2, k=1024, n=256, b=5, dtype=np.float64, layout="column_slice")
    @example(seed=3, k=128, n=512, b=12, dtype=np.float64, layout="transposed")
    @example(seed=4, k=128, n=384, b=17, dtype=np.float32, layout="column_slice")
    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(16, 1024),
        n=st.integers(1, 1536),
        b=st.integers(1, 17),
        dtype=st.sampled_from([np.float64, np.float32]),
        layout=st.sampled_from(["contiguous", "column_slice", "transposed"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_row_equals_the_row_alone_at_every_position(
        self, seed, k, n, b, dtype, layout
    ):
        rng = np.random.default_rng(seed)
        w = _weight(rng, k, n, dtype, layout)
        a = rng.standard_normal((b, 1, k)).astype(dtype)
        batched = _fc(a, w)
        assert batched.shape == (b, 1, n) and batched.dtype == dtype
        for j in range(b):
            np.testing.assert_array_equal(
                batched[j], _fc(a[j : j + 1], w)[0]
            )

    def test_prefill_rows_stay_the_stacked_product(self):
        """``S_new >= 2`` is not tiled: bit for bit what it was."""
        rng = np.random.default_rng(0)
        a, w = rng.standard_normal((3, 7, 48)), rng.standard_normal((48, 20))
        np.testing.assert_array_equal(_fc(a, w), a @ w)

    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(16, 1024),
        n=st.integers(1, 256),
        b=st.integers(1, 17),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    @settings(max_examples=40, deadline=None)
    def test_tolerance_class_against_the_stacked_product(
        self, seed, k, n, b, dtype
    ):
        """(iii) for one product.  Two summation orders of the same ``k``
        terms differ by rounding: held to 16 ulp of ``sum_i |a_i w_i|``
        (measured: 3.4 at worst over these shapes, at ``k`` near 1024)."""
        rng = np.random.default_rng(seed)
        w = _weight(rng, k, n, dtype, "contiguous")
        a = rng.standard_normal((b, 1, k)).astype(dtype)
        budget = 16 * np.finfo(dtype).eps * (np.abs(a) @ np.abs(w))
        assert np.all(np.abs(_fc(a, w) - a @ w) <= budget)


# -- (ii) through the model ---------------------------------------------------


def _model(hidden):
    """``hidden = 256`` puts ``fc2`` at ``k = 1024``: a 4-row batch is
    already past the small-matrix cliff there."""
    return GPT(
        GPTConfig(
            name="batch-invariance", num_layers=2, hidden_size=hidden,
            num_heads=4, seq_len=48, vocab_size=64,
        ),
        seed=hidden,
    )


def _prompts(rng):
    return [rng.integers(0, 64, n) for n in rng.integers(1, 24, max(BATCHES))]


def _prefilled(decoder, prompts, spare):
    for s, p in enumerate(prompts):
        decoder.add_sequence(s, len(p) + spare)
        decoder.prefill(s, p)
    return decoder


class _RecordingTP(TensorParallelDecoder):
    """Keeps what each rank hands to every collective — its partial
    product or its slice of the logits — and meets the partials in rank
    order instead of over the ring.

    The ring all-reduce sums an element in an order set by its offset in
    the flat (B, 1, H) buffer, so from three ranks up the *sum* depends
    on ``B`` (at the parent commit too; two ranks are exempt because a
    two-term sum commutes).  What this file pins is everything before
    the sum, and a rank-order sum hands the next layer the same input in
    the batched and the lone run.
    """

    def __init__(self, model, gx):
        super().__init__(
            model, Grid4D(GridConfig(gx, 1, 1, 1)),
            block_size=POOL.block_size, num_blocks=POOL.num_blocks,
        )
        self.seen = []

    def _all_reduce(self, partials, tag):
        self.seen.append(partials)
        return functools.reduce(np.add, partials)

    def _all_gather(self, slices, tag):
        self.seen.append(slices)
        return super()._all_gather(slices, tag)


DECODERS = {
    "serial": lambda model: ServingEngine(model, POOL).decoder,
    "tp2": lambda model: TensorParallelDecoder(
        model, Grid4D(GridConfig(2, 1, 1, 1)),
        block_size=POOL.block_size, num_blocks=POOL.num_blocks,
    ),
    "fault_absorbing": lambda model: FaultAbsorbingDecoder(
        model, Grid4D(GridConfig(2, 1, 1, 1)), POOL, None, 0
    ),
}


class TestDecodeStepIsBatchInvariant:
    @pytest.mark.parametrize("hidden", [32, 256])
    @pytest.mark.parametrize("kind", sorted(DECODERS))
    def test_ragged_batch_logits_equal_each_row_decoded_alone(
        self, kind, hidden
    ):
        model, rng = _model(hidden), np.random.default_rng(hidden)
        prompts = _prompts(rng)
        batched, lone = (
            _prefilled(DECODERS[kind](model), prompts, len(BATCHES))
            for _ in range(2)
        )
        for b in BATCHES:
            tokens, seqs = rng.integers(0, 64, b), list(range(b))
            got = batched.decode_step(tokens, seqs)
            assert got.shape == (b, 64)
            for j in seqs:
                want = lone.decode_step(tokens[j : j + 1], [j])
                np.testing.assert_array_equal(got[j], want[0])

    @pytest.mark.parametrize("hidden", [32, 256])
    def test_served_rows_equal_the_lone_dense_cache_path(self, hidden):
        """served == lone on *logits*: the paged batch against
        ``nn.generation.decode_step`` over its own dense ``KVCache``."""
        model, rng = _model(hidden), np.random.default_rng(1)
        prompts = _prompts(rng)
        served = _prefilled(DECODERS["serial"](model), prompts, len(BATCHES))
        caches = [prefill(model, p)[1] for p in prompts]
        for b in BATCHES:
            tokens = rng.integers(0, 64, b)
            got = served.decode_step(tokens, list(range(b)))
            for j in range(b):
                want = decode_step(model, tokens[j : j + 1], caches[j])
                np.testing.assert_array_equal(got[j], want[0])

    @pytest.mark.parametrize("gx", [2, 4])
    def test_every_ranks_partials_are_batch_invariant(self, gx):
        """Under TP the logits are a sum over ranks; hold each rank's
        own products to the lone run (see :class:`_RecordingTP`)."""
        model, rng = _model(256), np.random.default_rng(gx)
        prompts = _prompts(rng)
        batched, lone = (
            _prefilled(_RecordingTP(model, gx), prompts, len(BATCHES))
            for _ in range(2)
        )
        for b in BATCHES:
            tokens = rng.integers(0, 64, b)
            batched.seen = []
            batched.decode_step(tokens, list(range(b)))
            # Two all-reduces per layer and the head's all-gather.
            assert len(batched.seen) == 2 * model.cfg.num_layers + 1
            for j in range(b):
                lone.seen = []
                lone.decode_step(tokens[j : j + 1], [j])
                for ours, theirs in zip(batched.seen, lone.seen, strict=True):
                    assert len(ours) == len(theirs) == gx
                    for rank in range(gx):
                        np.testing.assert_array_equal(
                            ours[rank][j], theirs[rank][0]
                        )

    def test_replayed_kv_after_a_kill_serves_the_lone_history(self):
        """replay == original.  A rank dies under a batched step: the
        group shrinks 4 -> 2, every sequence's KV is rebuilt by lone
        steps, and the retried *batched* step must equal a gx = 2
        decoder that never failed and only ever ran rows alone."""
        model, rng = _model(32), np.random.default_rng(7)
        prompts = _prompts(rng)[:5]
        seqs = list(range(len(prompts)))
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="kill", rank=1, step=2),)),
            retry=RetryPolicy(timeout=2.0, max_retries=2),
        )
        chaos = FaultAbsorbingDecoder(
            model, Grid4D(GridConfig(4, 1, 1, 1)), POOL, injector, 2
        )
        clean = FaultAbsorbingDecoder(
            model, Grid4D(GridConfig(2, 1, 1, 1)), POOL, None, 0
        )
        chaos.start_round(0)
        _prefilled(chaos, prompts, 4)
        _prefilled(clean, prompts, 4)
        for step in (1, 2, 3):
            tokens = rng.integers(0, 64, len(seqs))
            chaos.start_round(step)
            got = chaos.decode_step(tokens, seqs)
            want = [clean.decode_step(tokens[j : j + 1], [j])[0] for j in seqs]
            if step >= 2:  # step 1 ran on four ranks: another sum order
                np.testing.assert_array_equal(got, np.stack(want))
        assert chaos.shrink_history == [(2, 4, 2)]
        assert chaos.stats["rank_failures"] == 1


# -- (iii) the formula the tile replaced --------------------------------------


def _stacked_matmul(a, w):
    """The pre-tile FC product, verbatim: NumPy's stacked matmul, which
    for decode rows is one ``gemv`` per row."""
    return a @ w


class TestToleranceAgainstTheStackedForward:
    @pytest.mark.parametrize("hidden", [32, 256])
    def test_logits_move_by_rounding_and_greedy_tokens_do_not(
        self, hidden, monkeypatch
    ):
        """The whole forward over the tile vs over ``a @ w``.  Prefill
        (``S_new >= 2``) is untouched, so it stays bitwise; decode logits
        are held to 64 ulp of the largest logit (two layers of
        few-ulp re-associations carried by the residual stream; measured
        4 at worst) and the argmax may not move."""
        model, rng = _model(hidden), np.random.default_rng(2)
        prompts = _prompts(rng)

        def run():
            dec = _prefilled(DECODERS["serial"](model), prompts, 3)
            first = [dec.kv[0].gather(s, 0)[0].copy() for s in range(17)]
            steps = [
                dec.decode_step(np.full(17, t), list(range(17)))
                for t in (5, 9, 11)
            ]
            return first, steps

        tiled_prefill, tiled = run()
        monkeypatch.setattr(generation, "_fc", _stacked_matmul)
        stacked_prefill, stacked = run()
        for ours, theirs in zip(tiled_prefill, stacked_prefill):
            np.testing.assert_array_equal(ours, theirs)
        for got, want in zip(tiled, stacked):
            atol = 64 * np.finfo(np.float64).eps * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)
            np.testing.assert_array_equal(got.argmax(-1), want.argmax(-1))


# -- (iv) prefill attention in query tiles ------------------------------------

#: ``S_new`` either side of one tile and past two.
PREFILL_LENGTHS = (
    2, _TILE_QUERIES - 1, _TILE_QUERIES, _TILE_QUERIES + 1, 2 * _TILE_QUERIES + 3
)


def _long_model(hidden):
    """Context for a cached past of up to 20 plus the longest prefill."""
    return GPT(
        GPTConfig(
            name="prefill-invariance", num_layers=2, hidden_size=hidden,
            num_heads=4, seq_len=96, vocab_size=64,
        ),
        seed=hidden + 1,
    )


def _ragged(decoder, rng, pasts):
    """One sequence per entry of ``pasts``, each prefilled that far (a
    zero past stays empty), with room for the longest prefill after."""
    for s, past in enumerate(pasts):
        decoder.add_sequence(s, past + max(PREFILL_LENGTHS))
        if past:
            decoder.prefill(s, rng.integers(0, 64, past))
    return decoder


#: Ragged pasts, a zero among them; one row; two equal pasts.
PASTS_CASES = ([0, 7, 20, 1], [13], [5, 5, 0])


class TestPrefillIsBatchInvariant:
    @example(seed=0, pasts=[0, 17, 3, 40], s_new=2 * _TILE_QUERIES + 3,
             heads=2, hd=16, dtype=np.float64)
    @example(seed=1, pasts=[9, 0], s_new=_TILE_QUERIES + 1, heads=3, hd=8,
             dtype=np.float32)
    @given(
        seed=st.integers(0, 2**16),
        pasts=st.lists(st.integers(0, 40), min_size=1, max_size=5),
        s_new=st.sampled_from(PREFILL_LENGTHS),
        heads=st.integers(1, 4),
        hd=st.sampled_from([1, 8, 16]),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    @settings(max_examples=60, deadline=None)
    def test_attention_row_equals_the_row_alone(
        self, seed, pasts, s_new, heads, hd, dtype
    ):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((len(pasts), heads, s_new, hd)).astype(dtype)
        keys, values = (
            [
                rng.standard_normal((heads, p + s_new, hd)).astype(dtype)
                for p in pasts
            ]
            for _ in range(2)
        )
        batched = _attention_with_cache(q, iter(keys), iter(values), pasts)
        assert batched.shape == (len(pasts), s_new, heads * hd)
        assert batched.dtype == dtype
        for j, past in enumerate(pasts):
            alone = _attention_with_cache(
                q[j : j + 1], [keys[j]], [values[j]], [past]
            )
            np.testing.assert_array_equal(batched[j], alone[0])

    @pytest.mark.parametrize("pasts", PASTS_CASES, ids=str)
    @pytest.mark.parametrize("s_new", PREFILL_LENGTHS)
    def test_paged_forward_rows_equal_each_row_alone(self, s_new, pasts):
        model, rng = _long_model(32), np.random.default_rng(s_new)
        batched, lone = (
            _ragged(
                ServingEngine(model, POOL).decoder, np.random.default_rng(0), pasts
            )
            for _ in range(2)
        )
        ids = rng.integers(0, 64, (len(pasts), s_new))
        got = batched._forward(ids, list(range(len(pasts))))
        for j in range(len(pasts)):
            np.testing.assert_array_equal(
                got[j], lone._forward(ids[j : j + 1], [j])[0]
            )

    @pytest.mark.parametrize("gx", [2, 4])
    @pytest.mark.parametrize("s_new", PREFILL_LENGTHS)
    def test_every_ranks_prefill_partials_are_batch_invariant(self, gx, s_new):
        model, rng = _long_model(256), np.random.default_rng(gx)
        pasts = PASTS_CASES[0]
        batched, lone = (
            _ragged(_RecordingTP(model, gx), np.random.default_rng(0), pasts)
            for _ in range(2)
        )
        ids = rng.integers(0, 64, (len(pasts), s_new))
        batched.seen = []
        batched._forward(ids, list(range(len(pasts))))
        assert len(batched.seen) == 2 * model.cfg.num_layers + 1
        for j in range(len(pasts)):
            lone.seen = []
            lone._forward(ids[j : j + 1], [j])
            for ours, theirs in zip(batched.seen, lone.seen, strict=True):
                for rank in range(gx):
                    np.testing.assert_array_equal(ours[rank][j], theirs[rank][0])

    def test_lone_prefill_rows_equal_each_row_alone(self):
        """The dense-cache path: a (B, S) ``prefill`` row by row."""
        model, rng = _long_model(32), np.random.default_rng(3)
        ids = rng.integers(0, 64, (3, 2 * _TILE_QUERIES + 3))
        logits, cache = prefill(model, ids)
        for j in range(3):
            alone, alone_cache = prefill(model, ids[j : j + 1])
            np.testing.assert_array_equal(logits[j], alone[0])
            for ours, theirs in zip(cache.keys, alone_cache.keys):
                np.testing.assert_array_equal(ours[j], theirs[0])

    @pytest.mark.parametrize("length", [2 * _TILE_QUERIES + 3, 80])
    def test_served_equals_lone_past_two_tiles(self, length):
        """served == lone on logits with prompts longer than two tiles:
        the paged prefill and the decode steps after it against
        ``prefill`` / ``decode_step`` on a dense cache, and the engine's
        tokens against ``generate_greedy``."""
        model, rng = _long_model(32), np.random.default_rng(length)
        prompts = [rng.integers(0, 64, n) for n in (length, length - 9, 5)]
        served = ServingEngine(model, POOL).decoder
        for s, p in enumerate(prompts):
            served.add_sequence(s, len(p) + 4)
            want, cache = prefill(model, p)
            np.testing.assert_array_equal(served.prefill(s, p), want[0])
            for t in rng.integers(0, 64, 3):
                np.testing.assert_array_equal(
                    served.decode_step(np.asarray([t]), [s])[0],
                    decode_step(model, np.asarray([t]), cache)[0],
                )
        fins = ServingEngine(model, POOL).run(
            [Request(i, p, 6, 0.0) for i, p in enumerate(prompts)]
        )
        for fin in fins:
            np.testing.assert_array_equal(
                fin.tokens, generate_greedy(model, fin.request.prompt, 6)
            )
