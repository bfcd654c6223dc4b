"""Tests for KV-cached incremental decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig
from repro.nn import GPT, KVCache, decode_step, generate_greedy, prefill
from repro.nn.generation import _attention_with_cache
from repro.tensor import no_grad
from tests.oracles.generation import assert_prefill_close


def model_for(seed=0, layers=3, hidden=32, heads=4, seq=24, vocab=64):
    return GPT(
        GPTConfig(
            name="g", num_layers=layers, hidden_size=hidden,
            num_heads=heads, seq_len=seq, vocab_size=vocab,
        ),
        seed=seed,
    )


class TestCacheEquivalence:
    def test_prefill_logits_match_full_forward(self):
        model = model_for()
        ids = np.random.default_rng(0).integers(0, 64, (2, 10))
        with no_grad():
            full = model(ids).data
        logits, cache = prefill(model, ids)
        np.testing.assert_allclose(logits, full[:, -1], rtol=1e-12, atol=1e-12)
        assert cache.seq_len == 10

    def test_decode_step_matches_full_forward(self):
        """Each incremental step's logits equal a from-scratch forward of
        the whole sequence so far."""
        model = model_for(seed=3)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 64, (1, 6))
        logits, cache = prefill(model, ids)
        seq = ids
        for _ in range(5):
            nxt = rng.integers(0, 64, 1)
            seq = np.concatenate([seq, nxt[None, :]], axis=1)
            logits = decode_step(model, nxt, cache)
            with no_grad():
                full = model(seq).data[:, -1]
            np.testing.assert_allclose(logits, full, rtol=1e-12, atol=1e-12)

    def test_generate_matches_uncached(self):
        from tests.oracles.generation import greedy_continuation

        model = model_for(seed=5)
        prefix = np.random.default_rng(2).integers(0, 64, 9)
        cached = generate_greedy(model, prefix, 8)
        # Force the uncached sliding-window path by comparison on a
        # second model with tight context.
        uncached = []
        ids = prefix.copy()
        with no_grad():
            for _ in range(8):
                nxt = int(np.argmax(model(ids[None, :]).data[0, -1]))
                uncached.append(nxt)
                ids = np.append(ids, nxt)
        np.testing.assert_array_equal(cached, uncached)
        # And the public evaluator function agrees.
        np.testing.assert_array_equal(
            greedy_continuation(model, prefix, 8), cached
        )

    def test_batched_prefill(self):
        model = model_for(seed=7)
        ids = np.random.default_rng(3).integers(0, 64, (3, 8))
        logits, cache = prefill(model, ids)
        assert logits.shape == (3, 64)
        assert cache.keys[0].shape[0] == 3


def _attention_finite_fill(q, k_all, v_all, past):
    """The first ``_attention_with_cache`` — one ``past`` for the whole
    batch, finite ``-1e30`` mask fill, a NumPy-scalar divisor.  Kept as
    the oracle for ordinary float64 inputs (DESIGN.md "Kernel rewrite
    contract"): ``exp`` underflows to exactly 0 for either fill."""
    hd = q.shape[-1]
    scores = q @ np.swapaxes(k_all, -1, -2) / np.sqrt(hd)
    s_new, total = q.shape[2], k_all.shape[2]
    mask = np.arange(total)[None, :] <= (past + np.arange(s_new))[:, None]
    scores = np.where(mask[None, None], scores, -1e30)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    out = (e / e.sum(axis=-1, keepdims=True)) @ v_all
    b, nh, s, hd = out.shape
    return out.transpose(0, 2, 1, 3).reshape(b, s, nh * hd)


class TestCachedAttentionMask:
    @given(
        seed=st.integers(0, 2**32 - 1),
        b=st.integers(1, 3),
        nh=st.integers(1, 3),
        hd=st.integers(1, 9),
        past=st.integers(0, 9),
        s_new=st.integers(1, 9),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_inf_fill_is_bitwise_the_finite_fill_in_float64(
        self, seed, b, nh, hd, past, s_new, scale
    ):
        """Decode (``S_new == 1``) is bitwise the first formula.  Prefill
        runs in query tiles with the scale on ``q``: a tolerance-class
        oracle (``tests/oracles/generation.py::PREFILL_ULPS``)."""
        rng = np.random.default_rng(seed)
        q = scale * rng.standard_normal((b, nh, s_new, hd))
        k, v = scale * rng.standard_normal((2, b, nh, past + s_new, hd))
        got = _attention_with_cache(q, k, v, [past] * b)
        want = _attention_finite_fill(q, k, v, past)
        if s_new == 1:
            np.testing.assert_array_equal(got, want)
        else:
            assert_prefill_close(got, want, q, k)

    def test_float32_score_below_the_finite_fill_stays_causal(self):
        """Regression: the legitimate score -1e36 sits *below* -1e30, so
        the finite fill made query 0 attend its own future (5.0), and
        the NumPy-scalar divisor handed back float64."""
        q = np.array([[1e18], [1e18]], dtype=np.float32)[None, None]
        k = np.array([[-1e18], [1e18]], dtype=np.float32)[None, None]
        v = np.array([[1.0], [5.0]], dtype=np.float32)[None, None]
        out = _attention_with_cache(q, k, v, [0])
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, [[[1.0], [5.0]]])
        assert _attention_finite_fill(q, k, v, 0)[0, 0, 0] == 5.0

    def test_ragged_float32_rows_stay_float32_and_causal(self):
        """The same counterexample batched with a longer row: the short
        row's padding is hidden by the one ``-inf`` mask, the output
        stays float32, and each row equals its lone evaluation."""
        rng = np.random.default_rng(0)
        q = np.array([[1e18], [1e18]], dtype=np.float32)[None, None]
        k = np.array([[-1e18], [1e18]], dtype=np.float32)[None]
        v = np.array([[1.0], [5.0]], dtype=np.float32)[None]
        q_long = rng.standard_normal((1, 1, 2, 1)).astype(np.float32)
        k_long, v_long = rng.standard_normal((2, 1, 9, 1)).astype(np.float32)
        out = _attention_with_cache(
            np.concatenate([q, q_long]), [k, k_long], [v, v_long], [0, 7]
        )
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out[0], [[1.0], [5.0]])
        np.testing.assert_array_equal(
            out[1:], _attention_with_cache(q_long, [k_long], [v_long], [7])
        )


class TestCacheMechanics:
    def test_cache_grows(self):
        model = model_for()
        _, cache = prefill(model, np.zeros((1, 4), dtype=int))
        assert cache.seq_len == 4
        decode_step(model, np.array([1]), cache)
        assert cache.seq_len == 5

    def test_context_overflow_rejected(self):
        model = model_for(seq=8)
        _, cache = prefill(model, np.zeros((1, 8), dtype=int))
        with pytest.raises(ValueError):
            decode_step(model, np.array([0]), cache)

    def test_generate_validation(self):
        model = model_for()
        with pytest.raises(ValueError):
            generate_greedy(model, np.zeros(4, dtype=int), 0)

    def test_empty_cache_properties(self):
        c = KVCache()
        assert c.seq_len == 0

    @pytest.mark.parametrize("bad", [-1, 64, 1000])
    def test_token_ids_outside_the_vocabulary_raise(self, bad):
        """Regression: ``-1`` was read from the end of ``wte`` (the same
        tokens as ``63``), so a corrupt prompt decoded without a word.
        The cached forward runs training's one range check before any
        key or value is stored."""
        model = model_for()
        with pytest.raises(IndexError, match=f"token id {bad} out of range"):
            generate_greedy(model, np.asarray([3, bad, 5]), 3)
        _, cache = prefill(model, np.asarray([3, 4, 5]))
        with pytest.raises(IndexError, match="out of range"):
            decode_step(model, np.array([bad]), cache)
        assert cache.seq_len == 3


class TestNoStaleWeights:
    def test_generate_after_parameters_are_rebound(self):
        """The lone path takes its one-shard weight views per call: after
        ``p.data = ...`` (a mixed-precision step, a checkpoint load) it
        must decode with the new weights, not views of the old arrays."""
        model, fresh = model_for(seed=1), model_for(seed=2)
        prefix = np.random.default_rng(0).integers(0, 64, 7)
        generate_greedy(model, prefix, 3)
        for p, q in zip(model.parameters(), fresh.parameters()):
            p.data = q.data.copy()
        np.testing.assert_array_equal(
            prefill(model, prefix)[0], prefill(fresh, prefix)[0]
        )
        np.testing.assert_array_equal(
            generate_greedy(model, prefix, 8),
            generate_greedy(fresh, prefix, 8),
        )


class TestKVCacheCopyComplexity:
    """Regression for the O(S^2) append: the cache must not re-copy its
    whole history every step.

    The pre-fix implementation concatenated per step, moving
    ``sum_{t<=S} t`` tokens to decode ``S`` of them; block growth with
    geometric doubling moves O(S).  ``copied_bytes`` counts every byte
    the cache writes or moves, so a linear bound on it *is* the
    complexity assertion.
    """

    def test_append_bytes_are_linear_not_quadratic(self):
        heads, hd, steps = 2, 4, 512
        cache = KVCache(block_tokens=8)
        k = np.ones((1, heads, 1, hd))
        for _ in range(steps):
            cache.append(0, k, k)
        per_step = 2 * k.nbytes  # k and v
        linear = steps * per_step
        quadratic = steps * (steps + 1) // 2 * per_step
        # Writes + doubling copies stay within a small constant of
        # linear; the concat cache's traffic is ~steps/2 times larger.
        assert cache.copied_bytes <= 4 * linear
        assert cache.copied_bytes < quadratic / 10
        assert cache.seq_len == steps

    def test_doubling_preserves_contents(self):
        cache = KVCache(block_tokens=4)
        rng = np.random.default_rng(0)
        chunks = [rng.standard_normal((1, 2, n, 3)) for n in (3, 5, 1, 9)]
        for c in chunks:
            cache.append(0, c, 2 * c)
        ref = np.concatenate(chunks, axis=2)
        np.testing.assert_array_equal(cache.keys[0], ref)
        np.testing.assert_array_equal(cache.values[0], 2 * ref)


class TestGenerationValidation:
    """Regression: empty prefixes used to crash deep inside the matmul
    with an opaque shape error; now they are rejected at the API edge."""

    def test_prefill_rejects_empty_prefix(self):
        model = model_for()
        with pytest.raises(ValueError, match="empty"):
            prefill(model, np.zeros((1, 0), dtype=int))

    def test_generate_rejects_empty_prefix(self):
        model = model_for()
        with pytest.raises(ValueError, match="at least one token"):
            generate_greedy(model, np.zeros(0, dtype=int), 4)

    def test_generate_rejects_2d_prefix(self):
        model = model_for()
        with pytest.raises(ValueError):
            generate_greedy(model, np.zeros((1, 4), dtype=int), 4)

    def test_decode_step_accepts_2d_tokens(self):
        model = model_for(seed=11)
        ids = np.random.default_rng(4).integers(0, 64, (2, 6))
        _, cache_a = prefill(model, ids)
        _, cache_b = prefill(model, ids)
        tok = np.array([5, 9])
        a = decode_step(model, tok, cache_a)
        b = decode_step(model, tok[:, None], cache_b)  # already (B, 1)
        np.testing.assert_array_equal(a, b)

    def test_decode_step_rejects_bad_shapes(self):
        model = model_for()
        _, cache = prefill(model, np.zeros((1, 4), dtype=int))
        with pytest.raises(ValueError):
            decode_step(model, np.zeros((1, 2), dtype=int), cache)
        with pytest.raises(ValueError):
            decode_step(model, np.zeros((1, 1, 1), dtype=int), cache)
