"""Serving runtime tests: paged KV mechanics, scheduling, and the
bitwise equivalence of continuous batching to sequential decoding.

The load-bearing contract is the last one: whatever order requests
arrive in and however they interleave in the batch, every request's
greedy tokens must equal a lone :func:`repro.nn.generation.generate_greedy`
run **bitwise** (``assert_array_equal``, no tolerance).  Continuous
batching is a scheduling optimization, never a numerical one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig
from repro.nn.generation import decode_step, generate_greedy, prefill
from repro.nn.transformer import GPT
from repro.serving import (
    BatchingConfig,
    BlockAllocator,
    CacheOutOfBlocks,
    ContinuousBatcher,
    PagedKVCache,
    Request,
    ServingEngine,
    TensorParallelDecoder,
    batched_decode_step,
    bursty_trace,
    poisson_trace,
)
from repro.telemetry import Tracer, telemetry_scope


def model_for(seed=0, layers=2, hidden=32, heads=4, seq=64, vocab=64):
    return GPT(
        GPTConfig(
            name="serve-test", num_layers=layers, hidden_size=hidden,
            num_heads=heads, seq_len=seq, vocab_size=vocab,
        ),
        seed=seed,
    )


class TestArrivalTraces:
    def test_poisson_is_seeded_and_sorted(self):
        a = poisson_trace(2.0, 16, seed=5)
        b = poisson_trace(2.0, 16, seed=5)
        assert len(a) == 16
        for x, y in zip(a, b):
            assert x.arrival_time == y.arrival_time
            np.testing.assert_array_equal(x.prompt, y.prompt)
        times = [r.arrival_time for r in a]
        assert times == sorted(times)
        assert all(r.prompt_len >= 1 for r in a)

    def test_different_seed_different_trace(self):
        a = poisson_trace(2.0, 16, seed=5)
        c = poisson_trace(2.0, 16, seed=6)
        assert any(
            x.arrival_time != y.arrival_time for x, y in zip(a, c)
        )

    def test_bursty_trace_is_burstier_than_poisson(self):
        """Squared coefficient of variation of inter-arrivals must
        exceed the Poisson trace's at matched mean rate."""
        def cv2(reqs):
            gaps = np.diff([r.arrival_time for r in reqs])
            return np.var(gaps) / np.mean(gaps) ** 2

        p = poisson_trace(4.0, 400, seed=1)
        b = bursty_trace(4.0, 400, seed=1, burst_factor=8.0)
        assert cv2(b) > cv2(p)

    @pytest.mark.parametrize("trace", [poisson_trace, bursty_trace])
    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
    def test_rate_must_be_positive(self, trace, rate):
        with pytest.raises(ValueError, match="arrival rate must be positive"):
            trace(rate, 3)

    @pytest.mark.parametrize("trace", [poisson_trace, bursty_trace])
    def test_infinite_rate_arrives_at_once(self, trace):
        assert [r.arrival_time for r in trace(float("inf"), 3)] == [0.0] * 3

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(0, np.zeros(0, dtype=np.int64), 4, 0.0)
        with pytest.raises(ValueError):
            Request(0, np.zeros((1, 3), dtype=np.int64), 4, 0.0)
        with pytest.raises(ValueError):
            Request(0, np.zeros(3, dtype=np.int64), 0, 0.0)
        r = Request(0, np.asarray([1, 2, 3]), 4, 0.0)
        assert r.total_tokens == 7


class TestBlockAllocator:
    def test_alloc_free_roundtrip(self):
        a = BlockAllocator(8)
        got = a.alloc(5)
        assert len(got) == len(set(got)) == 5
        assert a.num_free == 3
        a.free(got)
        assert a.num_free == 8

    def test_exhaustion_raises(self):
        a = BlockAllocator(4)
        a.alloc(4)
        with pytest.raises(CacheOutOfBlocks):
            a.alloc(1)

    def test_double_free_rejected(self):
        a = BlockAllocator(4)
        got = a.alloc(2)
        a.free(got)
        with pytest.raises(ValueError):
            a.free([got[0]])

    def test_block_repeated_within_one_free_rejected(self):
        # Each id used to be tested against the free list before any was
        # appended, so a repeat inside one call slipped through and the
        # next alloc handed one block to two sequences.
        a = BlockAllocator(4)
        held = a.alloc(2)
        with pytest.raises(ValueError, match="double free"):
            a.free([held[0], held[0]])
        assert a.num_free + len(held) == a.num_blocks
        a.free(held)
        got = a.alloc(4)
        assert sorted(got) == [0, 1, 2, 3]


class TestPagedKVCache:
    def _roundtrip(self, block_size, chunks):
        """Write ragged chunks through the paged layout and compare the
        gathered view with a plain concatenation."""
        rng = np.random.default_rng(0)
        kv = PagedKVCache(2, 2, 4, block_size=block_size, num_blocks=64)
        kv.add_sequence(7)
        ks, vs = [], []
        for n in chunks:
            k = rng.standard_normal((2, n, 4))
            v = rng.standard_normal((2, n, 4))
            kv.reserve(7, n)
            for layer in range(2):
                kv.write(7, layer, k, v)
            kv.advance(7, n)
            ks.append(k)
            vs.append(v)
        k_all, v_all = kv.gather(7, 0)
        np.testing.assert_array_equal(k_all, np.concatenate(ks, axis=1))
        np.testing.assert_array_equal(v_all, np.concatenate(vs, axis=1))

    def test_roundtrip_block_aligned(self):
        self._roundtrip(4, [4, 4, 8])

    def test_roundtrip_straddles_blocks(self):
        self._roundtrip(4, [3, 5, 1, 7, 2])

    def test_roundtrip_one_token_blocks(self):
        self._roundtrip(1, [1, 1, 3])

    def test_write_without_reserve_raises(self):
        kv = PagedKVCache(1, 2, 4, block_size=4, num_blocks=8)
        kv.add_sequence(0)
        with pytest.raises(CacheOutOfBlocks):
            kv.write(0, 0, np.zeros((2, 5, 4)), np.zeros((2, 5, 4)))

    def test_free_sequence_returns_blocks(self):
        kv = PagedKVCache(1, 2, 4, block_size=4, num_blocks=8)
        kv.add_sequence(0)
        kv.reserve(0, 13)  # 4 blocks
        assert kv.allocator.num_free == 4
        kv.free_sequence(0)
        assert kv.allocator.num_free == 8
        with pytest.raises(KeyError):
            kv.seq_len(0)

    def test_blocks_are_not_shared_between_sequences(self):
        kv = PagedKVCache(1, 1, 2, block_size=2, num_blocks=8)
        for s in (0, 1):
            kv.add_sequence(s)
            kv.reserve(s, 4)
        a = np.full((1, 4, 2), 1.0)
        b = np.full((1, 4, 2), 2.0)
        kv.write(0, 0, a, a)
        kv.write(1, 0, b, b)
        kv.advance(0, 4)
        kv.advance(1, 4)
        np.testing.assert_array_equal(kv.gather(0, 0)[0], a)
        np.testing.assert_array_equal(kv.gather(1, 0)[0], b)

    def test_pool_dtype_survives_write_and_gather(self):
        """Regression: an empty sequence gathered as float64 whatever
        the pool held."""
        kv = PagedKVCache(
            1, 2, 4, block_size=4, num_blocks=8, dtype=np.float32
        )
        kv.add_sequence(0)
        assert [a.dtype for a in kv.gather(0, 0)] == [np.float32] * 2
        assert [a.shape for a in kv.gather(0, 0)] == [(2, 0, 4)] * 2
        k = np.ones((2, 3, 4), dtype=np.float32)
        kv.reserve(0, 3)
        kv.write(0, 0, k, k)
        kv.advance(0, 3)
        assert [a.dtype for a in kv.gather(0, 0)] == [np.float32] * 2

    def test_copied_bytes_counts_writes_linearly(self):
        kv = PagedKVCache(1, 2, 4, block_size=8, num_blocks=64)
        kv.add_sequence(0)
        k = np.zeros((2, 1, 4))
        steps = 200
        kv.reserve(0, steps)
        for _ in range(steps):
            kv.write(0, 0, k, k)
            kv.advance(0, 1)
        # Exactly the bytes written, once each: no per-step re-copying.
        assert kv.copied_bytes == steps * 2 * k.nbytes


class TestContinuousBatcher:
    def _req(self, i, prompt_len=4, new=4, t=0.0):
        return Request(i, np.ones(prompt_len, dtype=np.int64), new, t)

    def test_fifo_within_capacity(self):
        b = ContinuousBatcher(BatchingConfig(max_batch=2, block_size=4,
                                             num_blocks=64))
        for i in range(4):
            b.enqueue(self._req(i))
        got = b.admit(0, 64)
        assert [r.request_id for r in got] == [0, 1]
        assert b.num_waiting == 2

    def test_head_of_line_blocking(self):
        cfgb = BatchingConfig(max_batch=4, block_size=4, num_blocks=16)
        b = ContinuousBatcher(cfgb)
        b.enqueue(self._req(0, prompt_len=40, new=20))  # 11 blocks (prompt+1)
        b.enqueue(self._req(1, prompt_len=4, new=4))    # 2 blocks
        got = b.admit(0, 10)  # head does not fit -> nothing admitted
        assert got == []
        got = b.admit(0, 12)  # 1 block left: the request behind waits
        assert [r.request_id for r in got] == [0]

    def test_optimistic_reservation_admits_more(self):
        """Optimistic admission reserves only prompt+1, so the same free
        pool admits the head *and* the request behind it."""
        cfgb = BatchingConfig(max_batch=4, block_size=4, num_blocks=16)
        b = ContinuousBatcher(cfgb)
        b.enqueue(self._req(0, prompt_len=40, new=20))  # 11 blocks optimistic
        b.enqueue(self._req(1, prompt_len=4, new=4))    # 2 blocks
        got = b.admit(0, 16)
        assert [r.request_id for r in got] == [0, 1]

    def test_never_fitting_request_rejected_at_enqueue(self):
        b = ContinuousBatcher(BatchingConfig(max_batch=4, block_size=4,
                                             num_blocks=4))
        rej = b.enqueue(self._req(0, prompt_len=30, new=30))
        assert rej is not None and rej.cause == "rejected"
        assert b.num_waiting == 0
        assert [r.cause for r in b.drain_rejections()] == ["rejected"]
        assert b.drain_rejections() == []  # drained

    def test_bounded_queue_sheds_overflow(self):
        b = ContinuousBatcher(BatchingConfig(max_batch=2, block_size=4,
                                             num_blocks=64, max_waiting=2))
        outcomes = [b.enqueue(self._req(i)) for i in range(4)]
        assert outcomes[0] is None and outcomes[1] is None
        assert [o.cause for o in outcomes[2:]] == ["shed", "shed"]
        assert b.num_waiting == 2

    def test_deadline_sweeps_whole_queue(self):
        """An expired head is shed without starving live requests behind
        it (the starvation bound of the deadline policy)."""
        b = ContinuousBatcher(BatchingConfig(max_batch=1, block_size=4,
                                             num_blocks=64, ttft_deadline=5.0))
        b.enqueue(self._req(0, t=0.0))
        b.enqueue(self._req(1, t=4.0))
        got = b.admit(1, 64, now=6.0)  # batch full: nothing admits...
        assert got == []
        assert [r.request.request_id for r in b.drain_rejections()] == [0]
        got = b.admit(0, 64, now=6.5)  # ...but request 1 is not starved
        assert [r.request_id for r in got] == [1]


class TestBatchedDecodeBitwise:
    def test_batched_rows_equal_single_sequence_decode(self):
        """(B, V) batched logits == each sequence's lone cached
        decode_step, bit for bit."""
        model = model_for(seed=3)
        rng = np.random.default_rng(2)
        prompts = [rng.integers(0, 64, n) for n in (3, 9, 14)]
        kv = PagedKVCache(2, 4, 8, block_size=4, num_blocks=64)
        for s, p in enumerate(prompts):
            kv.add_sequence(s)
            kv.reserve(s, len(p) + 2)
            _, cache = prefill(model, p[None, :])
            for layer, (k, v) in enumerate(zip(cache.keys, cache.values)):
                kv.write(s, layer, k[0], v[0])
            kv.advance(s, len(p))
        tok = rng.integers(0, 64, 3)
        batched = batched_decode_step(model, tok, kv, [0, 1, 2])
        for s, p in enumerate(prompts):
            _, cache = prefill(model, p[None, :])
            single = decode_step(model, tok[s : s + 1], cache)
            np.testing.assert_array_equal(batched[s], single[0])

    def test_shape_validation(self):
        model = model_for()
        kv = PagedKVCache(2, 4, 8, block_size=4, num_blocks=16)
        kv.add_sequence(0)
        with pytest.raises(ValueError):
            batched_decode_step(model, np.zeros((2,), dtype=int), kv, [0])

    def test_repeated_sequence_id_is_rejected_before_any_write(self):
        """Regression: ``[0, 0]`` returned logits and advanced the
        sequence twice for one written token."""
        model = model_for()
        kv = PagedKVCache(2, 4, 8, block_size=4, num_blocks=16)
        kv.add_sequence(0)
        kv.reserve(0, 2)
        table = list(kv._tables[0])
        pools = [pool.copy() for pool in kv._k + kv._v]
        with pytest.raises(ValueError, match=r"\[0\] appear more than once"):
            batched_decode_step(model, np.array([3, 3]), kv, [0, 0])
        assert kv.seq_len(0) == 0
        assert kv._tables[0] == table
        for pool, before in zip(kv._k + kv._v, pools):
            np.testing.assert_array_equal(pool, before)


class TestPagedPrefillEqualsLone:
    """The served prefill writes K/V straight into pages and attends
    over the gathered pages; the lone prefill reads a dense cache.  Same
    forward, same weights — what is pinned here is that the page layout
    attention reads does not move a bit."""

    @given(
        n=st.integers(1, 64),
        block_size=st.sampled_from([1, 4, 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_logits_and_every_layers_kv_are_bitwise_the_lone_prefill(
        self, n, block_size, seed
    ):
        model = model_for(seed=4)
        prompt = np.random.default_rng(seed).integers(0, 64, n)
        engine = ServingEngine(
            model, BatchingConfig(block_size=block_size, num_blocks=64)
        )
        engine.decoder.add_sequence(0, n)
        logits, cache = prefill(model, prompt[None, :])
        np.testing.assert_array_equal(
            engine.decoder.prefill(0, prompt), logits[0]
        )
        for layer, (k, v) in enumerate(zip(cache.keys, cache.values)):
            paged_k, paged_v = engine.kv.gather(0, layer)
            np.testing.assert_array_equal(paged_k, k[0])
            np.testing.assert_array_equal(paged_v, v[0])

    def test_serial_decoder_reads_the_models_own_arrays(self):
        """The one-shard views must be basic slices of the model's
        arrays, never ``permute_qkv_columns(W, 1, h)``: that is an equal
        but column-major *copy*, whose GEMM differs in the last bit —
        why TP ``gx = 1`` == serial is 1e-12 and served == lone is 0."""
        model = model_for()
        blocks, head = ServingEngine(model).decoder.shards
        assert len(head) == 1
        assert np.shares_memory(head[0], model.wte.weight.data)
        for blk, (shard,) in zip(model.blocks, blocks):
            for view, owner in zip(
                shard,
                (blk.attn.qkv.weight, blk.attn.qkv.bias, blk.attn.proj.weight,
                 blk.mlp.fc1.weight, blk.mlp.fc1.bias, blk.mlp.fc2.weight),
            ):
                assert view.shape == owner.data.shape
                assert view.strides == owner.data.strides
                assert np.shares_memory(view, owner.data)

    def test_kv_pool_takes_the_models_dtype(self):
        """A float32 model's K/V must not be upcast on write (nor its
        logits by the attention scale)."""
        model = model_for()
        for p in model.parameters():
            p.data = p.data.astype(np.float32)
        engine = ServingEngine(model, BatchingConfig(block_size=4))
        engine.decoder.add_sequence(0, 6)
        logits = engine.decoder.prefill(0, np.arange(6))
        assert logits.dtype == np.float32
        assert engine.kv.gather(0, 0)[0].dtype == np.float32
        np.testing.assert_array_equal(
            logits, prefill(model, np.arange(6)[None, :])[0][0]
        )


class TestEngineEquivalence:
    """Satellite 4: the property-based fuzz of the tentpole contract."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_continuous_batching_matches_sequential_greedy(self, seed):
        """Random ragged trace through the engine == per-request
        generate_greedy, token for token, for every request."""
        model = model_for(seed=seed)
        rng = np.random.default_rng(100 + seed)
        rate = float(rng.uniform(0.2, 5.0))
        reqs = poisson_trace(
            rate, 10, seed=seed, vocab_size=64,
            prompt_lens=(1, 12), max_new_tokens=(1, 10),
        )
        engine = ServingEngine(
            model,
            BatchingConfig(max_batch=int(rng.integers(2, 5)),
                           block_size=int(rng.integers(2, 9)),
                           num_blocks=96),
        )
        finished = engine.run(reqs)
        assert sorted(f.request.request_id for f in finished) == list(
            range(10)
        )
        for fin in finished:
            ref = generate_greedy(
                model, fin.request.prompt, fin.request.max_new_tokens
            )
            np.testing.assert_array_equal(fin.tokens, ref)

    def test_admission_order_does_not_change_tokens(self):
        """The same requests arriving in a different order (hence
        batching into different cohorts) still decode identically."""
        model = model_for(seed=9)
        rng = np.random.default_rng(7)
        prompts = [rng.integers(0, 64, n) for n in (2, 7, 11, 5, 3)]
        outs = {}
        for order_seed in (0, 1):
            order = np.random.default_rng(order_seed).permutation(5)
            reqs = [
                Request(int(i), prompts[i], 6, float(j))
                for j, i in enumerate(order)
            ]
            engine = ServingEngine(
                model, BatchingConfig(max_batch=2, block_size=4,
                                      num_blocks=64)
            )
            fins = engine.run(reqs)
            outs[order_seed] = {
                f.request.request_id: f.tokens for f in fins
            }
        for rid in range(5):
            np.testing.assert_array_equal(outs[0][rid], outs[1][rid])

    def test_all_blocks_returned_after_drain(self):
        model = model_for(seed=2)
        reqs = poisson_trace(1.0, 6, seed=0, vocab_size=64,
                             prompt_lens=(2, 8), max_new_tokens=(2, 8))
        engine = ServingEngine(
            model, BatchingConfig(max_batch=3, block_size=8, num_blocks=32)
        )
        engine.run(reqs)
        assert engine.kv.allocator.num_free == 32

    def test_eos_stops_early(self):
        model = model_for(seed=4)
        prompt = np.asarray([1, 2, 3])
        ref = generate_greedy(model, prompt, 8)
        eos = int(ref[2])
        stop = int(np.where(ref == eos)[0][0])  # first occurrence wins
        engine = ServingEngine(model, eos_id=eos)
        fins = engine.run([Request(0, prompt, 8, 0.0)])
        assert fins[0].num_tokens == stop + 1
        np.testing.assert_array_equal(fins[0].tokens, ref[: stop + 1])

    def test_oversized_request_rejected(self):
        """Over-context requests end as typed rejections, not exceptions
        (one poison request must not kill the serving loop)."""
        model = model_for(seq=16)
        engine = ServingEngine(model)
        rej = engine.submit(Request(0, np.ones(10, dtype=np.int64), 10, 0.0))
        assert rej is not None and rej.cause == "rejected"
        fins = engine.run([
            Request(1, np.ones(20, dtype=np.int64), 10, 0.0),  # poison
            Request(2, np.asarray([1, 2, 3]), 4, 0.0),
        ])
        assert [f.request.request_id for f in fins] == [2]
        assert [r.request.request_id for r in engine.rejected] == [0, 1]
        assert all(r.cause == "rejected" for r in engine.rejected)

    def test_latency_metadata_and_telemetry(self):
        model = model_for(seed=1)
        reqs = poisson_trace(2.0, 5, seed=3, vocab_size=64,
                             prompt_lens=(2, 6), max_new_tokens=(2, 6))
        tracer = Tracer()
        with telemetry_scope(tracer):
            engine = ServingEngine(model)
            fins = engine.run(reqs)
        for f in fins:
            assert f.e2e_latency >= f.ttft >= 0.0
            assert f.finish_step >= f.first_token_step == f.admitted_step
        m = tracer.metrics
        assert m.value("serve.requests") == 5
        assert m.value("serve.finished") == 5
        assert m.value("serve.decode_tokens") == sum(
            f.num_tokens - 1 for f in fins
        )
        assert m.value("serve.prefill_tokens") == sum(
            f.request.prompt_len for f in fins
        )


class TestTensorParallelDecoder:
    def test_tp_tokens_match_serial_greedy(self):
        model = model_for(seed=7)
        from repro.core import Grid4D, GridConfig

        dec = TensorParallelDecoder(model, Grid4D(GridConfig(2, 1, 1, 1)),
                                    block_size=8, num_blocks=64)
        prompt = np.random.default_rng(5).integers(0, 64, 6)
        np.testing.assert_array_equal(
            dec.generate_greedy(prompt, 8),
            generate_greedy(model, prompt, 8),
        )

    def test_tp_logits_match_serial_to_rounding(self):
        """Ring partial-sum order differs from the serial GEMM's, so TP
        logits agree to 1e-12, not bitwise (same bound the training-side
        parallel==serial tests use)."""
        model = model_for(seed=7)
        from repro.core import Grid4D, GridConfig

        dec = TensorParallelDecoder(model, Grid4D(GridConfig(4, 1, 1, 1)),
                                    block_size=8, num_blocks=64)
        prompt = np.random.default_rng(6).integers(0, 64, 9)
        serial, _ = prefill(model, prompt[None, :])
        dec.add_sequence(0, len(prompt) + 1)
        tp = dec.prefill(0, prompt)
        np.testing.assert_allclose(tp, serial[0], rtol=1e-12, atol=1e-12)

    def test_tp_batched_step_bitwise_equals_tp_single(self):
        """Within the TP path, batching is bitwise-free, exactly as in
        the serial engine."""
        model = model_for(seed=8)
        from repro.core import Grid4D, GridConfig

        rng = np.random.default_rng(3)
        p1, p2 = rng.integers(0, 64, 5), rng.integers(0, 64, 11)

        def make():
            return TensorParallelDecoder(
                model, Grid4D(GridConfig(2, 1, 1, 1)),
                block_size=8, num_blocks=64,
            )

        both = make()
        both.add_sequence(0, 16)
        both.add_sequence(1, 16)
        both.prefill(0, p1)
        both.prefill(1, p2)
        batched = both.decode_step(np.asarray([3, 7]), [0, 1])
        for sid, prompt, tok in ((0, p1, 3), (1, p2, 7)):
            lone = make()
            lone.add_sequence(0, 16)
            lone.prefill(0, prompt)
            single = lone.decode_step(np.asarray([tok]), [0])
            np.testing.assert_array_equal(batched[sid], single[0])

    def test_hierarchical_routing_matches_flat(self):
        """Tokens survive the two-level collective path untouched."""
        from repro.cluster import FRONTIER, Placement
        from repro.core import Grid4D, GridConfig

        model = model_for(seed=7)
        grid = Grid4D(
            GridConfig(4, 1, 1, 1, collective_algo="hierarchical"),
            placement=Placement(FRONTIER, 4),
        )
        dec = TensorParallelDecoder(model, grid, block_size=8,
                                    num_blocks=64)
        prompt = np.random.default_rng(5).integers(0, 64, 6)
        np.testing.assert_array_equal(
            dec.generate_greedy(prompt, 8),
            generate_greedy(model, prompt, 8),
        )

    def test_divisibility_validation(self):
        from repro.core import Grid4D, GridConfig

        model = model_for(heads=4, vocab=64)
        with pytest.raises(ValueError):
            TensorParallelDecoder(model, Grid4D(GridConfig(3, 1, 1, 1)))
