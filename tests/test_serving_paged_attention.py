"""The paged attention rewrite against the path it replaced.

DESIGN.md "Kernel rewrite contract": the pre-rewrite read/write path is
kept here, verbatim, as the oracle — a block-major pool written block by
block, a ``gather`` that fancy-indexes, ``moveaxis``es and reshape-copies,
and a per-sequence loop around a single-``past`` attention with
``np.where`` and a full ``exp``.  The token-major pool, the one scatter
per layer and the ragged batched attention must reproduce it bit for bit
(``assert_array_equal``): attention output, model logits, and every
layer's gathered keys/values.  Decode steps (``S_new == 1``) still do;
a forward with ``S_new >= 2`` now runs the prefill attention in query
tiles, so there the oracle is tolerance-class (``PREFILL_ULPS`` /
``LOGIT_ULPS``) and batch invariance is pinned bitwise in
``tests/test_serving_batch_invariance.py``.

The second half pins what the new layout and batching promise on their
own: batched writes across block edges over non-monotone slot arrays,
all-or-nothing failure, idempotent re-runs, and a memory bound on the
lazy per-row gather.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig
from repro.core.grid import Grid4D, GridConfig
from repro.nn.generation import (
    _attention_with_cache,
    _forward_cached,
    _shard_weights,
)
from repro.nn.transformer import GPT
from repro.runtime import (
    CommTimeoutError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    fault_scope,
)
from repro.serving import (
    BatchingConfig,
    BlockAllocator,
    CacheOutOfBlocks,
    PagedKVCache,
    ServingEngine,
    TensorParallelDecoder,
)
from tests.oracles.generation import assert_prefill_close

# -- the oracle: the pre-rewrite path, verbatim -------------------------------


class _BlockMajorKV:
    """The pre-rewrite ``PagedKVCache``: (num_blocks, heads, block_size,
    head_dim) pools, ``write`` walking the blocks a chunk at a time and
    ``gather`` paying a fancy index, a ``moveaxis`` and a reshape copy."""

    def __init__(self, num_layers, num_heads, head_dim, *, block_size, num_blocks):
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.allocator = BlockAllocator(num_blocks)
        shape = (num_blocks, num_heads, block_size, head_dim)
        self._k = [np.zeros(shape) for _ in range(num_layers)]
        self._v = [np.zeros(shape) for _ in range(num_layers)]
        self._tables = {}
        self._lens = {}

    def blocks_for(self, tokens):
        return -(-tokens // self.block_size)

    def add_sequence(self, seq_id):
        self._tables[seq_id] = []
        self._lens[seq_id] = 0

    def reserve(self, seq_id, num_new):
        table = self._tables[seq_id]
        need = self.blocks_for(self._lens[seq_id] + num_new) - len(table)
        if need > 0:
            table.extend(self.allocator.alloc(need))

    def write(self, seq_id, layer, k, v):
        nh, s_new, hd = k.shape
        table = self._tables[seq_id]
        start = self._lens[seq_id]
        pool_k, pool_v = self._k[layer], self._v[layer]
        bs = self.block_size
        written = 0
        while written < s_new:
            pos = start + written
            block = table[pos // bs]
            off = pos % bs
            take = min(bs - off, s_new - written)
            src = slice(written, written + take)
            pool_k[block, :, off : off + take] = k[:, src]
            pool_v[block, :, off : off + take] = v[:, src]
            written += take

    def advance(self, seq_id, num_new):
        self._lens[seq_id] += num_new

    def gather(self, seq_id, layer, include_uncommitted=0):
        table = self._tables[seq_id]
        n = self._lens[seq_id] + include_uncommitted
        if n == 0:
            empty = np.empty((self.num_heads, 0, self.head_dim))
            return empty, empty
        idx = np.asarray(table[: self.blocks_for(n)])
        k = np.moveaxis(self._k[layer][idx], 0, 1).reshape(
            self.num_heads, -1, self.head_dim
        )[:, :n]
        v = np.moveaxis(self._v[layer][idx], 0, 1).reshape(
            self.num_heads, -1, self.head_dim
        )[:, :n]
        return k, v


def _attention_one_past(q, k_all, v_all, past):
    """The pre-rewrite ``_attention_with_cache``: one ``past`` for the
    whole (B, nh, S_new, hd) batch, ``np.where`` fill, ``exp`` of every
    entry, GEMMs over the whole batch."""
    hd = q.shape[-1]
    scores = q @ np.swapaxes(k_all, -1, -2) / float(np.sqrt(hd))
    s_new = q.shape[2]
    total = k_all.shape[2]
    mask = np.arange(total)[None, :] <= (past + np.arange(s_new))[:, None]
    scores = np.where(mask[None, None], scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    att = e / e.sum(axis=-1, keepdims=True)
    out = att @ v_all
    b, nh, s, hd = out.shape
    return out.transpose(0, 2, 1, 3).reshape(b, s, nh * hd)


def _per_sequence_attend(kv, seq_ids, pasts, s_new):
    """The pre-rewrite ``attend`` closure of ``PagedDecoder._forward``:
    per sequence, write -> gather -> a whole attention."""

    def attend(shard, layer, qh, kh, vh):
        rows = []
        for j, s in enumerate(seq_ids):
            kv.write(s, layer, kh[j], vh[j])
            k_all, v_all = kv.gather(s, layer, include_uncommitted=s_new)
            rows.append(
                _attention_one_past(
                    qh[j : j + 1], k_all[None], v_all[None], pasts[j]
                )
            )
        return np.concatenate(rows, axis=0)

    return attend


def _hand_over_kv(new, old, seq_id, num_layers):
    """Overwrite the oracle pool's committed K/V of ``seq_id`` with the
    paged cache's, layer by layer."""
    n = old._lens[seq_id]
    old._lens[seq_id] = 0  # ``write`` appends at the committed length
    for layer in range(num_layers):
        old.write(seq_id, layer, *new.gather(seq_id, layer))
    old._lens[seq_id] = n


#: The tolerance class of a tiny model's logits and K/V after a forward
#: with ``S_new >= 2``, in ulp of the largest magnitude: the tiled
#: attention's few-ulp differences carried through two layers.  Measured
#: over 400 draws of the strategy below: 5.25 at worst.
LOGIT_ULPS = 32


# -- fixtures -----------------------------------------------------------------

#: A batch's cached lengths: all different, some equal, one zero, and
#: lengths on and either side of a block edge all turn up.
PASTS = st.lists(st.integers(0, 40), min_size=1, max_size=6)
RAGGED = dict(
    pasts=PASTS,
    s_new=st.sampled_from([1, 2, 7]),
    block_size=st.sampled_from([1, 4, 16]),
    heads=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
EDGE_CASES = [
    dict(pasts=[3, 17, 9, 40, 1, 26], s_new=1, block_size=4, heads=2, seed=0),
    dict(pasts=[5, 5, 12, 5], s_new=2, block_size=4, heads=3, seed=1),
    dict(pasts=[0, 15, 16, 17], s_new=7, block_size=16, heads=4, seed=2),
    dict(pasts=[0], s_new=1, block_size=1, heads=1, seed=3),
]


def _with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(**case)(test)
    return test


def _reserve_interleaved(caches, pasts, s_new, block_size):
    """Track one sequence per row in every cache, handing out capacity a
    block at a time round-robin so that no table is a contiguous run."""
    seq_ids = list(range(len(pasts)))
    for kv in caches:
        for s in seq_ids:
            kv.add_sequence(s)
    need = [past + s_new for past in pasts]
    for upto in range(block_size, max(need) + block_size, block_size):
        for kv in caches:
            for s in reversed(seq_ids):
                if upto - block_size < need[s]:
                    kv.reserve(s, min(upto, need[s]))
    return seq_ids


def tiny_model(heads, seed):
    return GPT(
        GPTConfig(
            name="paged-oracle", num_layers=2, hidden_size=4 * heads,
            num_heads=heads, seq_len=64, vocab_size=32,
        ),
        seed=seed,
    )


# -- rewrite == oracle --------------------------------------------------------


class TestRaggedAttentionEqualsPerSequenceLoop:
    @_with_edge_cases
    @given(**RAGGED)
    @settings(max_examples=80, deadline=None)
    def test_attention_output_and_gathered_kv(
        self, pasts, s_new, block_size, heads, seed
    ):
        rng = np.random.default_rng(seed)
        hd, blocks = 8, 4 * len(pasts) * (-(-47 // block_size))
        new = PagedKVCache(1, heads, hd, block_size=block_size, num_blocks=blocks)
        old = _BlockMajorKV(1, heads, hd, block_size=block_size, num_blocks=blocks)
        seq_ids = _reserve_interleaved([new, old], pasts, s_new, block_size)
        for s, past in zip(seq_ids, pasts):
            k, v = rng.standard_normal((2, heads, past, hd))
            for kv in (new, old):
                kv.write(s, 0, k, v)
                kv.advance(s, past)
        q, k, v = rng.standard_normal((3, len(pasts), heads, s_new, hd))

        new.write_rows(seq_ids, 0, k, v)
        keys, values = new.gather_rows(seq_ids, 0, s_new)
        got = _attention_with_cache(q, keys, values, pasts)
        want = _per_sequence_attend(old, seq_ids, pasts, s_new)(0, 0, q, k, v)

        if s_new == 1:
            np.testing.assert_array_equal(got, want)
        else:
            row_keys = [old.gather(s, 0, s_new)[0] for s in seq_ids]
            assert_prefill_close(got, want, q, row_keys)
        for s in seq_ids:
            keys, values = new.gather_rows([s], 0, s_new)
            for ours, theirs in zip(
                (next(keys), next(values)), old.gather(s, 0, s_new)
            ):
                np.testing.assert_array_equal(ours, theirs)

    @_with_edge_cases
    @given(**RAGGED)
    @settings(max_examples=40, deadline=None)
    def test_decoder_logits_and_every_layers_kv(
        self, pasts, s_new, block_size, heads, seed
    ):
        """A tiny model through ``PagedDecoder.prefill`` / ``decode_step``
        (and the (B, S_new) forward under both) == the same cached
        forward over the oracle's ``attend``.

        A step with ``S_new >= 2`` runs the tiled prefill attention, so
        its logits and every later layer's K/V are tolerance-class
        (:data:`LOGIT_ULPS`); each setup prefill then hands its K/V to
        the oracle's pool, so the step under test starts from one state
        and a decode step (``S_new == 1``) stays bitwise."""
        rng = np.random.default_rng(seed)
        model = tiny_model(heads, seed=seed % 7)
        cfg = model.cfg
        blocks = 4 * len(pasts) * (-(-47 // block_size))
        decoder = ServingEngine(
            model, BatchingConfig(block_size=block_size, num_blocks=blocks)
        ).decoder
        (new,) = decoder.kv
        old = _BlockMajorKV(
            cfg.num_layers, heads, cfg.head_dim,
            block_size=block_size, num_blocks=blocks,
        )
        seq_ids = _reserve_interleaved([new, old], pasts, s_new, block_size)
        shards = _shard_weights(model)

        def oracle(ids, rows):
            lens = [old._lens[s] for s in rows]
            logits = _forward_cached(
                model, shards, ids, lens,
                _per_sequence_attend(old, rows, lens, ids.shape[1]),
            )
            for s in rows:
                old.advance(s, ids.shape[1])
            return logits

        def assert_same(ours, theirs, bitwise):
            if bitwise:
                np.testing.assert_array_equal(ours, theirs)
            else:
                ulp = np.spacing(np.abs(theirs).max())
                assert np.abs(ours - theirs).max() <= LOGIT_ULPS * ulp

        for s, past in zip(seq_ids, pasts):
            if past:
                prompt = rng.integers(0, cfg.vocab_size, past)
                assert_same(
                    decoder.prefill(s, prompt),
                    oracle(prompt[None, :], [s])[0, -1],
                    bitwise=past == 1,
                )
                _hand_over_kv(new, old, s, cfg.num_layers)
        ids = rng.integers(0, cfg.vocab_size, (len(pasts), s_new))
        got = (
            decoder.decode_step(ids[:, 0], seq_ids)[:, None]
            if s_new == 1
            else decoder._forward(ids, seq_ids)
        )
        assert_same(got, oracle(ids, seq_ids), bitwise=s_new == 1)
        for s in seq_ids:
            assert new.seq_len(s) == old._lens[s] == pasts[s] + s_new
            for layer in range(cfg.num_layers):
                for ours, theirs in zip(new.gather(s, layer), old.gather(s, layer)):
                    # Layer 0's K/V come before any attention.
                    assert_same(ours, theirs, bitwise=s_new == 1 or layer == 0)


# -- what the layout and the batching promise ---------------------------------


def _scrambled_cache():
    """A one-layer (2 heads x 4) cache whose free list is out of order:
    alloc, free, realloc."""
    kv = PagedKVCache(1, 2, 4, block_size=4, num_blocks=24)
    for s in (100, 101, 102):
        kv.add_sequence(s)
        kv.reserve(s, 12)
    kv.free_sequence(100)
    kv.free_sequence(101)  # LIFO: blocks 3..5 now come back before 0..2
    return kv


class TestTokenMajorLayout:
    def test_batched_writes_round_trip_over_non_monotone_slots(self):
        """Rows written in one ``write_rows`` call, each straddling block
        edges, over blocks handed out non-contiguously."""
        rng = np.random.default_rng(0)
        kv = _scrambled_cache()
        seq_ids, chunks = [0, 1, 2], [3, 5, 1, 7, 2]
        for s in seq_ids:
            kv.add_sequence(s)
        want = {s: [] for s in seq_ids}
        for n in chunks:
            for s in reversed(seq_ids):
                kv.reserve(s, n)
            k, v = rng.standard_normal((2, len(seq_ids), 2, n, 4))
            kv.write_rows(seq_ids, 0, k, v)
            for j, s in enumerate(seq_ids):
                kv.advance(s, n)
                want[s].append((k[j], v[j]))
        assert any(np.any(np.diff(kv._slots[s]) < 0) for s in seq_ids)
        for s in seq_ids:
            got_k, got_v = kv.gather(s, 0)
            assert got_k.shape == (2, sum(chunks), 4)
            np.testing.assert_array_equal(
                got_k, np.concatenate([k for k, _ in want[s]], axis=1)
            )
            np.testing.assert_array_equal(
                got_v, np.concatenate([v for _, v in want[s]], axis=1)
            )

    def test_slots_follow_the_block_table(self):
        kv = _scrambled_cache()
        kv.add_sequence(0)
        kv.reserve(0, 9)
        kv.reserve(0, 9)  # already covered: no growth
        bs = kv.block_size
        want = [b * bs + i for b in kv._tables[0] for i in range(bs)]
        assert kv._slots[0].tolist() == want
        kv.free_sequence(0)
        assert 0 not in kv._slots

    def test_out_of_blocks_in_a_late_row_moves_no_bytes(self):
        """All-or-nothing: row 2 lacks capacity, so rows 0 and 1 — whose
        reservations are fine — must not be written either."""
        kv = PagedKVCache(1, 2, 4, block_size=4, num_blocks=8)
        for s, reserved in enumerate((4, 4, 0)):
            kv.add_sequence(s)
            kv.reserve(s, reserved)
        before = (kv._k[0].copy(), kv._v[0].copy(), kv.copied_bytes)
        ones = np.ones((3, 2, 1, 4))
        with pytest.raises(CacheOutOfBlocks, match="sequence 2"):
            kv.write_rows([0, 1, 2], 0, ones, ones)
        np.testing.assert_array_equal(kv._k[0], before[0])
        np.testing.assert_array_equal(kv._v[0], before[1])
        assert kv.copied_bytes == before[2]

    def test_forward_that_raises_mid_layer_reruns_to_the_same_logits(self):
        """K/V land at uncommitted offsets: a forward cut short by a
        ``CommTimeoutError`` in layer 1 commits nothing and the re-run
        equals a decoder that never failed."""
        model = tiny_model(heads=4, seed=5)
        rng = np.random.default_rng(1)
        prompts = [rng.integers(0, 32, n) for n in (3, 9, 6)]
        tokens, seq_ids = rng.integers(0, 32, 3), [0, 1, 2]

        def decoder():
            dec = TensorParallelDecoder(
                model, Grid4D(GridConfig(2, 1, 1, 1)), block_size=4, num_blocks=32
            )
            for s, p in zip(seq_ids, prompts):
                dec.add_sequence(s, len(p) + 1)
                dec.prefill(s, p)
            return dec

        clean, flaky = decoder(), decoder()
        # The third all-reduce awaited is layer 1's attention projection:
        # layer 0 and half of layer 1 are already written.
        injector = FaultInjector(
            FaultPlan(
                faults=(
                    FaultSpec(
                        kind="delay_wait", op="all_reduce", match=2, delay=1e9
                    ),
                )
            ),
            retry=RetryPolicy(timeout=2.0, max_retries=2),
        )
        with fault_scope(injector):
            with pytest.raises(CommTimeoutError):
                flaky.decode_step(tokens, seq_ids)
            assert [flaky.kv[0].seq_len(s) for s in seq_ids] == [3, 9, 6]
            again = flaky.decode_step(tokens, seq_ids)
        np.testing.assert_array_equal(again, clean.decode_step(tokens, seq_ids))
        assert [flaky.kv[0].seq_len(s) for s in seq_ids] == [4, 10, 7]

    def test_decode_step_memory_does_not_scale_with_batch_times_context(self):
        """The paged decoder gathers a row just before its GEMM and drops
        it after.  Peak traced bytes of a B = 16 step near full context
        stay within the B = 1 step plus a few copies of the
        (B, heads, 1, S_max) scores — far below the (B, heads, S_max, hd)
        K/V batch a materialising gather would hold."""
        heads, hd, context, batch = 4, 16, 500, 16
        model = GPT(
            GPTConfig(
                name="paged-mem", num_layers=1, hidden_size=heads * hd,
                num_heads=heads, seq_len=512, vocab_size=32,
            ),
            seed=0,
        )
        rng = np.random.default_rng(0)
        decoder = ServingEngine(
            model, BatchingConfig(block_size=16, num_blocks=batch * 32)
        ).decoder
        (kv,) = decoder.kv
        for s in range(batch):
            decoder.add_sequence(s, context + 8)
            kv.write(s, 0, *rng.standard_normal((2, heads, context, hd)))
            kv.advance(s, context)

        def peak_of_step(seq_ids):
            tokens = np.zeros(len(seq_ids), dtype=np.int64)
            decoder.decode_step(tokens, seq_ids)  # warm: slots, caches
            tracemalloc.start()
            try:
                decoder.decode_step(tokens, seq_ids)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        itemsize = kv._k[0].itemsize
        one, many = peak_of_step([0]), peak_of_step(list(range(batch)))
        scores = batch * heads * (context + 4) * itemsize
        kv_batch = 2 * batch * heads * (context + 4) * hd * itemsize
        slack = 5 * scores + 64 * 1024
        assert kv_batch > 4 * slack  # the bound can tell the two apart
        assert many <= one + slack, (one, many, scores, kv_batch)
