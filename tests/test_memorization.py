"""Tests for the memorization laboratory (Sections VIII-B/C/D)."""

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.memorization import (
    BucketDesign,
    ExperimentConfig,
    SyntheticCorpus,
    evaluate_buckets,
    exact_match_rate,
    goldfish_mask,
    pretrain,
    run_experiment,
    scale_ladder,
)
from repro.core import Grid4D, GridConfig, ParallelGPT
from repro.memorization import trainer as trainer_module
from repro.nn import GPT
from tests.oracles import memorization as oracle
from tests.oracles.generation import greedy_continuation


class TestCorpus:
    def test_documents_deterministic(self):
        c = SyntheticCorpus(128, 32, seed=5)
        a = c.document(7)
        b = c.document(7)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        assert a.doc_id == 7

    def test_documents_distinct(self):
        c = SyntheticCorpus(128, 32, seed=0)
        docs = c.documents(0, 20)
        for i in range(len(docs)):
            for j in range(i + 1, len(docs)):
                assert not np.array_equal(docs[i].tokens, docs[j].tokens)

    def test_tokens_in_vocab(self):
        c = SyntheticCorpus(64, 40, seed=1)
        t = c.document(3).tokens
        assert t.min() >= 0 and t.max() < 64
        assert len(t) == 40

    def test_bigram_structure_learnable(self):
        """Consecutive tokens must follow the shared successor table."""
        c = SyntheticCorpus(128, 64, seed=2)
        t = c.document(0).tokens
        for i in range(len(t) - 1):
            assert t[i + 1] in c._successors[t[i]]

    def test_background_disjoint_from_buckets(self):
        c = SyntheticCorpus(128, 32, seed=0)
        rng = np.random.default_rng(0)
        bg = c.background_batch(4, rng)
        assert bg.shape == (4, 32)
        docs = {tuple(d.tokens) for d in c.documents(0, 32)}
        for row in bg:
            assert tuple(row) not in docs

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(4, 32, branching=8)
        with pytest.raises(ValueError):
            SyntheticCorpus(128, 4)
        with pytest.raises(ValueError):
            SyntheticCorpus(128, 32).document(-1)


class TestBuckets:
    def test_four_disjoint_buckets(self):
        design = BucketDesign(SyntheticCorpus(128, 32), docs_per_bucket=5)
        assert len(design.buckets) == 4
        assert design.no_overlap()
        assert [b.epochs for b in design.buckets] == [1, 4, 6, 0]

    def test_control_bucket(self):
        design = BucketDesign(SyntheticCorpus(128, 32), docs_per_bucket=3)
        control = [b for b in design.buckets if b not in design.trained_buckets()]
        assert [b.epochs for b in control] == [0]
        assert len(design.trained_buckets()) == 3

    def test_injection_stream_counts(self):
        """Each trained document appears exactly `epochs` times."""
        design = BucketDesign(SyntheticCorpus(128, 32), docs_per_bucket=4)
        stream = design.injection_stream(seed=0)
        assert len(stream) == 4 * (1 + 4 + 6)
        for bucket in design.trained_buckets():
            for doc in bucket.documents:
                hits = sum(
                    np.array_equal(row, doc.tokens) for row in stream
                )
                assert hits == bucket.epochs
        # Control docs never appear.
        control = next(b for b in design.buckets if b.epochs == 0)
        for doc in control.documents:
            assert not any(np.array_equal(r, doc.tokens) for r in stream)

    def test_stream_shuffle_deterministic(self):
        design = BucketDesign(SyntheticCorpus(128, 32), docs_per_bucket=4)
        np.testing.assert_array_equal(
            design.injection_stream(seed=1), design.injection_stream(seed=1)
        )
        assert not np.array_equal(
            design.injection_stream(seed=1), design.injection_stream(seed=2)
        )

    def test_requires_control(self):
        with pytest.raises(ValueError):
            BucketDesign(
                SyntheticCorpus(128, 32), 4, epochs_schedule=(1, 4, 6)
            )


class TestGoldfishMask:
    def test_drop_rate_about_one_in_k(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 1000, (8, 256))
        mask = goldfish_mask(ids, k=2, h=13)
        dropped = 1.0 - mask[:, 13:].mean()
        assert 0.4 < dropped < 0.6

    def test_k4_drops_quarter(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 1000, (8, 256))
        mask = goldfish_mask(ids, k=4, h=13)
        dropped = 1.0 - mask[:, 13:].mean()
        assert 0.15 < dropped < 0.35

    def test_first_h_tokens_kept(self):
        ids = np.random.default_rng(2).integers(0, 50, (3, 40))
        mask = goldfish_mask(ids, h=13)
        assert (mask[:, :13] == 1.0).all()

    def test_same_passage_same_mask(self):
        """The defining property: a repeated passage always drops the
        same tokens, so repetition can never reveal them."""
        doc = np.random.default_rng(3).integers(0, 500, 64)
        m1 = goldfish_mask(doc[None, :])
        m2 = goldfish_mask(np.stack([doc, doc]))
        np.testing.assert_array_equal(m1[0], m2[0])
        np.testing.assert_array_equal(m2[0], m2[1])

    def test_different_passages_different_masks(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 500, (1, 128))
        b = rng.integers(0, 500, (1, 128))
        assert not np.array_equal(goldfish_mask(a), goldfish_mask(b))

    def test_context_locality(self):
        """The mask at a position depends only on the h preceding
        tokens: changing a token far *after* position t leaves the mask
        at t unchanged."""
        rng = np.random.default_rng(5)
        a = rng.integers(0, 500, (1, 64))
        b = a.copy()
        b[0, 50] = (b[0, 50] + 1) % 500
        ma, mb = goldfish_mask(a), goldfish_mask(b)
        np.testing.assert_array_equal(ma[0, :50], mb[0, :50])

    def test_validation(self):
        ids = np.zeros((2, 8), dtype=int)
        with pytest.raises(ValueError):
            goldfish_mask(ids, k=1)
        with pytest.raises(ValueError):
            goldfish_mask(ids, h=0)
        with pytest.raises(ValueError):
            goldfish_mask(np.zeros(8, dtype=int))


def tiny_model(width=32, seq=32, vocab=128, layers=2, heads=4, name="m"):
    return GPT(
        GPTConfig(
            name=name, num_layers=layers, hidden_size=width,
            num_heads=heads, seq_len=seq, vocab_size=vocab,
        ),
        seed=0,
    )


class TestEvaluate:
    def test_greedy_continuation_deterministic(self):
        model = tiny_model()
        prefix = np.arange(10)
        a = greedy_continuation(model, prefix, 5)
        b = greedy_continuation(model, prefix, 5)
        np.testing.assert_array_equal(a, b)
        assert len(a) == 5

    def test_untrained_model_matches_nothing(self):
        model = tiny_model()
        corpus = SyntheticCorpus(128, 32, seed=0)
        docs = np.stack([corpus.document(i).tokens for i in range(6)])
        assert exact_match_rate(model, docs, suffix_len=8) == 0.0

    def test_overfit_model_matches_everything(self):
        """A model trained to death on two documents reproduces them."""
        from repro.nn import AdamW

        model = tiny_model(width=64)
        corpus = SyntheticCorpus(128, 32, seed=0, branching=4)
        docs = np.stack([corpus.document(i).tokens for i in range(2)])
        opt = AdamW(model.parameters(), lr=1e-2)
        for _ in range(60):
            loss = model.loss(docs)
            model.zero_grad()
            loss.backward()
            opt.step()
        assert exact_match_rate(model, docs, suffix_len=8) == 1.0

    def test_suffix_validation(self):
        model = tiny_model()
        docs = np.zeros((2, 16), dtype=int)
        with pytest.raises(ValueError):
            exact_match_rate(model, docs, suffix_len=16)
        with pytest.raises(ValueError):
            exact_match_rate(model, docs, suffix_len=0)
        too_long = np.zeros((2, model.cfg.seq_len + 1), dtype=int)
        with pytest.raises(ValueError, match="exceed the model's context"):
            exact_match_rate(model, too_long, suffix_len=8)

    def test_evaluate_buckets_keys(self):
        model = tiny_model()
        design = BucketDesign(
            SyntheticCorpus(128, 32, seed=0), docs_per_bucket=2
        )
        rates = evaluate_buckets(model, design.buckets, suffix_len=8)
        assert set(rates) == {0, 1, 4, 6}
        assert all(0.0 <= v <= 1.0 for v in rates.values())


class TestScaleLadder:
    def test_monotone_capacity(self):
        ladder = scale_ladder()
        params = [c.num_parameters() for c in ladder]
        assert params == sorted(params)
        assert len(ladder) == 4

    def test_configs_are_valid(self):
        for cfg in scale_ladder():
            assert cfg.hidden_size % cfg.num_heads == 0


class TestExperiment:
    def test_seq_len_validation(self):
        cfg = GPTConfig(
            name="short", num_layers=1, hidden_size=16, num_heads=2,
            seq_len=16, vocab_size=128,
        )
        with pytest.raises(ValueError):
            run_experiment(cfg, ExperimentConfig(doc_len=32))

    def test_pretrained_config_mismatch(self):
        cfgs = scale_ladder()
        other = GPT(cfgs[1], seed=0)
        with pytest.raises(ValueError):
            run_experiment(cfgs[0], ExperimentConfig(), pretrained=other)

    def test_pretrain_reduces_loss(self):
        model = tiny_model(width=32)
        corpus = SyntheticCorpus(128, 32, seed=0, branching=4)
        losses = pretrain(model, corpus, steps=40, batch_size=8, lr=3e-3)
        assert losses[-1] < losses[0] * 0.8

    def test_experiment_structure_and_determinism(self):
        exp = ExperimentConfig(
            docs_per_bucket=2, pretrain_steps=20, warmup_steps=2, seed=7
        )
        cfg = scale_ladder()[0]
        a = run_experiment(cfg, exp)
        b = run_experiment(cfg, exp)
        assert a.exact_match == b.exact_match
        assert set(a.exact_match) == {0, 1, 4, 6}
        assert a.model_name == cfg.name
        assert not a.goldfish
        # 2 warmup steps + ceil(2 docs x (1+4+6) epochs / batch 2) = 13.
        assert len(a.losses) == 13

    @pytest.mark.slow
    def test_memorization_emerges_and_goldfish_suppresses(self):
        """The Figs. 10-11 claims at test scale: (a) repetition increases
        memorization; (b) larger capacity memorizes more; (c) the control
        bucket stays at zero; (d) Goldfish pushes memorization back to
        control levels."""
        exp = ExperimentConfig()
        tiny, small = scale_ladder()[0], scale_ladder()[1]
        r_tiny = run_experiment(tiny, exp)
        r_small = run_experiment(small, exp)
        # (a) more epochs -> no less memorization, and 6-epoch is positive
        # for the bigger model.
        assert r_small.exact_match[6] >= r_small.exact_match[1]
        assert r_small.exact_match[6] > 0
        # (b) capacity helps at 6 epochs.
        assert r_small.exact_match[6] >= r_tiny.exact_match[6]
        # (c) control stays zero.
        assert r_tiny.exact_match[0] == 0.0
        assert r_small.exact_match[0] == 0.0
        # (d) goldfish suppresses to control level.
        g_small = run_experiment(small, exp, goldfish=True)
        assert g_small.exact_match[6] <= max(
            g_small.exact_match[0], r_small.exact_match[6] / 2
        )


class TestParallelHarness:
    def test_experiment_through_parallel_model_matches_serial(self):
        """The paper runs this study through AxoNN-parallelized models
        (8-way Z-tensor parallelism); our 4D model must produce the
        exact same memorization outcomes as the serial run."""
        from repro.core import Grid4D, GridConfig

        exp = ExperimentConfig(
            docs_per_bucket=2, pretrain_steps=30, warmup_steps=2, seed=11
        )
        cfg = scale_ladder()[0]
        serial = run_experiment(cfg, exp)
        parallel = run_experiment(
            cfg, exp, grid=Grid4D(GridConfig(1, 1, 2, 1))
        )
        assert parallel.exact_match == serial.exact_match
        np.testing.assert_allclose(
            parallel.losses, serial.losses, rtol=1e-8
        )

    def test_parallel_goldfish_arm(self):
        from repro.core import Grid4D, GridConfig

        exp = ExperimentConfig(
            docs_per_bucket=2, pretrain_steps=20, warmup_steps=2, seed=12
        )
        cfg = scale_ladder()[0]
        r = run_experiment(
            cfg, exp, goldfish=True, grid=Grid4D(GridConfig(2, 1, 1, 1))
        )
        assert set(r.exact_match) == {0, 1, 4, 6}


def _state_bytes(model) -> dict[str, bytes]:
    if isinstance(model, ParallelGPT):
        model = model.gather_state_to_serial()
    return {k: v.tobytes() for k, v in model.state_dict().items()}


@pytest.mark.parametrize("goldfish", [False, True], ids=["standard", "goldfish"])
@pytest.mark.parametrize("grid", [None, (2, 1, 2, 1)], ids=["serial", "grid"])
class TestOneTrainingStep:
    """``pretrain`` and ``run_experiment`` step through
    ``MixedPrecisionTrainer``: losses (as ``float.hex``) and parameters
    (as bytes) equal the hand-written loops they replaced."""

    CFG = GPTConfig(
        name="step", num_layers=2, hidden_size=16, num_heads=4,
        seq_len=16, vocab_size=32,
    )
    EXP = ExperimentConfig(
        vocab_size=32, doc_len=16, suffix_len=4, docs_per_bucket=2,
        epochs_schedule=(1, 2, 0), batch_size=4, warmup_steps=3,
    )

    def _model(self, grid, seed=0):
        model = GPT(self.CFG, seed=seed)
        if grid is None:
            return model
        return ParallelGPT.from_serial(model, Grid4D(GridConfig(*grid)))

    def test_pretrain(self, grid, goldfish):
        def run(train):
            model = self._model(grid)
            corpus = SyntheticCorpus(32, 16, seed=0)
            losses = train(model, corpus, 8, 4, seed=1, goldfish=goldfish)
            return [x.hex() for x in losses], _state_bytes(model)

        assert run(pretrain) == run(oracle.pretrain)

    def test_run_experiment(self, grid, goldfish, monkeypatch):
        exp = self.EXP
        evaluated = []
        monkeypatch.setattr(
            trainer_module, "evaluate_buckets",
            lambda model, buckets, n: evaluated.append(_state_bytes(model)) or {},
        )
        got = run_experiment(
            self.CFG, exp, goldfish=goldfish, pretrained=GPT(self.CFG, seed=5),
            grid=None if grid is None else Grid4D(GridConfig(*grid)),
        )

        corpus = SyntheticCorpus(
            exp.vocab_size, exp.doc_len, seed=exp.seed, branching=exp.branching
        )
        stream = BucketDesign(
            corpus, exp.docs_per_bucket, exp.epochs_schedule
        ).injection_stream(seed=exp.seed + 3)
        model = self._model(grid, seed=5)
        want = oracle.continued_pretraining(model, corpus, stream, exp, goldfish)
        assert [x.hex() for x in got.losses] == [x.hex() for x in want]
        assert evaluated == [_state_bytes(model)]
