"""Tests for the nn library: layers, GPT reference model, optimizers."""

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.nn import (
    GPT,
    AdamW,
    CosineSchedule,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    WarmupDecaySchedule,
    causal_attention,
    clip_grad_norm,
)
from repro.tensor import Tensor
from tests.oracles.optim import SGD


def tiny_config(**kw) -> GPTConfig:
    defaults = dict(
        name="tiny",
        num_layers=2,
        hidden_size=16,
        num_heads=4,
        seq_len=12,
        vocab_size=29,
    )
    defaults.update(kw)
    return GPTConfig(**defaults)


class TestModuleSystem:
    def test_named_parameters_walk(self):
        class Net(Module):
            def __init__(self):
                self.fc = Linear(3, 4, rng=np.random.default_rng(0))
                self.layers = [LayerNorm(4), LayerNorm(4)]

        net = Net()
        names = {n for n, _ in net.named_parameters()}
        assert names == {
            "fc.weight", "fc.bias",
            "layers.0.weight", "layers.0.bias",
            "layers.1.weight", "layers.1.bias",
        }

    def test_num_parameters(self):
        fc = Linear(3, 4, rng=np.random.default_rng(0))
        assert fc.num_parameters() == 3 * 4 + 4

    def test_zero_grad(self):
        fc = Linear(2, 2, rng=np.random.default_rng(0))
        out = fc(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert fc.weight.grad is not None
        fc.zero_grad()
        assert fc.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = Linear(3, 3, rng=np.random.default_rng(0))
        b = Linear(3, 3, rng=np.random.default_rng(1))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_state_dict_strictness(self):
        a = Linear(3, 3, rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((3, 3))})  # missing bias

    def test_state_dict_shape_check(self):
        a = Linear(3, 3, rng=np.random.default_rng(0))
        sd = a.state_dict()
        sd["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            a.load_state_dict(sd)

    def test_parameter_requires_grad_always(self):
        from repro.tensor import no_grad

        with no_grad():
            p = Parameter(np.ones(3))
        assert p.requires_grad


class TestLayers:
    def test_linear_forward(self):
        fc = Linear(3, 2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 3))
        out = fc(Tensor(x))
        np.testing.assert_allclose(
            out.data, x @ fc.weight.data + fc.bias.data, rtol=1e-12
        )

    def test_linear_no_bias(self):
        fc = Linear(3, 2, bias=False, rng=np.random.default_rng(0))
        assert fc.bias is None
        assert fc.num_parameters() == 6

    def test_embedding_bounds(self):
        emb = Embedding(5, 3, rng=np.random.default_rng(0))
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_layernorm_shapes(self):
        ln = LayerNorm(6)
        out = ln(Tensor(np.random.default_rng(0).standard_normal((2, 3, 6))))
        assert out.shape == (2, 3, 6)


class TestAttention:
    def test_causality(self):
        """Changing a future token must not affect earlier outputs."""
        rng = np.random.default_rng(0)
        b, s, h, nh = 1, 6, 8, 2
        q = rng.standard_normal((b, s, h))
        k = rng.standard_normal((b, s, h))
        v = rng.standard_normal((b, s, h))
        base = causal_attention(Tensor(q), Tensor(k), Tensor(v), nh).data
        k2, v2 = k.copy(), v.copy()
        k2[0, -1] += 10.0
        v2[0, -1] -= 5.0
        pert = causal_attention(Tensor(q), Tensor(k2), Tensor(v2), nh).data
        np.testing.assert_allclose(base[0, :-1], pert[0, :-1], rtol=1e-12)
        assert not np.allclose(base[0, -1], pert[0, -1])

    def test_single_head_equals_manual(self):
        rng = np.random.default_rng(1)
        s, h = 4, 3
        q = rng.standard_normal((1, s, h))
        k = rng.standard_normal((1, s, h))
        v = rng.standard_normal((1, s, h))
        out = causal_attention(Tensor(q), Tensor(k), Tensor(v), 1).data[0]
        scores = q[0] @ k[0].T / np.sqrt(h)
        scores[~np.tril(np.ones((s, s), dtype=bool))] = -1e30
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        att = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out, att @ v[0], rtol=1e-10)


class TestGPT:
    def test_forward_shapes(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (2, 8))
        logits = model(ids)
        assert logits.shape == (2, 8, cfg.vocab_size)

    def test_rejects_bad_shapes(self):
        model = GPT(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            model(np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            model(np.zeros((1, 100), dtype=int))

    def test_loss_decreases_with_training(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        ids = np.random.default_rng(3).integers(0, cfg.vocab_size, (4, 10))
        opt = AdamW(model.parameters(), lr=1e-2)
        first = None
        for _ in range(8):
            loss = model.loss(ids)
            if first is None:
                first = loss.item()
            model.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.8

    def test_checkpointing_matches_plain(self):
        cfg = tiny_config()
        ids = np.random.default_rng(5).integers(0, cfg.vocab_size, (2, 8))
        plain = GPT(cfg, seed=7, activation_checkpointing=False)
        ck = GPT(cfg, seed=7, activation_checkpointing=True)
        ck.load_state_dict(plain.state_dict())
        l1, l2 = plain.loss(ids), ck.loss(ids)
        assert l1.item() == pytest.approx(l2.item(), rel=1e-12)
        l1.backward()
        l2.backward()
        g1 = {n: p.grad for n, p in plain.named_parameters()}
        g2 = {n: p.grad for n, p in ck.named_parameters()}
        for n in g1:
            np.testing.assert_allclose(g1[n], g2[n], rtol=1e-9, atol=1e-12)

    def test_param_count_matches_formula(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        assert model.num_parameters() == cfg.num_parameters()

    def test_tied_lm_head(self):
        """Embedding grads should include LM-head contributions."""
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (1, 6))
        model.loss(ids).backward()
        assert model.wte.weight.grad is not None
        assert np.abs(model.wte.weight.grad).sum() > 0

    def test_deterministic_given_seed(self):
        cfg = tiny_config()
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (1, 6))
        a = GPT(cfg, seed=42).loss(ids).item()
        b = GPT(cfg, seed=42).loss(ids).item()
        assert a == b


class TestOptim:
    def test_sgd_step(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad = np.array([0.5, -0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_sgd_momentum(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.9, p=-2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_adamw_first_step_is_lr_sized(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.3])
        AdamW([p], lr=0.01).step()
        # After bias correction, first update = lr * sign(g) (approx).
        np.testing.assert_allclose(p.data, [1.0 - 0.01], atol=1e-6)

    def test_adamw_weight_decay_decoupled(self):
        p = Parameter(np.array([2.0]))
        p.grad = np.array([0.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.step()
        # zero grad => update is pure decay: p -= lr * wd * p
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_skips_gradless_params(self):
        p = Parameter(np.array([1.0]))
        AdamW([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_clip_grad_norm(self):
        p1 = Parameter(np.array([3.0]))
        p2 = Parameter(np.array([4.0]))
        p1.grad, p2.grad = np.array([3.0]), np.array([4.0])
        norm = clip_grad_norm([p1, p2], 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(p1.grad[0] ** 2 + p2.grad[0] ** 2)
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_warmup_decay_schedule(self):
        sch = WarmupDecaySchedule(3e-4, 3e-5, warmup_steps=50, decay_steps=50)
        assert sch.lr_at(0) == pytest.approx(3e-4 / 50)
        assert sch.lr_at(49) == pytest.approx(3e-4)
        assert sch.lr_at(100) == pytest.approx(3e-5)
        assert sch.lr_at(1000) == pytest.approx(3e-5)
        assert 3e-5 < sch.lr_at(99) < 3e-4

    def test_cosine_schedule(self):
        sch = CosineSchedule(1.0, 0.1, warmup_steps=10, total_steps=110)
        assert sch.lr_at(9) == pytest.approx(1.0)
        assert sch.lr_at(110) == pytest.approx(0.1)
        mid = sch.lr_at(10 + 50)
        assert 0.1 < mid < 1.0

    def test_schedule_apply(self):
        p = Parameter(np.array([0.0]))
        opt = AdamW([p], lr=999.0)
        WarmupDecaySchedule().apply(opt, 49)
        assert opt.lr == pytest.approx(3e-4)

    def test_bad_schedules(self):
        with pytest.raises(ValueError):
            WarmupDecaySchedule(warmup_steps=0)
        with pytest.raises(ValueError):
            CosineSchedule(1.0, 0.1, warmup_steps=10, total_steps=10)
