"""End-to-end verification of the 4D-parallel GPT.

The central claims: for any 4D grid configuration, the parallel model
computes the same logits, the same loss, and the same parameter
gradients as the serial reference — including transposed layers, the
distributed LayerNorm, head-split attention, the Z-sharded weights, and
the vocab-parallel loss.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig
from repro.core import (
    Grid4D,
    GridConfig,
    ParallelGPT,
    ParallelLayerNorm,
    ParallelLinear,
    axonn_init,
    permute_qkv_columns,
    vocab_parallel_cross_entropy,
)
from repro.nn import GPT
from repro.runtime import CommTracer, ProcessGroup
from repro.tensor import Tensor
from repro.tensor import functional as F


def tiny_config(**kw) -> GPTConfig:
    defaults = dict(
        name="tiny",
        num_layers=2,
        hidden_size=24,
        num_heads=4,
        seq_len=10,
        vocab_size=32,
    )
    defaults.update(kw)
    return GPTConfig(**defaults)


def batch_for(cfg, b, s=None, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, cfg.vocab_size, (b, s or cfg.seq_len))


class TestParallelLinear:
    @pytest.mark.parametrize("gx,gy,gz", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2)])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_serial_linear(self, gx, gy, gz, transposed):
        rng = np.random.default_rng(0)
        in_f, out_f = 8 * max(gx, gy) * gz, 4 * gx * gy
        grid = Grid4D(GridConfig(gx, gy, gz))
        layer = ParallelLinear(grid, in_f, out_f, transposed=transposed, rng=rng)
        W = rng.standard_normal((in_f, out_f))
        b = rng.standard_normal(out_f)
        layer.load_full_weight(W, b)
        np.testing.assert_allclose(layer.full_weight(), W, rtol=1e-14)

        x = rng.standard_normal((2 * gz, in_f))
        # Shard the input per the layer's expected layout.
        from repro.core import shard_input

        x_np = shard_input(x, grid, transposed=transposed)
        x_parts = {r: Tensor(v, requires_grad=True) for r, v in x_np.items()}
        out = layer.forward(x_parts)

        expect = x @ W + b
        # Check every rank's block against the reference.
        c = grid.config
        n_col = c.gy if transposed else c.gx
        cb = out_f // n_col
        rb = x.shape[0] // c.gz
        for r, t in out.items():
            xx, yy, zz, _ = grid.coords_of(r)
            i = yy if transposed else xx
            block = expect[zz * rb : (zz + 1) * rb, i * cb : (i + 1) * cb]
            np.testing.assert_allclose(t.data, block, rtol=1e-10, atol=1e-12)

    def test_gradients_match_serial(self):
        """Loss = sum(out); dW and dx must equal the serial gradients."""
        rng = np.random.default_rng(1)
        gx, gy, gz = 2, 2, 2
        in_f, out_f = 16, 8
        grid = Grid4D(GridConfig(gx, gy, gz))
        layer = ParallelLinear(grid, in_f, out_f, rng=rng)
        W = rng.standard_normal((in_f, out_f))
        bias = rng.standard_normal(out_f)
        layer.load_full_weight(W, bias)
        x = rng.standard_normal((4, in_f))

        from repro.core import shard_input

        x_parts = {
            r: Tensor(v, requires_grad=True)
            for r, v in shard_input(x, grid).items()
        }
        out = layer.forward(x_parts)
        # Sum each distinct output block once (use y=0 replicas).
        total = None
        for z in range(gz):
            for i in range(gx):
                t = out[grid.rank_of(i, 0, z)].sum()
                total = t if total is None else total + t
        total.backward()

        # Serial reference.
        xt = Tensor(x, requires_grad=True)
        Wt = Tensor(W, requires_grad=True)
        bt = Tensor(bias, requires_grad=True)
        (xt @ Wt + bt).sum().backward()

        # Reassembled parallel weight gradient.
        dW = np.zeros_like(W)
        rb, cb = layer.in_block, layer.out_block
        for (xx, yy, zz), p in layer.weight_shards.items():
            j, i = (yy, xx)
            r0 = j * rb + zz * layer.shard_rows
            dW[r0 : r0 + layer.shard_rows, i * cb : (i + 1) * cb] = p.grad
        np.testing.assert_allclose(dW, Wt.grad, rtol=1e-10, atol=1e-12)

        # Bias gradients.
        db = np.concatenate(
            [layer.bias_shards[i].grad for i in range(gx)]
        )
        np.testing.assert_allclose(db, bt.grad, rtol=1e-10, atol=1e-12)

        # Input gradient: each X replica is a distinct leaf holding the
        # *partial* gradient (line 11 of Algorithm 1); the sum over X
        # replicas is the all-reduce of line 12.  (Inside a full network
        # that sum happens automatically at the producing collective.)
        for z in range(gz):
            for j in range(gy):
                g = sum(
                    x_parts[grid.rank_of(i, j, z)].grad for i in range(gx)
                )
                blk = xt.grad[z * 2 : (z + 1) * 2, j * 8 : (j + 1) * 8]
                np.testing.assert_allclose(g, blk, rtol=1e-10, atol=1e-12)

    def test_divisibility_validation(self):
        grid = Grid4D(GridConfig(2, 2, 2))
        with pytest.raises(ValueError):
            ParallelLinear(grid, 10, 8)  # 10 % (2*2) != 0
        with pytest.raises(ValueError):
            ParallelLinear(grid, 16, 7)  # 7 % 2 != 0

    def test_load_shape_validation(self):
        grid = Grid4D(GridConfig(1, 1, 1))
        layer = ParallelLinear(grid, 4, 4)
        with pytest.raises(ValueError):
            layer.load_full_weight(np.zeros((3, 3)))


class TestParallelLayerNorm:
    @pytest.mark.parametrize("gy", [1, 2, 3])
    def test_matches_serial_layernorm(self, gy):
        rng = np.random.default_rng(0)
        h = 12
        grid = Grid4D(GridConfig(1, gy, 1))
        ln = ParallelLayerNorm(grid, h, feature_axis="y")
        w = rng.standard_normal(h)
        b = rng.standard_normal(h)
        ln.load_full(w, b)
        x = rng.standard_normal((3, h))
        parts = {
            grid.rank_of(0, j, 0): Tensor(
                x[:, j * (h // gy) : (j + 1) * (h // gy)], requires_grad=True
            )
            for j in range(gy)
        }
        out = ln.forward(parts)
        ref = F.layer_norm(Tensor(x), Tensor(w), Tensor(b)).data
        got = np.concatenate(
            [out[grid.rank_of(0, j, 0)].data for j in range(gy)], axis=1
        )
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_bad_axis(self):
        grid = Grid4D(GridConfig(1, 1, 1))
        with pytest.raises(ValueError):
            ParallelLayerNorm(grid, 8, feature_axis="z")


class TestVocabParallelLoss:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_serial_cross_entropy(self, p):
        rng = np.random.default_rng(0)
        b, s, v = 2, 5, 16
        logits = rng.standard_normal((b, s, v))
        targets = rng.integers(0, v, (b, s))
        weights = np.full((b, s), 1.0 / (b * s))
        group = ProcessGroup(tuple(range(p)))
        parts = [
            Tensor(logits[..., i * (v // p) : (i + 1) * (v // p)], requires_grad=True)
            for i in range(p)
        ]
        loss = vocab_parallel_cross_entropy(parts, group, targets, weights)
        ref = F.cross_entropy(Tensor(logits), targets)
        assert loss.item() == pytest.approx(ref.item(), rel=1e-12)

    def test_gradient_matches_serial(self):
        rng = np.random.default_rng(1)
        b, s, v, p = 2, 3, 8, 2
        logits = rng.standard_normal((b, s, v))
        targets = rng.integers(0, v, (b, s))
        weights = np.full((b, s), 1.0 / (b * s))
        group = ProcessGroup((0, 1))
        parts = [
            Tensor(logits[..., i * 4 : (i + 1) * 4], requires_grad=True)
            for i in range(p)
        ]
        vocab_parallel_cross_entropy(parts, group, targets, weights).backward()
        ref = Tensor(logits, requires_grad=True)
        F.cross_entropy(ref, targets).backward()
        got = np.concatenate([t.grad for t in parts], axis=-1)
        np.testing.assert_allclose(got, ref.grad, rtol=1e-10, atol=1e-12)

    def test_masked_weights(self):
        rng = np.random.default_rng(2)
        b, s, v = 1, 4, 8
        logits = rng.standard_normal((b, s, v))
        targets = rng.integers(0, v, (b, s))
        mask = np.array([[1.0, 0.0, 1.0, 0.0]])
        weights = mask / mask.sum()
        group = ProcessGroup((0,))
        loss = vocab_parallel_cross_entropy(
            [Tensor(logits)], group, targets, weights
        )
        ref = F.cross_entropy(Tensor(logits), targets, loss_mask=mask)
        assert loss.item() == pytest.approx(ref.item(), rel=1e-12)


class TestQKVPermutation:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((6, 24))
        fw = permute_qkv_columns(W, gx=2, hidden=8)
        back = permute_qkv_columns(fw, gx=2, hidden=8, inverse=True)
        np.testing.assert_array_equal(back, W)

    def test_identity_when_gx_1(self):
        W = np.arange(24.0).reshape(2, 12)
        np.testing.assert_array_equal(permute_qkv_columns(W, 1, 4), W)

    def test_shard_contains_own_heads(self):
        h, gx = 8, 2
        W = np.arange(3 * h)[None, :].astype(float)  # cols labeled 0..23
        p = permute_qkv_columns(W, gx, h)
        # Shard 0 = first 12 cols = [q0..3, k0..3 (8..11), v0..3 (16..19)]
        np.testing.assert_array_equal(
            p[0, :12], [0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19]
        )


GRID_CASES = [
    (1, 1, 1, 1),
    (2, 1, 1, 1),  # Megatron-degenerate
    (1, 2, 1, 1),
    (1, 1, 2, 1),  # FSDP-degenerate
    (1, 1, 1, 2),  # pure data parallel
    (2, 2, 1, 1),
    (2, 1, 2, 1),
    (1, 2, 2, 1),
    (2, 2, 2, 1),
    (2, 2, 2, 2),  # full 4D
]


class TestParallelGPTEquivalence:
    @pytest.mark.parametrize("gx,gy,gz,gd", GRID_CASES)
    def test_logits_match_serial(self, gx, gy, gz, gd):
        cfg = tiny_config()
        serial = GPT(cfg, seed=3)
        grid = Grid4D(GridConfig(gx, gy, gz, gd))
        par = ParallelGPT.from_serial(serial, grid)
        ids = batch_for(cfg, b=2 * gz * gd, s=6, seed=1)
        ref = serial(ids).data
        got = par(ids).data
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("gx,gy,gz,gd", GRID_CASES)
    def test_loss_matches_serial(self, gx, gy, gz, gd):
        cfg = tiny_config()
        serial = GPT(cfg, seed=3)
        grid = Grid4D(GridConfig(gx, gy, gz, gd))
        par = ParallelGPT.from_serial(serial, grid)
        ids = batch_for(cfg, b=2 * gz * gd, s=6, seed=2)
        assert par.loss(ids).item() == pytest.approx(
            serial.loss(ids).item(), rel=1e-10
        )

    def test_gradients_match_serial_full_4d(self):
        """The decisive test: every parameter gradient of the 4D model,
        reassembled, equals the serial gradient."""
        cfg = tiny_config()
        serial = GPT(cfg, seed=5)
        grid = Grid4D(GridConfig(2, 2, 2, 1))
        par = ParallelGPT.from_serial(serial, grid)
        ids = batch_for(cfg, b=4, s=6, seed=3)

        serial.loss(ids).backward()
        par.loss(ids).backward()

        gx, h = 2, cfg.hidden_size
        # Embeddings (shared tables).
        np.testing.assert_allclose(
            par.wte.weight.grad, serial.wte.weight.grad, rtol=1e-8, atol=1e-10
        )
        np.testing.assert_allclose(
            par.wpe.weight.grad, serial.wpe.weight.grad, rtol=1e-8, atol=1e-10
        )
        for pblk, sblk in zip(par.blocks, serial.blocks):
            # QKV (undo the column permutation on the reassembled grad).
            dqkv = np.zeros((h, 3 * h))
            lin = pblk.qkv
            rb, cb = lin.in_block, lin.out_block
            for (xx, yy, zz), p in lin.weight_shards.items():
                j, i = yy, xx
                r0 = j * rb + zz * lin.shard_rows
                dqkv[r0 : r0 + lin.shard_rows, i * cb : (i + 1) * cb] = p.grad
            dqkv = permute_qkv_columns(dqkv, gx, h, inverse=True)
            np.testing.assert_allclose(
                dqkv, sblk.attn.qkv.weight.grad, rtol=1e-8, atol=1e-10
            )
            # MLP fc2 (transposed orientation).
            lin = pblk.fc2
            dW = np.zeros((cfg.ffn_hidden, h))
            rb, cb = lin.in_block, lin.out_block
            for (xx, yy, zz), p in lin.weight_shards.items():
                j, i = xx, yy  # transposed: row block = x, col block = y
                r0 = j * rb + zz * lin.shard_rows
                dW[r0 : r0 + lin.shard_rows, i * cb : (i + 1) * cb] = p.grad
            np.testing.assert_allclose(
                dW, sblk.mlp.fc2.weight.grad, rtol=1e-8, atol=1e-10
            )
            # LayerNorm shards.
            dln = np.concatenate(
                [pblk.ln1.weight_shards[i].grad for i in sorted(pblk.ln1.weight_shards)]
            )
            np.testing.assert_allclose(
                dln, sblk.ln1.weight.grad, rtol=1e-8, atol=1e-10
            )

    def test_training_steps_stay_equivalent(self):
        """Three SGD steps on both models keep losses identical."""
        from tests.oracles.optim import SGD

        cfg = tiny_config(num_layers=1)
        serial = GPT(cfg, seed=7)
        grid = Grid4D(GridConfig(2, 1, 2, 1))
        par = ParallelGPT.from_serial(serial, grid)
        ids = batch_for(cfg, b=4, s=6, seed=4)
        s_opt = SGD(serial.parameters(), lr=0.05)
        p_opt = SGD(par.parameters(), lr=0.05)
        for _ in range(3):
            sl = serial.loss(ids)
            serial.zero_grad()
            sl.backward()
            s_opt.step()
            pl = par.loss(ids)
            par.zero_grad()
            pl.backward()
            p_opt.step()
            assert pl.item() == pytest.approx(sl.item(), rel=1e-9)

    def test_validation_errors(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):  # heads 4 not divisible by gx 3
            ParallelGPT(Grid4D(GridConfig(3, 1, 1)), cfg)
        grid = Grid4D(GridConfig(1, 1, 2))
        par = ParallelGPT(grid, cfg)
        with pytest.raises(ValueError):  # batch 3 not divisible by gz 2
            par.loss(batch_for(cfg, b=3, s=4))

    def test_vocab_divisibility(self):
        cfg = tiny_config(vocab_size=30)  # 30 % 4 != 0
        with pytest.raises(ValueError):
            ParallelGPT(Grid4D(GridConfig(4, 1, 1)), cfg)

    def test_goldfish_mask_equivalence(self):
        cfg = tiny_config()
        serial = GPT(cfg, seed=9)
        grid = Grid4D(GridConfig(2, 2, 1, 1))
        par = ParallelGPT.from_serial(serial, grid)
        ids = batch_for(cfg, b=2, s=8, seed=5)
        rng = np.random.default_rng(0)
        mask = (rng.random(ids.shape) > 0.3).astype(float)
        assert par.loss(ids, loss_mask=mask).item() == pytest.approx(
            serial.loss(ids, loss_mask=mask).item(), rel=1e-10
        )

    def test_gather_state_roundtrip(self):
        cfg = tiny_config(num_layers=1)
        serial = GPT(cfg, seed=11)
        grid = Grid4D(GridConfig(2, 2, 2))
        par = ParallelGPT.from_serial(serial, grid)
        back = par.gather_state_to_serial()
        for (n1, p1), (n2, p2) in zip(
            serial.named_parameters(), back.named_parameters()
        ):
            assert n1 == n2
            np.testing.assert_allclose(p1.data, p2.data, rtol=1e-14)


class TestFacade:
    def test_init_and_parallelize(self):
        ctx = axonn_init(2, 1, 2, 1)
        cfg = tiny_config()
        model = ctx.parallelize(cfg)
        ids = batch_for(cfg, b=2, s=5)
        assert np.isfinite(model.loss(ids).item())

    def test_init_with_machine_placement(self):
        ctx = axonn_init(2, 2, 2, 1, machine="frontier")
        assert ctx.placement is not None
        assert ctx.placement.num_gpus == 8

    def test_grid_mismatch_rejected(self):
        from repro.cluster import FRONTIER, Placement

        with pytest.raises(ValueError):
            Grid4D(GridConfig(2, 2, 2), placement=Placement(FRONTIER, 16))


class TestGridShapeFuzz:
    """Property-based sweep over (Gx, Gy, Gz, Gdata): on every sampled
    shape a parallel training step must equal the serial step AND leave a
    validator-clean collective schedule.  Seeded/derandomized so CI runs
    the same ~30 shapes every time."""

    @staticmethod
    def _step(model, opt, ids):
        loss = model.loss(ids)
        model.zero_grad()
        loss.backward()
        opt.step()
        return loss.item()

    @given(
        gx=st.sampled_from([1, 2]),
        gy=st.sampled_from([1, 2]),
        gz=st.sampled_from([1, 2, 3]),
        gd=st.sampled_from([1, 2]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_parallel_step_matches_serial_and_schedule_clean(
        self, gx, gy, gz, gd, seed
    ):
        from tests.oracles.optim import SGD
        from repro.runtime import validate_schedule

        cfg = tiny_config(num_layers=1)
        serial = GPT(cfg, seed=seed % 13)
        tracer = CommTracer()
        grid = Grid4D(GridConfig(gx, gy, gz, gd), tracer=tracer)
        par = ParallelGPT.from_serial(serial, grid)
        ids = batch_for(cfg, b=2 * gz * gd, s=6, seed=seed)

        s_opt = SGD(serial.parameters(), lr=0.1)
        p_opt = SGD(par.parameters(), lr=0.1)
        # Two steps: the second loss only matches if the first step's
        # gradients (hence every collective) were correct.
        for _ in range(2):
            sl = self._step(serial, s_opt, ids)
            pl = self._step(par, p_opt, ids)
            assert pl == pytest.approx(sl, rel=1e-9)

        violations = validate_schedule(tracer)
        assert violations == [], "\n".join(str(v) for v in violations)
