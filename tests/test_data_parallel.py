"""Tests for explicit data parallelism and the degenerate-scheme map."""

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import (
    DEGENERATE_SCHEMES,
    Grid4D,
    GridConfig,
    ParallelGPT,
    allreduce_gradients,
    broadcast_parameters,
    data_parallel_step,
    make_degenerate_grid,
    replicas_in_sync,
)
from repro.nn import GPT, AdamW
from repro.runtime import CommTracer
from tests.oracles.optim import SGD


def tiny_config(**kw) -> GPTConfig:
    defaults = dict(
        name="tiny", num_layers=1, hidden_size=16, num_heads=4,
        seq_len=8, vocab_size=24,
    )
    defaults.update(kw)
    return GPTConfig(**defaults)


class TestDataParallel:
    def test_broadcast_parameters(self):
        models = [GPT(tiny_config(), seed=s) for s in range(3)]
        assert not replicas_in_sync(models)
        broadcast_parameters(models)
        assert replicas_in_sync(models)

    def test_allreduce_gradients_averages(self):
        models = [GPT(tiny_config(), seed=0) for _ in range(2)]
        broadcast_parameters(models)
        ids = np.random.default_rng(0).integers(0, 24, (2, 6))
        for m, shard in zip(models, [ids[:1], ids[1:]]):
            m.loss(shard).backward()
        g_before = [
            dict((n, p.grad.copy()) for n, p in m.named_parameters())
            for m in models
        ]
        allreduce_gradients(models)
        for n, p in models[0].named_parameters():
            expect = (g_before[0][n] + g_before[1][n]) / 2
            np.testing.assert_allclose(p.grad, expect, rtol=1e-10)
        # All replicas now hold identical grads.
        for n, p in models[1].named_parameters():
            np.testing.assert_allclose(
                p.grad, dict(models[0].named_parameters())[n].grad, rtol=1e-12
            )

    def test_partial_gradients_rejected(self):
        models = [GPT(tiny_config(), seed=0) for _ in range(2)]
        ids = np.random.default_rng(0).integers(0, 24, (1, 6))
        models[0].loss(ids).backward()
        with pytest.raises(ValueError):
            allreduce_gradients(models)

    def test_step_matches_single_replica_big_batch(self):
        """2-replica data parallelism == serial training on the full
        batch (token-mean loss, averaged gradients)."""
        cfg = tiny_config()
        ids = np.random.default_rng(1).integers(0, cfg.vocab_size, (4, 8))

        ref = GPT(cfg, seed=0)
        ref_opt = SGD(ref.parameters(), lr=0.1)
        rl = ref.loss(ids)
        rl.backward()
        ref_opt.step()

        models = [GPT(cfg, seed=0), GPT(cfg, seed=99)]
        broadcast_parameters(models)
        opts = [SGD(m.parameters(), lr=0.1) for m in models]
        data_parallel_step(models, opts, ids)

        assert replicas_in_sync(models, atol=1e-12)
        for (n, p), (_, q) in zip(
            ref.named_parameters(), models[0].named_parameters()
        ):
            np.testing.assert_allclose(p.data, q.data, rtol=1e-9, atol=1e-11)

    def test_step_traces_dp_allreduce(self):
        models = [GPT(tiny_config(), seed=0) for _ in range(2)]
        broadcast_parameters(models)
        opts = [AdamW(m.parameters(), lr=1e-3) for m in models]
        tracer = CommTracer()
        ids = np.random.default_rng(2).integers(0, 24, (2, 6))
        data_parallel_step(models, opts, ids, tracer=tracer)
        assert all(r.op == "all_reduce" for r in tracer.records)
        assert len(tracer.records) == len(list(models[0].named_parameters()))
        # Validation-enabled mode: the gradient all-reduce schedule is
        # identical on every replica and passes all static SPMD checks.
        from repro.runtime import validate_schedule

        violations = validate_schedule(tracer)
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_batch_divisibility(self):
        models = [GPT(tiny_config(), seed=0) for _ in range(2)]
        opts = [SGD(m.parameters(), lr=0.1) for m in models]
        with pytest.raises(ValueError):
            data_parallel_step(models, opts, np.zeros((3, 6), dtype=int))

    def test_optimizer_count_check(self):
        models = [GPT(tiny_config(), seed=0) for _ in range(2)]
        with pytest.raises(ValueError):
            data_parallel_step(models, [], np.zeros((2, 6), dtype=int))

    def test_4d_replicas_with_explicit_dp(self):
        """Two ParallelGPT tensor blocks as data replicas, synced with
        real gradient all-reduces, match shared-parameter 4D training."""
        cfg = tiny_config()
        serial = GPT(cfg, seed=4)
        grid = Grid4D(GridConfig(2, 1, 1, 1))
        reps = [ParallelGPT.from_serial(serial, grid) for _ in range(2)]
        opts = [SGD(m.parameters(), lr=0.05) for m in reps]
        ids = np.random.default_rng(3).integers(0, cfg.vocab_size, (4, 8))
        loss = data_parallel_step(reps, opts, ids)
        assert np.isfinite(loss)
        assert replicas_in_sync(reps, atol=1e-12)

        # Reference: serial model trained on the full batch.
        ref_opt = SGD(serial.parameters(), lr=0.05)
        serial.loss(ids).backward()
        ref_opt.step()
        gathered = reps[0].gather_state_to_serial()
        for (n, p), (_, q) in zip(
            serial.named_parameters(), gathered.named_parameters()
        ):
            np.testing.assert_allclose(p.data, q.data, rtol=1e-8, atol=1e-10)


class TestDegenerateSchemes:
    def test_all_schemes_present(self):
        assert set(DEGENERATE_SCHEMES) == {
            "fsdp", "hsdp", "megatron", "pure_data", "axonn_4d",
        }

    def test_fsdp_grid(self):
        grid = make_degenerate_grid("fsdp", 8)
        assert grid.config.dims == (1, 1, 8, 1)

    def test_megatron_grid(self):
        grid = make_degenerate_grid("megatron", 8)
        assert grid.config.dims == (8, 1, 1, 1)

    def test_pure_data_grid(self):
        grid = make_degenerate_grid("pure_data", 16)
        assert grid.config.dims == (1, 1, 1, 16)

    def test_hsdp_grid_uses_node_size(self):
        from repro.cluster import FRONTIER, Placement

        grid = make_degenerate_grid("hsdp", 32, placement=Placement(FRONTIER, 32))
        assert grid.config.dims == (1, 1, 8, 4)

    def test_hsdp_custom_shard_group(self):
        grid = make_degenerate_grid("hsdp", 16, shard_group_size=4)
        assert grid.config.dims == (1, 1, 4, 4)

    def test_axonn_4d_balanced(self):
        grid = make_degenerate_grid("axonn_4d", 64)
        c = grid.config
        assert c.total == 64
        assert c.gx >= c.gy >= 1

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            make_degenerate_grid("pipeline", 8)

    def test_fsdp_comm_signature(self):
        """FSDP-degenerate: weight all-gathers over Z, no tensor-parallel
        all-reduces of activations."""
        cfg = tiny_config()
        tracer = CommTracer()
        grid = Grid4D(GridConfig(1, 1, 2, 1), tracer=tracer)
        model = ParallelGPT(grid, cfg, seed=0)
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (2, 6))
        model.loss(ids).backward()
        tags = {r.tag for r in tracer.records if r.group.size > 1}
        assert "linear.AG_z" in tags
        assert "linear.AR_x" not in tags
        assert "linear.AR_y" not in tags

    def test_megatron_comm_signature(self):
        """Megatron-degenerate: activation all-reduces over X/Y, and the
        Z all-gathers collapse to size-1 groups (no communication)."""
        cfg = tiny_config()
        tracer = CommTracer()
        grid = Grid4D(GridConfig(2, 1, 1, 1), tracer=tracer)
        model = ParallelGPT(grid, cfg, seed=0)
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (2, 6))
        model.loss(ids).backward()
        meaningful = {r.tag for r in tracer.records if r.group.size > 1}
        assert "linear.AR_x" in meaningful
        assert "linear.AG_z" not in meaningful

    def test_expected_tags_documented(self):
        for scheme in DEGENERATE_SCHEMES.values():
            assert scheme.description
            assert scheme.active_axes <= {"x", "y", "z", "data"}
