"""Failure-injection tests: the library must *detect* broken states, not
silently train through them."""

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.nn import GPT, MixedPrecisionTrainer
from repro.runtime import ProcessGroup, all_reduce
from tests.oracles.optim import SGD


def tiny_config():
    return GPTConfig(
        name="fi", num_layers=1, hidden_size=16, num_heads=4,
        seq_len=10, vocab_size=32,
    )


class TestNonFiniteGuard:
    def test_poisoned_gradient_skips_step(self):
        """A NaN smuggled into a parameter produces NaN gradients; the
        trainer must refuse to step and leave the weights untouched."""
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        trainer = MixedPrecisionTrainer(
            model, SGD(model.parameters(), lr=0.1), bf16=False
        )
        ids = np.random.default_rng(0).integers(0, 32, (2, 6))
        # Poison one weight: the loss and grads become NaN.
        model.ln_f.weight.data[0] = np.nan
        before = model.wte.weight.data.copy()
        trainer.step(ids)
        assert trainer.skipped_steps == 1
        np.testing.assert_array_equal(model.wte.weight.data, before)
        # Gradients were cleared for the next attempt.
        assert all(p.grad is None for p in model.parameters())

    def test_clean_steps_are_not_skipped(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        trainer = MixedPrecisionTrainer(
            model, SGD(model.parameters(), lr=0.1), bf16=False
        )
        ids = np.random.default_rng(0).integers(0, 32, (2, 6))
        before = model.wte.weight.data.copy()
        trainer.step(ids)
        assert trainer.skipped_steps == 0
        assert not np.array_equal(model.wte.weight.data, before)

    def test_guard_can_be_disabled(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        trainer = MixedPrecisionTrainer(
            model, SGD(model.parameters(), lr=0.1), bf16=False,
            skip_nonfinite=False,
        )
        model.ln_f.weight.data[0] = np.nan
        ids = np.random.default_rng(0).integers(0, 32, (2, 6))
        trainer.step(ids)
        # Without the guard the corruption spreads into the weights.
        assert np.isnan(model.wte.weight.data).any() or np.isnan(
            model.ln_f.weight.data
        ).any()


class TestRuntimeRejectsCorruptInputs:
    def test_shape_corruption_rejected(self):
        g = ProcessGroup((0, 1))
        bufs = {0: np.zeros((4, 2)), 1: np.zeros((4, 3))}
        with pytest.raises(ValueError):
            all_reduce(bufs, g)

    def test_dtype_corruption_rejected(self):
        g = ProcessGroup((0, 1))
        bufs = {0: np.zeros(4, dtype=np.float64), 1: np.zeros(4, dtype=np.float32)}
        with pytest.raises(ValueError):
            all_reduce(bufs, g)

    def test_nan_propagates_visibly_not_silently(self):
        """Collectives do not mask NaNs: a poisoned rank poisons the
        reduction (so the non-finite guard upstream can catch it)."""
        g = ProcessGroup((0, 1))
        bufs = {0: np.full(4, np.nan), 1: np.ones(4)}
        out = all_reduce(bufs, g)
        assert np.isnan(out[0]).all() and np.isnan(out[1]).all()
