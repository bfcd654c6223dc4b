"""Tests for mixed-precision training and gradient accumulation."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import Grid4D, GridConfig, ParallelGPT
from repro.nn import GPT, AdamW, MixedPrecisionTrainer
from repro.tensor import to_bf16
from tests.oracles.optim import SGD


def tiny_config():
    return GPTConfig(
        name="mp", num_layers=1, hidden_size=16, num_heads=4,
        seq_len=10, vocab_size=32,
    )


def batch(cfg, b=4, seed=0):
    return np.random.default_rng(seed).integers(0, cfg.vocab_size, (b, 8))


class TestGradAccumulation:
    def test_accumulated_equals_big_batch(self):
        """N micro-steps of batch B/N == one step of batch B (fp32)."""
        cfg = tiny_config()
        ids = batch(cfg, b=8, seed=1)

        ref = GPT(cfg, seed=0)
        ref_opt = SGD(ref.parameters(), lr=0.1)
        ref.loss(ids).backward()
        ref_opt.step()

        acc = GPT(cfg, seed=0)
        trainer = MixedPrecisionTrainer(
            acc, SGD(acc.parameters(), lr=0.1),
            accumulation_steps=4, bf16=False,
        )
        trainer.step(ids)

        for (n, p), (_, q) in zip(
            ref.named_parameters(), acc.named_parameters()
        ):
            np.testing.assert_allclose(p.data, q.data, rtol=1e-9, atol=1e-12)

    def test_optimizer_steps_only_at_window_end(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        before = model.wte.weight.data.copy()
        trainer = MixedPrecisionTrainer(
            model, SGD(model.parameters(), lr=0.1),
            accumulation_steps=2, bf16=False,
        )
        trainer.micro_step(batch(cfg, b=2))
        np.testing.assert_array_equal(model.wte.weight.data, before)
        trainer.micro_step(batch(cfg, b=2, seed=1))
        assert not np.array_equal(model.wte.weight.data, before)

    def test_step_mid_window_rejected(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        trainer = MixedPrecisionTrainer(
            model, SGD(model.parameters(), lr=0.1), accumulation_steps=2
        )
        trainer.micro_step(batch(cfg, b=2))
        with pytest.raises(RuntimeError):
            trainer.step(batch(cfg, b=4))

    def test_batch_divisibility(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        trainer = MixedPrecisionTrainer(
            model, SGD(model.parameters(), lr=0.1), accumulation_steps=3
        )
        with pytest.raises(ValueError):
            trainer.step(batch(cfg, b=4))

    def test_validation(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        with pytest.raises(ValueError):
            MixedPrecisionTrainer(model, SGD(model.parameters(), lr=0.1), 0)


class TestBF16Compute:
    def test_forward_sees_bf16_weights(self):
        """The loss under bf16 compute differs from fp64 (rounding is
        really happening) but only at bf16 magnitude."""
        cfg = tiny_config()
        a, b = GPT(cfg, seed=0), GPT(cfg, seed=0)
        ids = batch(cfg)
        full = a.loss(ids).item()
        trainer = MixedPrecisionTrainer(
            b, SGD(b.parameters(), lr=0.0), accumulation_steps=1, bf16=True
        )
        mixed = trainer.micro_step(ids)
        assert mixed != full
        assert mixed == pytest.approx(full, rel=0.02)

    def test_master_weights_stay_full_precision(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        orig = model.wte.weight.data.copy()
        assert not np.array_equal(to_bf16(orig), orig)
        trainer = MixedPrecisionTrainer(
            model, SGD(model.parameters(), lr=0.0), bf16=True
        )
        trainer.step(batch(cfg))
        # lr=0: masters untouched, and NOT left rounded.
        np.testing.assert_array_equal(model.wte.weight.data, orig)

    def test_master_copies_accumulate_tiny_updates(self):
        """The reason master weights exist: updates far below a bf16 ulp
        accumulate in fp32/fp64 masters, but would be lost if weights
        lived in bf16 permanently."""
        from repro.tensor import to_bf16

        w = np.full(100, 1.0)
        tiny = 1e-5  # << bf16 ulp at 1.0 (2^-8 ~ 4e-3)

        master = w.copy()
        stale = to_bf16(w).astype(np.float64)
        for _ in range(100):
            master -= tiny  # master-weight update
            stale = to_bf16(stale - tiny).astype(np.float64)  # bf16-only
        np.testing.assert_allclose(master, 1.0 - 100 * tiny, rtol=1e-12)
        np.testing.assert_array_equal(stale, to_bf16(np.full(100, 1.0)))

    def test_mixed_precision_training_converges(self):
        cfg = tiny_config()
        model = GPT(cfg, seed=0)
        trainer = MixedPrecisionTrainer(
            model, AdamW(model.parameters(), lr=1e-2),
            accumulation_steps=2, bf16=True, grad_clip=1.0,
        )
        ids = batch(cfg, b=4, seed=3)
        first = trainer.step(ids)
        for _ in range(7):
            last = trainer.step(ids)
        assert last < first * 0.8

    def test_works_with_parallel_model(self):
        """The trainer wraps ParallelGPT unchanged (the AxoNN-infused
        training loop of Section VIII)."""
        cfg = tiny_config()
        serial = GPT(cfg, seed=2)
        par = ParallelGPT.from_serial(serial, Grid4D(GridConfig(2, 1, 2)))
        trainer = MixedPrecisionTrainer(
            par, AdamW(par.parameters(), lr=1e-2), accumulation_steps=2
        )
        ids = batch(cfg, b=4, seed=4)
        first = trainer.step(ids)
        for _ in range(5):
            last = trainer.step(ids)
        assert last < first


_FAULTS_OF_TWO_64MB_ARRAYS = """
import resource
import numpy as np
from repro.config import GPTConfig
from repro.nn import GPT, AdamW, MixedPrecisionTrainer

cfg = GPTConfig(name="mp", num_layers=1, hidden_size=16, num_heads=4,
                seq_len=10, vocab_size=32)
model = GPT(cfg, seed=0)
MixedPrecisionTrainer(model, AdamW(model.parameters(), lr=0.1))

def faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(8 << 20)  # 64 MB, touched, dropped at once
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(faults(), faults())
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="glibc malloc thresholds"
)
def test_freed_step_memory_stays_with_the_process():
    """After a trainer exists, memory freed by one step is reused by the
    next without page faults: step time must not depend on whether
    glibc's dynamic thresholds happen to trim the heap (they made the
    same training run take 0.7 to 1.9 M faults by heap layout).  Own
    process: thresholds are process-wide and other tests build trainers."""
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_OF_TWO_64MB_ARRAYS],
        capture_output=True, text=True, timeout=120,
        # Count 4 KiB pages: NumPy asks for huge pages behind big arrays.
        env={**os.environ, "NUMPY_MADVISE_HUGEPAGE": "0"},
    )
    assert proc.returncode == 0, proc.stderr
    import resource  # not on every platform

    first, second = map(int, proc.stdout.split())
    pages = (64 << 20) // resource.getpagesize()
    assert first >= pages // 2  # the counter sees first-touch faults
    assert second < pages // 16
