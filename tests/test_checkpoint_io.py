"""Tests for sharded checkpoint save/load and cross-grid resharding."""

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import (
    Grid4D,
    GridConfig,
    ParallelGPT,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn import GPT
from tests.oracles.optim import SGD


def tiny_config():
    return GPTConfig(
        name="ck", num_layers=2, hidden_size=16, num_heads=4,
        seq_len=10, vocab_size=32,
    )


def batch(cfg, b=4, seed=0):
    return np.random.default_rng(seed).integers(0, cfg.vocab_size, (b, 8))


class TestSerialCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config()
        a = GPT(cfg, seed=1)
        save_checkpoint(a, tmp_path / "ck.npz")
        b = GPT(cfg, seed=2)
        load_checkpoint(b, tmp_path / "ck.npz")
        ids = batch(cfg)
        assert a.loss(ids).item() == pytest.approx(b.loss(ids).item(), rel=1e-14)

    def test_strict_loading(self, tmp_path):
        cfg = tiny_config()
        save_checkpoint(GPT(cfg, seed=0), tmp_path / "ck.npz")
        other = GPT(cfg.scaled(hidden_size=24, num_heads=4), seed=0)
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(other, tmp_path / "ck.npz")

    def test_creates_parent_dirs(self, tmp_path):
        cfg = tiny_config()
        save_checkpoint(GPT(cfg, seed=0), tmp_path / "a" / "b" / "ck.npz")
        assert (tmp_path / "a" / "b" / "ck.npz").exists()


class TestParallelCheckpoint:
    def test_parallel_save_serial_load(self, tmp_path):
        """A 4D model's consolidated checkpoint restores into a serial
        model that computes identically."""
        cfg = tiny_config()
        serial = GPT(cfg, seed=3)
        par = ParallelGPT.from_serial(serial, Grid4D(GridConfig(2, 1, 2)))
        save_checkpoint(par, tmp_path / "par.npz")
        restored = GPT(cfg, seed=99)
        load_checkpoint(restored, tmp_path / "par.npz")
        ids = batch(cfg)
        assert restored.loss(ids).item() == pytest.approx(
            serial.loss(ids).item(), rel=1e-12
        )

    def test_serial_save_parallel_load(self, tmp_path):
        cfg = tiny_config()
        serial = GPT(cfg, seed=4)
        save_checkpoint(serial, tmp_path / "ser.npz")
        par = ParallelGPT(Grid4D(GridConfig(1, 2, 2)), cfg, seed=0)
        load_checkpoint(par, tmp_path / "ser.npz")
        ids = batch(cfg)
        assert par.loss(ids).item() == pytest.approx(
            serial.loss(ids).item(), rel=1e-12
        )

    def test_training_resumes_identically_across_grids(self, tmp_path):
        """Train on grid A, checkpoint, resume on grid B: the loss curve
        continues exactly as uninterrupted serial training would."""
        cfg = tiny_config()
        ids = batch(cfg, b=4, seed=7)

        # Reference: 4 serial steps.
        ref = GPT(cfg, seed=5)
        ref_opt = SGD(ref.parameters(), lr=0.05)
        ref_losses = []
        for _ in range(4):
            loss = ref.loss(ids)
            ref_losses.append(loss.item())
            ref.zero_grad()
            loss.backward()
            ref_opt.step()

        # Phase 1: 2 steps on grid (2,1,2).
        par_a = ParallelGPT.from_serial(GPT(cfg, seed=5), Grid4D(GridConfig(2, 1, 2)))
        opt_a = SGD(par_a.parameters(), lr=0.05)
        got = []
        for _ in range(2):
            loss = par_a.loss(ids)
            got.append(loss.item())
            par_a.zero_grad()
            loss.backward()
            opt_a.step()
        save_checkpoint(par_a, tmp_path / "phase1.npz")

        # Phase 2: resume on grid (1,2,1) with a fresh optimizer-free SGD.
        par_b = ParallelGPT(Grid4D(GridConfig(1, 2, 1)), cfg, seed=0)
        load_checkpoint(par_b, tmp_path / "phase1.npz")
        opt_b = SGD(par_b.parameters(), lr=0.05)
        for _ in range(2):
            loss = par_b.loss(ids)
            got.append(loss.item())
            par_b.zero_grad()
            loss.backward()
            opt_b.step()

        np.testing.assert_allclose(got, ref_losses, rtol=1e-9)


class TestReshard:
    @pytest.mark.parametrize(
        "src,dst",
        [
            ((2, 1, 2, 1), (1, 2, 1, 1)),
            ((1, 1, 4, 1), (2, 2, 1, 1)),
            ((2, 2, 1, 1), (1, 1, 1, 2)),
        ],
    )
    def test_reshard_preserves_function(self, src, dst):
        cfg = tiny_config()
        serial = GPT(cfg, seed=6)
        a = ParallelGPT.from_serial(serial, Grid4D(GridConfig(*src)))
        b = ParallelGPT.from_serial(
            a.gather_state_to_serial(), Grid4D(GridConfig(*dst))
        )
        ids = batch(cfg, b=4)
        assert b.loss(ids).item() == pytest.approx(
            a.loss(ids).item(), rel=1e-12
        )

    def test_reshard_is_deep_copy(self):
        cfg = tiny_config()
        a = ParallelGPT.from_serial(GPT(cfg, seed=0), Grid4D(GridConfig(2, 1, 1)))
        b = ParallelGPT.from_serial(
            a.gather_state_to_serial(), Grid4D(GridConfig(1, 2, 1))
        )
        # Mutating b must not touch a.
        for p in b.parameters():
            p.data += 1.0
        ids = batch(cfg)
        assert a.loss(ids).item() != pytest.approx(b.loss(ids).item())


class TestTrainingState:
    def test_bit_exact_resume_serial(self, tmp_path):
        """Save mid-training with optimizer state; resuming continues
        bit-for-bit identically to the uninterrupted run."""
        from repro.core import load_training_state, save_training_state
        from repro.nn import AdamW

        cfg = tiny_config()
        ids = batch(cfg, b=4, seed=9)

        # Uninterrupted: 6 AdamW steps.
        ref = GPT(cfg, seed=8)
        ref_opt = AdamW(ref.parameters(), lr=1e-2)
        ref_losses = []
        for _ in range(6):
            loss = ref.loss(ids)
            ref_losses.append(loss.item())
            ref.zero_grad()
            loss.backward()
            ref_opt.step()

        # Interrupted after 3 steps.
        a = GPT(cfg, seed=8)
        a_opt = AdamW(a.parameters(), lr=1e-2)
        got = []
        for _ in range(3):
            loss = a.loss(ids)
            got.append(loss.item())
            a.zero_grad()
            loss.backward()
            a_opt.step()
        save_training_state(a, a_opt, tmp_path / "state.npz")

        b = GPT(cfg, seed=123)  # different init; fully overwritten
        b_opt = AdamW(b.parameters(), lr=1e-2)
        load_training_state(b, b_opt, tmp_path / "state.npz")
        assert b_opt.t == 3
        for _ in range(3):
            loss = b.loss(ids)
            got.append(loss.item())
            b.zero_grad()
            loss.backward()
            b_opt.step()

        np.testing.assert_array_equal(got, ref_losses)
        for (n, p), (_, q) in zip(
            ref.named_parameters(), b.named_parameters()
        ):
            np.testing.assert_array_equal(p.data, q.data)

    def test_bit_exact_resume_parallel(self, tmp_path):
        """Same-grid resume of a 4D model, optimizer moments included."""
        from repro.core import load_training_state, save_training_state
        from repro.nn import AdamW

        cfg = tiny_config()
        ids = batch(cfg, b=4, seed=10)
        grid = Grid4D(GridConfig(2, 1, 2))
        a = ParallelGPT.from_serial(GPT(cfg, seed=1), grid)
        a_opt = AdamW(a.parameters(), lr=1e-2)
        for _ in range(2):
            loss = a.loss(ids)
            a.zero_grad()
            loss.backward()
            a_opt.step()
        save_training_state(a, a_opt, tmp_path / "p.npz")

        b = ParallelGPT(Grid4D(GridConfig(2, 1, 2)), cfg, seed=99)
        b_opt = AdamW(b.parameters(), lr=1e-2)
        load_training_state(b, b_opt, tmp_path / "p.npz")

        la = a.loss(ids)
        lb = b.loss(ids)
        assert la.item() == lb.item()
        a.zero_grad(); la.backward(); a_opt.step()
        b.zero_grad(); lb.backward(); b_opt.step()
        for (n, p), (_, q) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_layout_mismatch_rejected(self, tmp_path):
        from repro.core import load_training_state, save_training_state
        from repro.nn import AdamW

        cfg = tiny_config()
        a = ParallelGPT(Grid4D(GridConfig(2, 1, 1)), cfg, seed=0)
        a_opt = AdamW(a.parameters(), lr=1e-2)
        save_training_state(a, a_opt, tmp_path / "s.npz")
        b = ParallelGPT(Grid4D(GridConfig(1, 2, 1)), cfg, seed=0)
        b_opt = AdamW(b.parameters(), lr=1e-2)
        with pytest.raises((KeyError, ValueError)):
            load_training_state(b, b_opt, tmp_path / "s.npz")

    def test_optimizer_coverage_check(self, tmp_path):
        from repro.core import save_training_state
        from repro.nn import AdamW

        cfg = tiny_config()
        m = GPT(cfg, seed=0)
        partial_opt = AdamW(m.parameters()[:2], lr=1e-2)
        with pytest.raises(ValueError):
            save_training_state(m, partial_opt, tmp_path / "x.npz")


class TestReshardRoundTripValidated:
    """Satellite of the schedule-validator work: a checkpoint saved under
    one 4D grid and restored under a different one must reproduce every
    parameter bit-for-bit, and the training step executed on the new grid
    must present a validator-clean collective schedule."""

    @pytest.mark.parametrize(
        "src,dst",
        [
            ((2, 1, 2, 1), (1, 2, 1, 2)),
            ((2, 2, 1, 1), (1, 1, 4, 1)),
            ((1, 1, 4, 1), (2, 2, 1, 1)),
        ],
    )
    def test_cross_grid_roundtrip_bit_identical_and_clean(
        self, tmp_path, src, dst
    ):
        from repro.runtime import CommTracer, validate_schedule

        cfg = tiny_config()
        serial = GPT(cfg, seed=7)
        src_grid = Grid4D(GridConfig(*src))
        par_src = ParallelGPT.from_serial(serial, src_grid)
        save_checkpoint(par_src, tmp_path / "ck.npz")

        tracer = CommTracer()
        dst_grid = Grid4D(GridConfig(*dst), tracer=tracer)
        par_dst = ParallelGPT(dst_grid, cfg, seed=99)  # different init
        load_checkpoint(par_dst, tmp_path / "ck.npz")

        # Bit-identical parameters after the save -> reshard -> load trip.
        restored = par_dst.gather_state_to_serial()
        for (n1, p1), (n2, p2) in zip(
            serial.named_parameters(), restored.named_parameters()
        ):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

        # The training step on the resharded model is schedule-clean.
        gz, gd = dst[2], dst[3]
        ids = batch(cfg, b=2 * gz * gd, seed=5)
        par_dst.loss(ids).backward()
        assert tracer.events, "resharded step recorded no schedule"
        assert validate_schedule(tracer) == []

    def test_in_memory_reshard_bit_identical_and_clean(self):
        from repro.runtime import CommTracer, validate_schedule

        cfg = tiny_config()
        serial = GPT(cfg, seed=11)
        par = ParallelGPT.from_serial(serial, Grid4D(GridConfig(2, 2, 1, 1)))
        tracer = CommTracer()
        new_grid = Grid4D(GridConfig(1, 1, 2, 2), tracer=tracer)
        resharded = ParallelGPT.from_serial(par.gather_state_to_serial(), new_grid)
        for (n1, p1), (n2, p2) in zip(
            serial.named_parameters(),
            resharded.gather_state_to_serial().named_parameters(),
        ):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        resharded.loss(batch(cfg, b=4, seed=6)).backward()
        assert validate_schedule(tracer) == []
