"""Checkpoint integrity: atomic writes, CRC manifests, the ring.

The checkpoint is a failure domain of its own: a node can die *during*
the write (torn file) and storage can corrupt bytes silently.  These
tests pin the three defenses — tmp + ``os.replace`` atomicity, the
per-array CRC32 manifest, and the keep-last-K ring's fall-back to the
newest checkpoint that verifies — and, crucially, that each test fails
when the corresponding defense is disabled (``atomic=False``, stale
manifest, corrupted newest ring entry).
"""

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import (
    CheckpointRing,
    Grid4D,
    GridConfig,
    ParallelGPT,
    load_checkpoint,
    load_training_state,
    save_checkpoint,
    save_training_state,
    verify_checkpoint,
)
from repro.core.checkpoint_io import MANIFEST_KEY, _atomic_savez
from repro.nn import GPT, AdamW
from repro.runtime import (
    CheckpointCorruptionError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    TornWriteError,
    fault_scope,
)


def tiny_cfg():
    return GPTConfig(
        name="integ", num_layers=1, hidden_size=16, num_heads=4,
        seq_len=8, vocab_size=32,
    )


def serial_pair(cfg, seed=0, lr=1e-3):
    model = GPT(cfg, seed=seed)
    opt = AdamW(model.parameters(), lr=lr)
    return model, opt


def take_steps(model, opt, n=2, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        ids = rng.integers(0, model.cfg.vocab_size, (2, 6))
        model.loss(ids).backward()
        opt.step()
        model.zero_grad()


class TestAtomicWrite:
    def test_torn_write_leaves_previous_checkpoint_intact(self, tmp_path):
        """A torn write must only tear the tmp file: the previous
        checkpoint survives byte-for-byte and still verifies."""
        cfg = tiny_cfg()
        model, opt = serial_pair(cfg)
        path = tmp_path / "state.npz"
        inj = FaultInjector(FaultPlan((FaultSpec("torn_write", match=1),)))
        save_training_state(model, opt, path, injector=inj)  # save 0: clean
        before = path.read_bytes()

        take_steps(model, opt)
        with pytest.raises(TornWriteError):
            save_training_state(model, opt, path, injector=inj)
        assert inj.stats["torn_writes"] == 1
        assert path.read_bytes() == before
        verify_checkpoint(path)  # still loads clean

    def test_torn_write_without_atomicity_destroys_checkpoint(self, tmp_path):
        """Defense disabled: with ``atomic=False`` the same torn write
        lands on the live file and corrupts it — why tmp+replace exists."""
        cfg = tiny_cfg()
        model, opt = serial_pair(cfg)
        path = tmp_path / "state.npz"
        inj = FaultInjector(FaultPlan((FaultSpec("torn_write", match=1),)))
        save_training_state(model, opt, path, injector=inj)

        take_steps(model, opt)
        with pytest.raises(TornWriteError):
            save_training_state(model, opt, path, injector=inj, atomic=False)
        with pytest.raises(CheckpointCorruptionError):
            verify_checkpoint(path)

    def test_ambient_injector_is_picked_up(self, tmp_path):
        """Saves inside a fault_scope see the scope's injector without
        explicit plumbing."""
        cfg = tiny_cfg()
        model, opt = serial_pair(cfg)
        inj = FaultInjector(FaultPlan((FaultSpec("torn_write", match=0),)))
        with fault_scope(inj):
            with pytest.raises(TornWriteError):
                save_training_state(model, opt, tmp_path / "s.npz")


class TestCRCManifest:
    def test_roundtrip_verifies(self, tmp_path):
        arrays = {
            "a": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.ones(5, dtype=np.float32),
        }
        _atomic_savez(tmp_path / "x.npz", arrays)
        out = verify_checkpoint(tmp_path / "x.npz")
        assert set(out) == {"a", "b"}
        np.testing.assert_array_equal(out["a"], arrays["a"])

    def test_single_flipped_byte_caught_in_every_array(self, tmp_path):
        """Mutation sweep: flip one byte in each array (keeping the
        stale manifest) — the manifest must catch every single one."""
        arrays = {
            "w": np.linspace(0, 1, 32).reshape(4, 8),
            "m": np.zeros(16),
            "v": np.full((2, 3), 7.0),
            "t": np.asarray(9),
        }
        path = tmp_path / "x.npz"
        _atomic_savez(path, arrays)
        with np.load(path) as data:
            saved = {k: data[k] for k in data.files}
        manifest = saved.pop(MANIFEST_KEY)

        for name in arrays:
            mutated = {k: v.copy() for k, v in saved.items()}
            raw = (
                np.ascontiguousarray(mutated[name]).reshape(-1).view(np.uint8)
            )
            raw[raw.size // 2] ^= 0xFF
            mutated[name] = raw.view(saved[name].dtype).reshape(
                saved[name].shape
            )
            evil = tmp_path / f"evil-{name}.npz"
            # Re-save with the *original* manifest: only the CRC check
            # stands between this file and a silent bad restore.
            np.savez(evil, **mutated, **{MANIFEST_KEY: manifest})
            with pytest.raises(CheckpointCorruptionError, match=name):
                verify_checkpoint(evil)

    def test_missing_manifest_rejected(self, tmp_path):
        np.savez(tmp_path / "x.npz", a=np.ones(3))
        with pytest.raises(CheckpointCorruptionError, match="manifest"):
            verify_checkpoint(tmp_path / "x.npz")

    def test_dropped_and_added_arrays_rejected(self, tmp_path):
        path = tmp_path / "x.npz"
        _atomic_savez(path, {"a": np.ones(3), "b": np.zeros(2)})
        with np.load(path) as data:
            saved = {k: data[k] for k in data.files}
        dropped = {k: v for k, v in saved.items() if k != "b"}
        np.savez(tmp_path / "drop.npz", **dropped)
        with pytest.raises(CheckpointCorruptionError, match="inventory"):
            verify_checkpoint(tmp_path / "drop.npz")
        saved["c"] = np.ones(1)
        np.savez(tmp_path / "extra.npz", **saved)
        with pytest.raises(CheckpointCorruptionError, match="inventory"):
            verify_checkpoint(tmp_path / "extra.npz")

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "x.npz"
        _atomic_savez(path, {"a": np.arange(100.0)})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointCorruptionError):
            verify_checkpoint(path)


class TestLoadCheckpointVerifies:
    """``load_checkpoint`` has one read path, :func:`verify_checkpoint`."""

    def test_half_written_file_raises_typed_error(self, tmp_path):
        model = GPT(tiny_cfg(), seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointCorruptionError, match="unreadable"):
            load_checkpoint(GPT(tiny_cfg(), seed=1), path)

    def test_stripped_manifest_and_altered_array_rejected(self, tmp_path):
        model = GPT(tiny_cfg(), seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != MANIFEST_KEY}
        name = sorted(arrays)[0]
        arrays[name] = arrays[name] + 1.0
        np.savez(path, **arrays)
        target = GPT(tiny_cfg(), seed=1)
        before = {k: v.copy() for k, v in target.state_dict().items()}
        with pytest.raises(CheckpointCorruptionError, match="manifest"):
            load_checkpoint(target, path)
        for k, v in target.state_dict().items():
            np.testing.assert_array_equal(v, before[k])


class TestCorruptCheckpointFault:
    def test_injected_corruption_caught_on_load(self, tmp_path):
        """The ``corrupt_checkpoint`` fault flips a bit silently after
        the write; the verifying loader must refuse the file."""
        cfg = tiny_cfg()
        model, opt = serial_pair(cfg)
        inj = FaultInjector(FaultPlan((FaultSpec("corrupt_checkpoint", match=0),)))
        path = tmp_path / "state.npz"
        save_training_state(model, opt, path, injector=inj)  # no raise
        assert inj.stats["ckpt_corruptions"] == 1
        with pytest.raises(CheckpointCorruptionError):
            load_training_state(model, opt, path)


class TestMomentPairing:
    def test_reordered_optimizer_params_restore_correctly(self, tmp_path):
        """Regression for the positional-zip bug: an optimizer whose
        parameter list is *reversed* relative to ``named_parameters()``
        (plenty of coincidentally-equal shapes in a transformer) must
        still get each moment back into the right slot."""
        cfg = tiny_cfg()
        model = GPT(cfg, seed=0)
        params = list(model.parameters())
        opt = AdamW(list(reversed(params)), lr=1e-3)
        take_steps(model, opt)
        saved_m = [m.copy() for m in opt._m]

        path = tmp_path / "state.npz"
        save_training_state(model, opt, path)

        # Fresh pair, same reversed order: moments must land where they
        # came from, not wherever position points.
        model2 = GPT(cfg, seed=1)
        opt2 = AdamW(list(reversed(list(model2.parameters()))), lr=1e-3)
        load_training_state(model2, opt2, path)
        for got, want in zip(opt2._m, saved_m):
            np.testing.assert_array_equal(got, want)

    def test_moment_shape_mismatch_rejected(self, tmp_path):
        """A checkpoint whose adam_m:: array shape disagrees with the
        parameter is refused, not silently broadcast."""
        cfg = tiny_cfg()
        model, opt = serial_pair(cfg)
        path = tmp_path / "state.npz"
        save_training_state(model, opt, path)
        arrays = verify_checkpoint(path)
        name = next(
            k for k in arrays if k.startswith("adam_m::") and arrays[k].ndim >= 1
        )
        arrays[name] = arrays[name][..., :-1]
        _atomic_savez(path, arrays)
        with pytest.raises(ValueError, match="shape mismatch"):
            load_training_state(model, opt, path)


class TestCheckpointRing:
    def make_pair(self, grid=None):
        cfg = tiny_cfg()
        if grid is None:
            model = GPT(cfg, seed=0)
        else:
            model = ParallelGPT(Grid4D(grid), cfg, seed=0)
        opt = AdamW(model.parameters(), lr=1e-3)
        return model, opt

    def test_keeps_last_k_and_prunes(self, tmp_path):
        model, opt = self.make_pair()
        ring = CheckpointRing(tmp_path, keep=2)
        for step in (0, 1, 2, 3):
            ring.save(model, opt, step)
        assert ring.steps() == [2, 3]
        assert ring.stats["pruned"] == 2

    def test_falls_back_to_newest_verifying(self, tmp_path):
        """Corrupt the newest checkpoint: restore must skip it and use
        the next-newest that verifies, not die and not trust garbage."""
        cfg = tiny_cfg()
        model, opt = self.make_pair()
        ring = CheckpointRing(tmp_path, keep=3)
        take_steps(model, opt, n=1, seed=0)
        ring.save(model, opt, 1)
        state_at_1 = {n: p.data.copy() for n, p in model.named_parameters()}
        take_steps(model, opt, n=1, seed=1)
        ring.save(model, opt, 2)

        # Silent corruption of the newest file.
        newest = ring.path_for(2)
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        newest.write_bytes(bytes(raw))

        model2, opt2 = self.make_pair()
        step = ring.restore(model2, opt2)
        assert step == 1
        assert ring.stats["skipped_corrupt"] == 1
        for name, p in model2.named_parameters():
            np.testing.assert_array_equal(p.data, state_at_1[name])

    def test_defense_disabled_plain_load_accepts_corruption(self, tmp_path):
        """The zip container's own CRC only covers raw byte flips; a
        corruption that re-writes the file *consistently* (buggy
        copy/repack, truncated-then-padded array — modeled here by
        re-saving a mutated array) sails through plain ``np.load``.
        Only the manifest's independent per-array CRC catches it."""
        model, opt = self.make_pair()
        ring = CheckpointRing(tmp_path, keep=2)
        ring.save(model, opt, 1)
        newest = ring.path_for(1)
        with np.load(newest) as data:
            saved = {k: data[k] for k in data.files}
        victim = next(k for k in saved if k.startswith("param::"))
        corrupted = dict(saved)
        corrupted[victim] = saved[victim] + 1e-3  # silent value drift
        np.savez(newest, **corrupted)  # consistent re-pack, stale manifest
        with np.load(newest) as data:
            loaded = {k: data[k] for k in data.files}  # no error raised
        assert loaded  # plain np.load happily returned corrupted arrays
        with pytest.raises(CheckpointCorruptionError, match="CRC32"):
            verify_checkpoint(newest)

    def test_nothing_verifies_raises(self, tmp_path):
        model, opt = self.make_pair()
        ring = CheckpointRing(tmp_path, keep=2)
        ring.save(model, opt, 1)
        p = ring.path_for(1)
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointCorruptionError, match="no checkpoint"):
            ring.restore(model, opt)

    def test_ring_restores_across_grids(self, tmp_path):
        """The ring stores the canonical layout: a checkpoint written by
        an 8-rank grid restores onto a 4-rank grid (and serial)."""
        model, opt = self.make_pair(GridConfig(2, 2, 2, 1))
        ring = CheckpointRing(tmp_path, keep=2)
        ring.save(model, opt, 5)
        serial_ref = model.gather_state_to_serial().state_dict()

        small, sopt = self.make_pair(GridConfig(1, 2, 2, 1))
        assert ring.restore(small, sopt) == 5
        got = small.gather_state_to_serial().state_dict()
        for name in serial_ref:
            np.testing.assert_array_equal(got[name], serial_ref[name])

        ser, ser_opt = self.make_pair()
        assert ring.restore(ser, ser_opt) == 5
        for name, p in ser.named_parameters():
            np.testing.assert_array_equal(p.data, serial_ref[name])
