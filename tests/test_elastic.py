"""Elastic-grid recovery: shrink onto survivors, buddy replicas, grow.

The acceptance properties of the elastic subsystem, each pinned with
its defense-disabled twin:

* a single-rank kill recovers from the buddy replica with **zero disk
  reads** and zero lost steps (with replication disabled the same kill
  must fall back to disk and lose steps);
* a buddy-pair kill (correlated failure) falls back to the newest ring
  checkpoint **that verifies** — a deliberately corrupted newest file
  is skipped;
* post-shrink losses are **bitwise identical** to a fresh run on the
  shrunken grid from the same state (the canonical-layout reshard is
  exact, for moments as much as weights);
* reshard round-trips across unequal, non-power-of-two grids
  (8 -> 6 -> 8) preserve state bit-for-bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig
from repro.core import (
    CheckpointRing,
    Grid4D,
    GridConfig,
    ParallelGPT,
    gather_training_arrays,
    infeasibility_reason,
    load_training_arrays,
    shrink_grid,
    train_elastic,
)
from repro.nn import GPT, AdamW, MixedPrecisionTrainer
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RankFailure,
    ReplicaStore,
    default_buddies,
)


def tiny_cfg(layers=1):
    # hidden 24 / heads 4 / vocab 32 divide evenly on both the 8-rank
    # (2, 2, 2, 1) grid and its 6-rank shrink target (1, 2, 3, 1).
    return GPTConfig(
        name="elastic", num_layers=layers, hidden_size=24, num_heads=4,
        seq_len=10, vocab_size=32,
    )


GRID8 = GridConfig(2, 2, 2, 1)
BATCH = 12  # divisible by gz*gdata of every grid the tests use


def make_batches(cfg, n=4, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, cfg.vocab_size, (BATCH, 8)) for _ in range(n)]


def factory_for(cfg):
    def factory(grid_config):
        model = ParallelGPT(Grid4D(grid_config), cfg, seed=0)
        opt = AdamW(model.parameters(), lr=1e-3)
        return MixedPrecisionTrainer(model, opt)

    return factory


def from_serial_factory(cfg):
    """Factory whose parallel model carries the *serial* seed-0 weights
    (``ParallelGPT(grid, cfg, seed)`` draws its own shard-order RNG
    stream, so only ``from_serial`` models are serial-comparable)."""

    def factory(grid_config):
        model = ParallelGPT.from_serial(GPT(cfg, seed=0), Grid4D(grid_config))
        opt = AdamW(model.parameters(), lr=1e-3)
        return MixedPrecisionTrainer(model, opt)

    return factory


class TestShrinkPlanner:
    def test_prefers_largest_fitting_count(self):
        cfg = tiny_cfg()
        assert shrink_grid(cfg, 8, GRID8, BATCH).total == 8

    def test_non_power_of_two_subgrid(self):
        """6 survivors of an 8-rank grid must form a 6-rank grid, not
        collapse to the next power of two."""
        cfg = tiny_cfg()
        got = shrink_grid(cfg, 6, GRID8, BATCH)
        assert got.total == 6
        assert got.dims == (1, 2, 3, 1)

    def test_skips_counts_with_no_valid_factorization(self):
        """7 is prime and fits no axis (heads, hidden, batch all
        indivisible by 7): the planner must fall through to 6."""
        cfg = tiny_cfg()
        assert shrink_grid(cfg, 7, GRID8, BATCH).total == 6

    def test_prefers_axis_overlap_with_old_grid(self):
        cfg = tiny_cfg()
        got = shrink_grid(cfg, 4, GRID8, BATCH)
        assert got.total == 4
        # Shares two axis sizes with (2, 2, 2, 1).
        assert sum(a == b for a, b in zip(got.dims, GRID8.dims)) >= 2

    def test_deterministic(self):
        cfg = tiny_cfg()
        assert shrink_grid(cfg, 6, GRID8, BATCH) == shrink_grid(
            cfg, 6, GRID8, BATCH
        )

    def test_hostile_dims_fall_back_to_single_rank(self):
        """Awkward dimensions (prime-ish hidden/heads) still shrink:
        the 1-rank grid always fits, so the planner never dead-ends for
        a positive rank budget."""
        cfg = GPTConfig(
            name="odd", num_layers=1, hidden_size=23, num_heads=23,
            seq_len=8, vocab_size=29,
        )
        got = shrink_grid(cfg, 5, GridConfig(1, 1, 1, 1), global_batch=1)
        assert got.total == 1
        with pytest.raises(ValueError, match="max_ranks"):
            shrink_grid(cfg, 0, GridConfig(1, 1, 1, 1))

    @settings(max_examples=60, deadline=None)
    @given(
        heads=st.sampled_from([1, 2, 3, 4, 6]),
        head_dim=st.sampled_from([1, 2, 4]),
        ffn_mult=st.integers(1, 4),
        vocab=st.sampled_from([6, 8, 9, 12, 16]),
        seq_len=st.integers(2, 8),
        dims=st.tuples(*[st.sampled_from([1, 2, 3, 4])] * 5).filter(
            lambda d: math.prod(d) <= 16
        ),
        batch=st.integers(1, 8),
    )
    @example(  # 6 ranks as (1, 2, 3, 1): the elastic shrink target
        heads=4, head_dim=6, ffn_mult=4, vocab=32, seq_len=10,
        dims=(1, 2, 3, 1, 1), batch=12,
    )
    @example(  # ffn = h: hidden and FFN width shard alike
        heads=2, head_dim=2, ffn_mult=1, vocab=8, seq_len=4,
        dims=(2, 4, 1, 1, 1), batch=1,
    )
    @example(  # the sequence ring's degree does not divide seq_len
        heads=4, head_dim=6, ffn_mult=4, vocab=32, seq_len=10,
        dims=(1, 1, 1, 1, 4), batch=2,
    )
    def test_grid_fits_matches_construction(
        self, heads, head_dim, ffn_mult, vocab, seq_len, dims, batch
    ):
        """The one grid rule is exact: a ParallelGPT builds on the grid
        and runs a full-context loss over ``batch`` rows without a
        ValueError iff ``infeasibility_reason`` finds nothing wrong."""
        cfg = GPTConfig(
            name="rule", num_layers=1, hidden_size=heads * head_dim,
            num_heads=heads, seq_len=seq_len, vocab_size=vocab,
            ffn_mult=ffn_mult,
        )
        gx, gy, gz, gd, gs = dims
        grid = GridConfig(gx, gy, gz, gd, gs)
        why = infeasibility_reason(cfg, grid, batch)
        ids = np.random.default_rng(0).integers(0, vocab, (batch, seq_len))
        try:
            ParallelGPT(Grid4D(grid), cfg, seed=0).loss(ids)
            error = None
        except ValueError as exc:
            error = exc
        assert (why is None) == (error is None), f"{why=} {error=}"


class TestReshardRoundTrip:
    def test_8_to_6_to_8_bitwise(self):
        """Full state (weights + moments) survives 8 -> 6 -> 8 through
        the canonical layout, bit for bit, non-power-of-two middle."""
        cfg = tiny_cfg()
        trainer = factory_for(cfg)(GRID8)
        for ids in make_batches(cfg, n=2):
            trainer.step(ids)
        ref = gather_training_arrays(trainer.model, trainer.optimizer)

        small = factory_for(cfg)(GridConfig(1, 2, 3, 1))
        load_training_arrays(small.model, small.optimizer, ref)
        back = factory_for(cfg)(GRID8)
        load_training_arrays(
            back.model,
            back.optimizer,
            gather_training_arrays(small.model, small.optimizer),
        )
        out = gather_training_arrays(back.model, back.optimizer)
        assert set(out) == set(ref)
        for k in ref:
            np.testing.assert_array_equal(out[k], ref[k], err_msg=k)

    def test_reshard_weights_match_serial(self):
        cfg = tiny_cfg()
        model = ParallelGPT(Grid4D(GRID8), cfg, seed=3)
        ref = model.gather_state_to_serial().state_dict()
        small = ParallelGPT.from_serial(
            model.gather_state_to_serial(), Grid4D(GridConfig(1, 2, 3, 1))
        )
        got = small.gather_state_to_serial().state_dict()
        for k in ref:
            np.testing.assert_array_equal(got[k], ref[k], err_msg=k)

    def test_loss_curve_continues_across_reshard(self):
        """Train 2 steps on 8 ranks, reshard to 6, train 2 more: the
        combined curve equals the serial model's 4-step curve (the
        parallel algorithm is serial-equivalent on every grid)."""
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=4)

        serial = GPT(cfg, seed=0)
        sopt = AdamW(serial.parameters(), lr=1e-3)
        st = MixedPrecisionTrainer(serial, sopt)
        ref = [st.step(ids) for ids in batches]

        big = from_serial_factory(cfg)(GRID8)
        got = [big.step(ids) for ids in batches[:2]]
        small = from_serial_factory(cfg)(GridConfig(1, 2, 3, 1))
        load_training_arrays(
            small.model,
            small.optimizer,
            gather_training_arrays(big.model, big.optimizer),
        )
        got += [small.step(ids) for ids in batches[2:]]
        np.testing.assert_allclose(got, ref, rtol=1e-7, atol=0)


class TestBuddyRecovery:
    def test_single_kill_recovers_from_buddy_zero_disk(self, tmp_path):
        """Rank 3 dies; its buddy (rank 2) holds the replica.  Recovery
        must touch no disk (no ring is even provided), lose no steps,
        and continue the uninterrupted loss curve exactly."""
        cfg = tiny_cfg()
        batches = make_batches(cfg)
        factory = factory_for(cfg)

        ref = train_elastic(factory, GRID8, batches, global_batch=BATCH)
        assert ref.recoveries == 0 and len(ref.losses) == len(batches)

        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=3, step=2),)))
        rep = train_elastic(
            factory, GRID8, batches, injector=inj, global_batch=BATCH,
        )  # ring=None: any disk fallback would raise instead
        assert rep.buddy_restores == 1
        assert rep.disk_restores == 0
        assert rep.steps_lost == 0
        assert rep.restart_causes["kill"] == 1
        # Pre-shrink losses match the no-fault run bit for bit.
        assert rep.losses[:2] == ref.losses[:2]
        assert rep.grid_history[-1][1].total == 6

    def test_defense_disabled_kill_needs_disk_and_loses_steps(self, tmp_path):
        """Same kill with replication off: recovery must fall back to
        the ring and replay the steps since the last checkpoint."""
        cfg = tiny_cfg()
        batches = make_batches(cfg)
        factory = factory_for(cfg)
        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=3, step=3),)))
        ring = CheckpointRing(tmp_path, keep=3)
        rep = train_elastic(
            factory, GRID8, batches, injector=inj, ring=ring,
            replicate=False, checkpoint_interval=2, global_batch=BATCH,
        )
        assert rep.buddy_restores == 0
        assert rep.disk_restores == 1
        assert rep.steps_lost == 1  # killed at step 3, checkpoint at 2
        assert ring.stats["reads"] == 1

    def test_defense_disabled_and_no_ring_propagates(self):
        cfg = tiny_cfg()
        factory = factory_for(cfg)
        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=3, step=1),)))
        with pytest.raises(RankFailure):
            train_elastic(
                factory, GRID8, make_batches(cfg), injector=inj,
                replicate=False, global_batch=BATCH,
            )

    def test_replica_store_wipe_then_restore_roundtrip(self):
        """Unit-level: wipe NaNs the dead rank's shards; restore brings
        back the exact bytes; a dead buddy pair refuses."""
        cfg = tiny_cfg()
        trainer = factory_for(cfg)(GRID8)
        trainer.step(make_batches(cfg, n=1)[0])
        store = ReplicaStore(trainer.model, trainer.optimizer)
        store.commit()
        before = {
            n: p.data.copy() for n, p in trainer.model.named_parameters()
        }

        assert store.wipe([3]) > 0
        wiped_some = any(
            np.isnan(p.data).any()
            for _, p in trainer.model.named_parameters()
        )
        assert wiped_some  # defense-disabled view: state really is gone
        store.restore([3])
        for n, p in trainer.model.named_parameters():
            np.testing.assert_array_equal(p.data, before[n], err_msg=n)

        assert not store.can_restore([2, 3])  # 2 and 3 are buddies
        with pytest.raises(LookupError, match="buddy pair"):
            store.restore([2, 3])

    def test_default_buddies_pairing(self):
        assert default_buddies(8) == {
            0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6,
        }
        odd = default_buddies(5)
        assert odd[4] == 0 and all(odd[r] != r for r in odd)
        with pytest.raises(ValueError):
            default_buddies(1)


class TestCorrelatedFailure:
    def test_buddy_pair_kill_falls_back_to_verifying_checkpoint(
        self, tmp_path
    ):
        """Ranks 2+3 (a buddy pair) die together: the replica layer is
        defeated, and the newest ring checkpoint has been deliberately
        corrupted — recovery must skip it and restore from the older
        checkpoint that verifies."""
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=5)
        factory = factory_for(cfg)
        inj = FaultInjector(
            FaultPlan(
                (
                    FaultSpec("kill", rank=2, step=3),
                    FaultSpec("kill", rank=3, step=3),
                    # And the newest checkpoint (save 0 is step 0; saves
                    # 1..3 are steps 1..3) is silently corrupted on disk.
                    FaultSpec("corrupt_checkpoint", match=3),
                )
            )
        )
        ring = CheckpointRing(tmp_path, keep=4)
        rep = train_elastic(
            factory, GRID8, batches, injector=inj, ring=ring,
            checkpoint_interval=1, global_batch=BATCH,
        )
        assert rep.buddy_restores == 0
        assert rep.disk_restores == 1
        assert ring.stats["skipped_corrupt"] >= 1  # corrupted newest skipped
        assert rep.steps_lost >= 1  # rolled past the corrupted save
        assert rep.grid_history[-1][1].total == 6
        assert len(rep.losses) == len(batches)

    def test_correlated_failure_without_ring_propagates(self):
        cfg = tiny_cfg()
        factory = factory_for(cfg)
        inj = FaultInjector(
            FaultPlan(
                (
                    FaultSpec("kill", rank=2, step=1),
                    FaultSpec("kill", rank=3, step=1),
                )
            )
        )
        with pytest.raises(RankFailure):
            train_elastic(
                factory, GRID8, make_batches(cfg), injector=inj,
                global_batch=BATCH,
            )


class TestShrinkContinue:
    def test_post_shrink_losses_bitwise_equal_fresh_small_grid_run(self):
        """THE elastic acceptance property: after the shrink, every loss
        is bitwise identical to a fresh trainer built on the small grid
        and loaded with the same state — the transition is invisible."""
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=5)
        factory = factory_for(cfg)

        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=3, step=2),)))
        rep = train_elastic(
            factory, GRID8, batches, injector=inj, global_batch=BATCH,
        )
        assert rep.shrinks == 1
        shrink_step, small_config = rep.grid_history[-1]
        assert shrink_step == 2 and small_config.total == 6

        # Fresh reference: train the *same state* on the small grid from
        # the shrink point, built independently of the elastic machinery.
        ref_trainer = factory(GRID8)
        for ids in batches[:shrink_step]:
            ref_trainer.step(ids)
        small = factory(small_config)
        load_training_arrays(
            small.model,
            small.optimizer,
            gather_training_arrays(ref_trainer.model, ref_trainer.optimizer),
        )
        ref_tail = [small.step(ids) for ids in batches[shrink_step:]]
        assert rep.losses[shrink_step:] == ref_tail  # bitwise: == on floats

    def test_serial_equivalence_end_to_end(self):
        """The whole faulted elastic run still tracks the serial curve
        to fp tolerance (shrink included)."""
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=5)

        serial = GPT(cfg, seed=0)
        st = MixedPrecisionTrainer(serial, AdamW(serial.parameters(), lr=1e-3))
        ref = [st.step(ids) for ids in batches]

        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=1, step=2),)))
        rep = train_elastic(
            from_serial_factory(cfg), GRID8, batches, injector=inj,
            global_batch=BATCH,
        )
        np.testing.assert_allclose(rep.losses, ref, rtol=1e-7, atol=0)


class TestGrow:
    def test_grow_back_to_full_grid(self, tmp_path):
        """Shrink at step 1, grow back at step 3: the run ends on the
        full grid and the curve still matches the no-fault run."""
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=5)
        factory = factory_for(cfg)

        ref = train_elastic(factory, GRID8, batches, global_batch=BATCH)

        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=5, step=1),)))
        rep = train_elastic(
            factory, GRID8, batches, injector=inj, grow_step=3,
            global_batch=BATCH,
        )
        assert rep.shrinks == 1 and rep.grows == 1
        assert rep.grid_history[-1][1] == GRID8
        assert [s for s, _ in rep.grid_history] == [0, 1, 3]
        # Pre-shrink steps ran on the identical grid: bitwise equal.
        assert rep.losses[:1] == ref.losses[:1]
        # Steps on/after the small grid reduce in a different order, so
        # equality is up to fp summation order (bitwise same-grid
        # equality is pinned in TestShrinkContinue).
        np.testing.assert_allclose(rep.losses, ref.losses, rtol=1e-10, atol=0)

    def test_grow_without_shrink_is_noop(self):
        cfg = tiny_cfg()
        rep = train_elastic(
            factory_for(cfg), GRID8, make_batches(cfg, n=3), grow_step=1,
            global_batch=BATCH,
        )
        assert rep.grows == 0
        assert rep.grid_history == [(0, GRID8)]


class TestTransientFaults:
    def test_torn_ring_write_recovers_in_place(self, tmp_path):
        """A torn checkpoint write mid-run is a transient (no dead rank)
        fault: recovery re-forms the *same* grid from the intact
        in-memory masters — no shrink, no disk restore, no lost steps —
        and the loss curve is bitwise identical to the no-fault run."""
        cfg = tiny_cfg()
        batches = make_batches(cfg)
        factory = factory_for(cfg)
        ref = train_elastic(factory, GRID8, batches, global_batch=BATCH)

        inj = FaultInjector(FaultPlan((FaultSpec("torn_write", match=2),)))
        ring = CheckpointRing(tmp_path, keep=8)
        rep = train_elastic(
            factory, GRID8, batches, injector=inj, ring=ring,
            checkpoint_interval=1, global_batch=BATCH,
        )
        assert inj.stats["torn_writes"] == 1
        assert rep.restart_causes["corruption"] == 1
        assert rep.shrinks == 0
        assert rep.disk_restores == 0
        assert rep.steps_lost == 0
        assert rep.grid_history[-1][1] == GRID8
        assert rep.losses == ref.losses  # bitwise: same grid throughout
        assert len(rep.losses) == len(batches)
