"""The one fault-tolerant training loop against the two it replaced.

``nn/training.py::_train_fault_tolerant`` is the only step / save /
recover / rewind loop; :func:`train_with_recovery` and
:func:`train_elastic` are strategies over it.  The two pre-merge bodies
are kept here, verbatim, as reference drivers, and a seeded differential
runs random compound fault plans through both sides and compares, with
``==``: ``report.to_json()``, the losses as ``float.hex()``, the sha1 of
every file left on disk, ``CheckpointRing.stats``,
``FaultInjector.stats``, the type of a propagated fault and the
``train.*`` / ``ckpt.*`` telemetry counters.  The one permitted
difference is ``train.steps_lost`` on the elastic side, which the old
elastic body never emitted.

The rest pins what rides along: the recovery span, the lost-step
counter, validation before the factory runs, and a shrink that keeps the
sequence axis and the collective routing.
"""

import hashlib
import inspect
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import (
    CheckpointRing,
    ElasticReport,
    Grid4D,
    GridConfig,
    ParallelGPT,
    gather_training_arrays,
    infeasibility_reason,
    load_training_arrays,
    load_training_state,
    save_training_state,
    shrink_grid,
    train_elastic,
)
from repro.nn import (
    AdamW,
    MixedPrecisionTrainer,
    RecoveryReport,
    train_with_recovery,
)
from repro.nn.training import _split_batch
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ReplicaStore,
    fault_scope,
)
from repro.runtime.faults import FaultError, fault_cause
from repro.telemetry import Tracer, telemetry_scope
from repro.telemetry.spans import get_tracer as _telemetry

# -- the oracle: the two pre-merge loops, verbatim ------------------------------
#
# One change to both since the merge: the tail save (the final state of a
# run whose length is not a multiple of the interval) is written inside
# the recovery net, as `_train_fault_tolerant`'s is, and not after the
# loop, where a torn write escaped it.


def _ref_train_with_recovery(
    trainer_factory: Callable[[], MixedPrecisionTrainer],
    batches: Sequence,
    checkpoint_path: str | Path,
    *,
    checkpoint_interval: int = 1,
    injector=None,
    max_restarts: int = 3,
) -> RecoveryReport:
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    trainer = trainer_factory()
    report = RecoveryReport()
    save_training_state(trainer.model, trainer.optimizer, checkpoint_path)
    report.checkpoint_saves += 1
    last_saved = 0
    step = 0
    while step < len(batches):
        if injector is not None:
            injector.start_step(step)
        ids, mask = _split_batch(batches[step])
        try:
            with fault_scope(injector):
                loss = trainer.step(ids, loss_mask=mask)
            report.losses.append(loss)
            step += 1
            # The checkpoint write lives inside the recovery net too: a
            # torn write raises here, rolls back to the previous (still
            # intact, thanks to the atomic-replace protocol) checkpoint,
            # and re-runs the window instead of killing the job.  The
            # final state of a run whose length is not a multiple of the
            # interval is written here as well (the tail save).
            if step % checkpoint_interval == 0 or step == len(batches):
                save_training_state(
                    trainer.model, trainer.optimizer, checkpoint_path,
                    injector=injector,
                )
                report.checkpoint_saves += 1
                last_saved = step
        except FaultError as exc:
            report.restart_causes[fault_cause(exc)] += 1
            if injector is None or report.restarts >= max_restarts:
                raise
            report.restarts += 1
            tel = _telemetry()
            if tel is not None:
                tel.metrics.counter("train.restarts").add(1)
                tel.metrics.counter("train.steps_lost").add(step - last_saved)
            report.resumed_from.append(last_saved)
            report.steps_lost += step - last_saved
            injector.restart()
            trainer = trainer_factory()
            load_training_state(trainer.model, trainer.optimizer, checkpoint_path)
            del report.losses[last_saved:]
            step = last_saved
            continue
    return report


def _ref_train_elastic(
    trainer_factory: Callable[[GridConfig], MixedPrecisionTrainer],
    initial_config: GridConfig,
    batches: Sequence,
    *,
    injector=None,
    ring: CheckpointRing | None = None,
    replicate: bool = True,
    checkpoint_interval: int = 1,
    grow_step: int | None = None,
    max_recoveries: int = 8,
    global_batch: int | None = None,
) -> ElasticReport:
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    config = initial_config
    trainer = trainer_factory(config)
    report = ElasticReport()
    report.grid_history.append((0, config))

    def make_store(t) -> ReplicaStore | None:
        if not replicate or t.model.grid.config.total < 2:
            return None
        s = ReplicaStore(t.model, t.optimizer)
        s.commit()
        return s

    store = make_store(trainer)
    if ring is not None:
        ring.save(trainer.model, trainer.optimizer, 0, injector=injector)
        report.checkpoint_saves += 1
    last_saved = 0
    step = 0
    grown = False
    while step < len(batches) or (ring is not None and last_saved != step):
        # Past the last batch only the tail save is left to (re)try.
        tail = step == len(batches)
        if (
            not tail
            and grow_step is not None
            and step >= grow_step
            and not grown
            and config != initial_config
        ):
            grown = True
            # The replacement capacity arrived: re-lay the current state
            # onto the full grid and continue — the inverse of a shrink,
            # through the same canonical arrays.
            arrays = gather_training_arrays(trainer.model, trainer.optimizer)
            if injector is not None:
                injector.restart()
            config = initial_config
            trainer = trainer_factory(config)
            load_training_arrays(trainer.model, trainer.optimizer, arrays)
            store = make_store(trainer)
            report.grows += 1
            report.grid_history.append((step, config))
        if injector is not None and not tail:
            injector.start_step(step)
        try:
            if not tail:
                ids, mask = _split_batch(batches[step])
                with fault_scope(injector):
                    loss = trainer.step(ids, loss_mask=mask)
                report.losses.append(loss)
                step += 1
                if store is not None:
                    store.commit()
            if ring is not None and (
                step % checkpoint_interval == 0 or step == len(batches)
            ):
                ring.save(trainer.model, trainer.optimizer, step, injector=injector)
                report.checkpoint_saves += 1
                last_saved = step
        except FaultError as exc:
            report.restart_causes[fault_cause(exc)] += 1
            if injector is None or report.recoveries >= max_recoveries:
                raise
            report.recoveries += 1
            tel = _telemetry()
            if tel is not None:
                tel.metrics.counter("train.recoveries").add(1)
            # Re-formation health check: discover *every* rank dead by
            # now (a collective only surfaces the first), so a buddy
            # pair dying together is seen as one correlated failure.
            dead = sorted(injector.collect_armed_kills(total=config.total))
            if not dead:
                # Transient fault (timeout past the retry budget, torn
                # checkpoint write): the fp32 masters and moments are
                # intact — faults fire in communication, never inside
                # the local optimizer update, and the bf16 swap restores
                # masters on the way out — so recover in place: gather
                # the live state, re-form the same grid, reload.  No
                # disk, no lost steps.
                arrays = gather_training_arrays(
                    trainer.model, trainer.optimizer
                )
                injector.restart()
                trainer = trainer_factory(config)
                load_training_arrays(trainer.model, trainer.optimizer, arrays)
                store = make_store(trainer)
                continue
            resume = step
            if store is not None:
                store.wipe(dead)
            if store is not None and store.can_restore(dead):
                # Single-rank (uncorrelated) failure: the buddy holds a
                # current copy — restore over the interconnect.  Zero
                # disk reads, zero steps lost.
                store.restore(dead)
                arrays = gather_training_arrays(
                    trainer.model, trainer.optimizer
                )
                report.buddy_restores += 1
            else:
                # Correlated failure (buddy pair died together) or
                # replication disabled: fall back to the newest ring
                # checkpoint that verifies.
                if ring is None:
                    raise
                found = ring.latest_verifying()
                if found is None:
                    raise
                resume, arrays = found
                report.disk_restores += 1
                report.steps_lost += step - resume
            config = shrink_grid(
                trainer.model.cfg, config.total - len(dead), config,
                global_batch,
            )
            injector.restart()
            trainer = trainer_factory(config)
            load_training_arrays(trainer.model, trainer.optimizer, arrays)
            store = make_store(trainer)
            report.shrinks += 1
            report.grid_history.append((resume, config))
            del report.losses[resume:]
            step = resume
    return report


# -- the seeded differential ----------------------------------------------------

KINDS = ("kill", "torn_write", "corrupt_checkpoint", "bitflip")
#: Initial grids of the elastic cases, ``gs == 1`` only: hidden 24 and
#: batch 12 fit each of them and every sub-grid they shrink to.
ELASTIC_GRIDS = (
    GridConfig(2, 2, 2, 1), GridConfig(2, 2, 1, 1), GridConfig(1, 2, 2, 1),
)
RESTART_GRID = GridConfig(1, 2, 2)
BATCH = 12


def _cfg(hidden):
    return GPTConfig(
        name="loop", num_layers=1, hidden_size=hidden, num_heads=4,
        seq_len=10, vocab_size=32,
    )


def _trainer(cfg, grid_config):
    model = ParallelGPT(Grid4D(grid_config), cfg, seed=0)
    return MixedPrecisionTrainer(model, AdamW(model.parameters(), lr=1e-3))


def _batches(n, batch, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 32, (batch, 8)) for _ in range(n)]


def _random_case(seed, loop):
    """One seeded run description: everything both sides are called
    with is a function of ``(seed, loop)`` alone."""
    rng = np.random.default_rng([seed, loop == "elastic"])

    def pick(lo, hi):
        return int(rng.integers(lo, hi))

    grid = ELASTIC_GRIDS[pick(0, 3)] if loop == "elastic" else RESTART_GRID
    steps = pick(3, 7)
    faults = tuple(
        FaultSpec(
            kind=KINDS[pick(0, 4)], rank=pick(0, grid.total),
            step=pick(0, steps), match=pick(0, steps + 2), bit=pick(0, 8),
        )
        for _ in range(pick(1, 4))
    )
    case = {
        "loop": loop, "seed": seed, "grid": grid, "steps": steps,
        "faults": faults, "interval": pick(1, 4), "budget": pick(1, 5),
    }
    if loop == "elastic":
        case.update(
            keep=pick(1, 4) if pick(0, 4) else None,  # None: no ring
            replicate=bool(pick(0, 2)),
            grow_step=pick(1, steps) if pick(0, 2) else None,
        )
    return case


def _run_case(case, root, restart_loop, elastic_loop):
    """Run one side of a case in ``root``; return everything compared."""
    injector = FaultInjector(FaultPlan(case["faults"], seed=case["seed"]))
    tracer = Tracer()
    ring = None
    out = {"raised": None}
    try:
        with telemetry_scope(tracer):
            if case["loop"] == "restart":
                cfg = _cfg(16)
                report = restart_loop(
                    lambda: _trainer(cfg, case["grid"]),
                    _batches(case["steps"], 2), root / "state.npz",
                    checkpoint_interval=case["interval"], injector=injector,
                    max_restarts=case["budget"],
                )
            else:
                cfg = _cfg(24)
                if case["keep"] is not None:
                    ring = CheckpointRing(root / "ring", keep=case["keep"])
                report = elastic_loop(
                    lambda grid_config: _trainer(cfg, grid_config),
                    case["grid"], _batches(case["steps"], BATCH),
                    injector=injector, ring=ring,
                    replicate=case["replicate"],
                    checkpoint_interval=case["interval"],
                    grow_step=case["grow_step"],
                    max_recoveries=case["budget"], global_batch=BATCH,
                )
        out["report"] = report.to_json()
        out["losses"] = [float(x).hex() for x in report.losses]
    except FaultError as exc:
        out["raised"] = type(exc).__name__
    out["files"] = {
        str(p.relative_to(root)): hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }
    out["ring"] = None if ring is None else dict(ring.stats)
    out["injector"] = dict(injector.stats)
    out["telemetry"] = {
        name: value for name, value in tracer.metrics.as_dict().items()
        if name.startswith(("train.", "ckpt."))
    }
    return out


def _assert_same_as_reference(case, tmp_path):
    (tmp_path / "ref").mkdir()
    (tmp_path / "new").mkdir()
    ref = _run_case(
        case, tmp_path / "ref", _ref_train_with_recovery, _ref_train_elastic
    )
    new = _run_case(
        case, tmp_path / "new", train_with_recovery, train_elastic
    )
    if case["loop"] == "elastic" and "train.recoveries" in new["telemetry"]:
        # The permitted difference: the old elastic body never emitted it.
        assert "train.steps_lost" not in ref["telemetry"]
        lost = new["telemetry"].pop("train.steps_lost", None)
        if new["raised"] is None:
            assert lost == new["report"]["steps_lost"]
    if ref["raised"] == "CheckpointCorruptionError":
        # Only the restart loop's reload raises this (the ring walk
        # swallows it), and then the job is lost.  The old body had
        # already counted the steps it was about to replay; the driver
        # counts them once the rewind has happened, so here it counts
        # none of them.
        assert case["loop"] == "restart"
        assert "train.steps_lost" in ref["telemetry"]
        for side in (ref, new):
            side["telemetry"].pop("train.steps_lost", None)
    assert new == ref, case
    return new


@pytest.mark.parametrize("loop", ["restart", "elastic"])
@pytest.mark.parametrize("seed", range(12))
def test_one_loop_matches_the_two_it_replaced(seed, loop, tmp_path):
    _assert_same_as_reference(_random_case(seed, loop), tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("loop", ["restart", "elastic"])
def test_one_loop_matches_the_two_it_replaced_sweep(loop, tmp_path):
    """With tier-1's 12 seeds per loop, the 240-case sweep."""
    for seed in range(12, 120):
        root = tmp_path / str(seed)
        root.mkdir()
        _assert_same_as_reference(_random_case(seed, loop), root)


# -- what the driver emits, for either strategy ---------------------------------

GRID8 = ELASTIC_GRIDS[0]
KILL_3_AT_2 = FaultPlan((FaultSpec("kill", rank=3, step=2),))
KILL_3_AT_3 = FaultPlan((FaultSpec("kill", rank=3, step=3),))


def _elastic(tmp_path=None, *, plan=KILL_3_AT_2, grid=GRID8, **kw):
    cfg = _cfg(24)
    if tmp_path is not None:
        kw["ring"] = CheckpointRing(tmp_path, keep=3)
    return train_elastic(
        lambda grid_config: _trainer(cfg, grid_config), grid,
        _batches(4, BATCH), injector=FaultInjector(plan),
        global_batch=BATCH, **kw,
    )


def _restart(tmp_path, *, plan=KILL_3_AT_2, **kw):
    cfg = _cfg(16)
    return train_with_recovery(
        lambda: _trainer(cfg, RESTART_GRID), _batches(4, 2),
        tmp_path / "state.npz", injector=FaultInjector(plan), **kw,
    )


class TestLostStepCounter:
    """``train.steps_lost`` comes from the driver, so both strategies
    emit it (the old elastic body emitted ``train.recoveries`` only)."""

    def test_disk_restore_counts_the_replayed_steps(self, tmp_path):
        with telemetry_scope(Tracer()) as tracer:
            rep = _elastic(
                tmp_path, plan=KILL_3_AT_3, replicate=False,
                checkpoint_interval=2,
            )
        assert rep.disk_restores == 1 and rep.steps_lost >= 1
        assert tracer.metrics.value("train.steps_lost") == rep.steps_lost
        assert tracer.metrics.value("train.recoveries") == rep.recoveries == 1
        assert "train.restarts" not in tracer.metrics

    def test_buddy_restore_counts_zero(self):
        with telemetry_scope(Tracer()) as tracer:
            rep = _elastic()
        assert rep.buddy_restores == 1 and rep.steps_lost == 0
        assert "train.steps_lost" in tracer.metrics
        assert tracer.metrics.value("train.steps_lost") == 0

    def test_restart_counters_keep_their_names(self, tmp_path):
        with telemetry_scope(Tracer()) as tracer:
            rec = _restart(tmp_path, plan=KILL_3_AT_3, checkpoint_interval=2)
        assert rec.steps_lost == 1
        assert tracer.metrics.value("train.restarts") == rec.restarts == 1
        assert tracer.metrics.value("train.steps_lost") == rec.steps_lost
        assert "train.recoveries" not in tracer.metrics


class TestRecoverySpan:
    """One ``train.recovery`` span per survived fault, around the
    strategy's ``recover``."""

    @staticmethod
    def _spans(tracer):
        return [s for s in tracer.spans if s.name == "train.recovery"]

    def test_restart_strategy(self, tmp_path):
        plan = FaultPlan(
            (FaultSpec("kill", rank=1, step=1), FaultSpec("kill", rank=2, step=3))
        )
        with telemetry_scope(Tracer()) as tracer:
            rec = _restart(tmp_path, plan=plan, checkpoint_interval=2)
        spans = self._spans(tracer)
        assert rec.restarts == 2
        assert [s.args["resume"] for s in spans] == rec.resumed_from
        assert sum(s.args["steps_lost"] for s in spans) == rec.steps_lost
        assert {s.cat for s in spans} == {"train"}
        assert [s.args["cause"] for s in spans] == ["kill", "kill"]
        assert [s.args["step"] for s in spans] == [1, 3]

    def test_elastic_strategy(self, tmp_path):
        with telemetry_scope(Tracer()) as tracer:
            rep = _elastic(
                tmp_path, plan=KILL_3_AT_3, replicate=False,
                checkpoint_interval=2,
            )
        (span,) = self._spans(tracer)
        assert rep.recoveries == 1
        assert span.args["resume"] == rep.grid_history[-1][0]
        assert span.args["steps_lost"] == rep.steps_lost
        assert span.args["steps_lost"] == 1
        assert (span.args["cause"], span.args["step"]) == ("kill", 3)


class TestSurface:
    def test_interval_is_validated_before_the_factory_runs(self, tmp_path):
        calls = []

        def factory(*args):
            calls.append(args)

        with pytest.raises(ValueError, match="checkpoint_interval"):
            train_with_recovery(
                factory, [], tmp_path / "s.npz", checkpoint_interval=0
            )
        with pytest.raises(ValueError, match="checkpoint_interval"):
            train_elastic(factory, GRID8, [], checkpoint_interval=0)
        assert calls == []

    def test_signatures_unchanged(self):
        def keyword_only(fn):
            params = inspect.signature(fn).parameters.values()
            return [p.name for p in params if p.kind is p.KEYWORD_ONLY]

        assert keyword_only(train_with_recovery) == [
            "checkpoint_interval", "injector", "max_restarts",
        ]
        assert keyword_only(train_elastic) == [
            "injector", "ring", "replicate", "checkpoint_interval",
            "grow_step", "max_recoveries", "global_batch",
        ]


# -- a shrink keeps the sequence axis and the collective routing ----------------


class TestShrinkKeepsSequenceAxis:
    SEQ_GRID = GridConfig(2, 1, 1, 2, gs=2)

    def test_sequence_axis_survives_the_shrink(self):
        got = shrink_grid(_cfg(24), 7, self.SEQ_GRID, BATCH)
        assert got.full_dims == (1, 1, 1, 3, 2)

    def test_ring_degree_never_grows(self):
        for n in range(1, 9):
            assert shrink_grid(_cfg(24), n, self.SEQ_GRID, BATCH).gs <= 2
            assert shrink_grid(_cfg(24), n, GRID8, BATCH).gs == 1

    def test_collective_routing_survives_the_shrink(self):
        old = GridConfig(2, 2, 2, 1, collective_algo="hierarchical")
        got = shrink_grid(_cfg(24), 7, old, BATCH)
        assert got.dims == (1, 2, 3, 1)
        assert got.collective_algo == "hierarchical"

    def test_grid_fits_checks_the_sequence_axis(self):
        cfg = _cfg(24)  # seq_len 10
        assert infeasibility_reason(cfg, GridConfig(1, 1, 1, 1, gs=2)) is None
        assert infeasibility_reason(cfg, GridConfig(1, 1, 1, 1, gs=4))
        # What the rule says of a full-context batch, ParallelGPT enforces.
        ids = np.zeros((2, cfg.seq_len), dtype=np.int64)
        model = ParallelGPT(Grid4D(GridConfig(1, 1, 1, 1, gs=4)), cfg)
        with pytest.raises(ValueError, match="G_seq"):
            model.loss(ids)

    def test_sequence_parallel_job_shrinks_bitwise_exact(self):
        """Kill one of 8 ranks of a ``gs = 2`` job: it continues on a
        ring-attention grid, and the post-shrink losses equal a fresh
        run on that grid from the same state, bit for bit."""
        cfg = _cfg(24)
        batches = _batches(4, BATCH)
        rep = _elastic(grid=self.SEQ_GRID)
        assert rep.buddy_restores == 1 and rep.shrinks == 1
        assert rep.grid_history[-1][1].full_dims == (1, 1, 1, 3, 2)

        big = _trainer(cfg, self.SEQ_GRID)
        for ids in batches[:2]:
            big.step(ids)
        small = _trainer(cfg, rep.grid_history[-1][1])
        load_training_arrays(
            small.model, small.optimizer,
            gather_training_arrays(big.model, big.optimizer),
        )
        assert [small.step(ids) for ids in batches[2:]] == rep.losses[2:]


class TestTornTailSave:
    """The final save of a run whose length is not a multiple of the
    interval is inside the recovery net like every other save: with 3
    batches at interval 2, the saves under the injector are step 2
    (``match=0``) and the tail, step 3 (``match=1``)."""

    TORN_TAIL = FaultPlan((FaultSpec("torn_write", match=1),))

    def test_restart_strategy_recovers(self, tmp_path):
        cfg = _cfg(16)
        batches = _batches(3, 2)
        rep = train_with_recovery(
            lambda: _trainer(cfg, RESTART_GRID), batches,
            tmp_path / "state.npz", checkpoint_interval=2,
            injector=FaultInjector(self.TORN_TAIL),
        )
        clean = train_with_recovery(
            lambda: _trainer(cfg, RESTART_GRID), batches,
            tmp_path / "clean.npz", checkpoint_interval=2,
        )
        assert rep.restarts == 1
        assert rep.restart_causes == {"corruption": 1}
        assert rep.resumed_from == [2] and rep.steps_lost == 1
        assert [x.hex() for x in rep.losses] == [x.hex() for x in clean.losses]
        # The step-3 state is on disk: what a resume would load.
        written, expected = _trainer(cfg, RESTART_GRID), _trainer(cfg, RESTART_GRID)
        load_training_state(written.model, written.optimizer, tmp_path / "state.npz")
        load_training_state(expected.model, expected.optimizer, tmp_path / "clean.npz")
        assert written.optimizer.t == 3
        for a, b in zip(written.model.parameters(), expected.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_elastic_strategy_writes_the_tail_again(self, tmp_path):
        ring = CheckpointRing(tmp_path, keep=3)
        rep = _elastic(
            plan=FaultPlan((FaultSpec("torn_write", match=2),)), ring=ring,
            checkpoint_interval=3,
        )
        # Ring saves under the injector: steps 0 and 3 (match 0 and 1),
        # then the tail at step 4 (match 2) — torn, recovered in place
        # (no rank died), and written again.
        assert rep.recoveries == 1 and rep.steps_lost == 0
        assert rep.restart_causes == {"corruption": 1}
        assert rep.steps == 4
        step, _ = ring.latest_verifying()
        assert step == 4
