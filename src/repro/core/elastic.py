"""Elastic-grid recovery: shrink onto survivors, grow when nodes return.

Checkpoint-restart (:func:`repro.nn.training.train_with_recovery`)
assumes a replacement node shows up: the grid re-forms at full size and
replays from the last checkpoint.  At the paper's scale that assumption
routinely fails — spares run out, and a job that *waits* for a
replacement burns its whole allocation idle.  The elastic strategy the
Alps/Frontier engineering reports recommend instead **keeps training on
the survivors**: pick the largest 4D grid the remaining ranks can form,
re-lay the existing in-memory state onto it, and continue — at reduced
throughput but zero queue time — then grow back when capacity returns.

The mechanism is the canonical-layout interchange of
:mod:`repro.core.checkpoint_io`: every grid can gather its parameters
*and Adam moments* to the serial layout and re-shard from it with pure
copies/permutations, so a shrink (or grow) is bit-exact — the loss
curve after the transition is bitwise identical to a fresh run on the
new grid from the same state, which is exactly what the tests pin.

Recovery sources, in preference order (see :func:`train_elastic`):

1. **buddy replica** (:class:`~repro.runtime.replica_store.ReplicaStore`)
   — a single-rank kill restores the dead rank's shards from its buddy's
   in-memory copy: zero disk reads, zero steps lost;
2. **checkpoint ring** (:class:`~repro.core.checkpoint_io.CheckpointRing`)
   — correlated failures (a buddy pair dying together) fall back to the
   newest checkpoint on disk that *verifies*, replaying the steps since;
3. neither available -> the fault propagates (the job is lost).

:func:`shrink_grid` is the planner: the largest rank count ``<= n`` that
admits a 4D factorization compatible with the model's divisibility
constraints (:func:`~repro.core.grid.infeasibility_reason`), preferring
candidates that keep grid axes unchanged (less state movement) —
including non-power-of-two sub-grids, e.g. 8 ranks shrinking to 6 as
(1, 2, 3, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..config import GPTConfig
from ..nn.training import (
    MixedPrecisionTrainer,
    TrainingReport,
    _train_fault_tolerant,
)
from ..runtime.replica_store import ReplicaStore
from .checkpoint_io import (
    CheckpointRing,
    gather_training_arrays,
    load_training_arrays,
)
from .grid import GridConfig, enumerate_grid_configs, infeasibility_reason

__all__ = ["shrink_grid", "ElasticReport", "train_elastic"]


# -- the shrink planner --------------------------------------------------------


def shrink_grid(
    cfg: GPTConfig,
    max_ranks: int,
    old: GridConfig,
    global_batch: int | None = None,
) -> GridConfig:
    """Largest valid 4D grid using at most ``max_ranks`` ranks.

    Walks rank counts downward from ``max_ranks``; at the first count
    with any fitting factorization, returns the candidate sharing the
    most axis sizes with ``old`` (least resharding traffic), ties broken
    lexicographically for determinism.  Non-power-of-two counts
    enumerate all divisors, so 6 survivors of an 8-rank grid can form
    (1, 2, 3, 1) rather than collapsing to 4 ranks.  The sequence axis
    may keep any ring degree up to ``old.gs`` (a job that needed it may
    not fit without), and ``old.collective_algo`` carries over.
    """
    if max_ranks < 1:
        raise ValueError("max_ranks must be >= 1")
    for n in range(max_ranks, 0, -1):
        fits = [
            c
            for c in enumerate_grid_configs(
                n, powers_of_two_only=False, max_gs=old.gs
            )
            if infeasibility_reason(cfg, c, global_batch) is None
        ]
        if fits:
            best = min(
                fits,
                key=lambda c: (
                    -sum(a == b for a, b in zip(c.full_dims, old.full_dims)),
                    c.full_dims,
                ),
            )
            return replace(best, collective_algo=old.collective_algo)
    raise ValueError(
        f"no grid of <= {max_ranks} ranks fits {cfg.name!r} "
        f"(hidden={cfg.hidden_size}, heads={cfg.num_heads})"
    )


# -- the elastic training loop -------------------------------------------------


@dataclass
class ElasticReport(TrainingReport):
    """What :func:`train_elastic` did: the shared
    :class:`~repro.nn.training.TrainingReport` accounting (loss curve,
    checkpoint/lost-step counts, restart causes) plus the grid's size
    history and recovery-path breakdown."""

    #: (step at which the config became active, config) — starts with
    #: (0, initial) and gains an entry per shrink/grow.
    grid_history: list[tuple[int, GridConfig]] = field(default_factory=list)
    shrinks: int = 0
    grows: int = 0
    #: Recoveries served entirely from buddy replicas (zero disk reads).
    buddy_restores: int = 0
    #: Recoveries that fell back to the on-disk checkpoint ring.
    disk_restores: int = 0
    recoveries: int = 0

def train_elastic(
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
    """Train with elastic shrink/grow recovery.

    ``trainer_factory(config)`` must build a fresh trainer whose model
    is a :class:`~repro.core.ParallelGPT` on ``config`` — the *initial
    state* the factory produces is irrelevant after a transition (it is
    overwritten from the canonical arrays); what matters is the layout.
    ``batches`` is indexed by step so replays see identical data.

    On a fault with dead ranks: wipe the dead ranks' shards
    (:meth:`ReplicaStore.wipe` — the crash destroyed the only live
    copy), restore from the buddy replica when possible (zero disk,
    zero steps lost) or else from the newest *verifying* ring
    checkpoint (corrupt/torn files are skipped), then
    :func:`shrink_grid` onto the survivors, rebuild the trainer there,
    and continue.  Transient faults (timeouts, torn checkpoint writes)
    recover in place on the same grid from the intact in-memory
    masters.  When ``grow_step`` is reached and the grid had shrunk,
    the state is re-laid onto ``initial_config`` (the injector's
    replacement node arrived) and training continues full-size.

    Both transitions are bit-exact: post-transition losses are bitwise
    identical to a fresh run on the new grid from the same state.
    """
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    config = initial_config
    report = ElasticReport(grid_history=[(0, config)])

    def make_store(t) -> ReplicaStore | None:
        if not replicate or t.model.grid.config.total < 2:
            return None
        s = ReplicaStore(t.model, t.optimizer)
        s.commit()
        return s

    trainer = trainer_factory(config)
    store = make_store(trainer)
    grown = False

    def live_state(t) -> dict:
        return gather_training_arrays(t.model, t.optimizer)

    def reform(new_config, arrays):
        """Re-form the grid as ``new_config`` and lay ``arrays`` (the
        canonical state) onto it — the one sequence every transition
        (grow, in-place, shrink) shares."""
        nonlocal config, store
        if injector is not None:
            injector.restart()
        config = new_config
        trainer = trainer_factory(config)
        load_training_arrays(trainer.model, trainer.optimizer, arrays)
        store = make_store(trainer)
        return trainer

    def grow(step, trainer):
        nonlocal grown
        due = grow_step is not None and step >= grow_step
        if grown or not due or config == initial_config:
            return trainer
        grown = True
        # The replacement capacity arrived: re-lay the current state
        # onto the full grid and continue — the inverse of a shrink,
        # through the same canonical arrays.
        trainer = reform(initial_config, live_state(trainer))
        report.grows += 1
        report.grid_history.append((step, config))
        return trainer

    def commit():
        if store is not None:
            store.commit()

    def recover(step, last_saved, trainer):
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
            return step, reform(config, live_state(trainer))
        resume = step
        if store is not None:
            store.wipe(dead)
        if store is not None and store.can_restore(dead):
            # Single-rank (uncorrelated) failure: the buddy holds a
            # current copy — restore over the interconnect.  Zero
            # disk reads, zero steps lost.
            store.restore(dead)
            arrays = live_state(trainer)
            report.buddy_restores += 1
        else:
            # Correlated failure (buddy pair died together) or
            # replication disabled: fall back to the newest ring
            # checkpoint that verifies.
            found = None if ring is None else ring.latest_verifying()
            if found is None:
                return None
            resume, arrays = found
            report.disk_restores += 1
        survivors = config.total - len(dead)
        trainer = reform(
            shrink_grid(trainer.model.cfg, survivors, config, global_batch),
            arrays,
        )
        report.shrinks += 1
        report.grid_history.append((resume, config))
        return resume, trainer

    def save(trainer, step):
        # Unlike the restart loop's, the step-0 ring entry is written
        # under the injector: it is one of the ring's ``keep`` files and
        # claims save index 0 like any other.
        ring.save(trainer.model, trainer.optimizer, step, injector=injector)

    return _train_fault_tolerant(
        trainer, batches, report, injector=injector,
        checkpoint_interval=checkpoint_interval, budget="recoveries",
        max_budget=max_recoveries, save=None if ring is None else save,
        recover=recover, before_step=grow, after_step=commit,
    )
