"""Mixed-precision training and gradient accumulation.

The paper trains everything in bf16 with fp32 master weights (Section
VI-A): forward/backward arithmetic sees bf16-rounded parameters and
activations, while the optimizer updates full-precision master copies —
without the master copies, updates smaller than a bf16 ulp would vanish
(the classic "stale weights" failure this module's tests demonstrate).

:class:`MixedPrecisionTrainer` wraps any model exposing
``loss(ids, loss_mask=...)`` (serial :class:`~repro.nn.GPT`,
:class:`~repro.core.ParallelGPT`) and an optimizer, adding:

* bf16 parameter rounding around each forward/backward (emulating bf16
  compute on our float64 engine, via :func:`repro.tensor.to_bf16`);
* gradient accumulation over micro-steps (large effective batches);
* optional global-norm gradient clipping.
"""

from __future__ import annotations

import ctypes
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..runtime.faults import FaultError, fault_cause, fault_scope
from ..telemetry.spans import get_tracer as _telemetry, traced as _traced
from ..tensor.dtype import to_bf16
from .optim import clip_grad_norm

__all__ = [
    "MixedPrecisionTrainer",
    "TrainingReport",
    "RecoveryReport",
    "train_with_recovery",
]


#: ``<malloc.h>`` parameter numbers of :c:func:`mallopt`.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_step_memory() -> None:
    """Tell glibc's malloc to keep a training step's working set mapped.

    A step allocates its activations and gradients and frees all of them
    before the next one (the bench model swings the heap between 31 and
    122 MB).  Under glibc's *dynamic* thresholds the freed top of the
    heap goes back to the kernel and is faulted in again every step,
    unless a small live block happens to sit above it.  Which of the two
    happens is an accident of heap layout as small as the length of one
    ``argv`` string, and any code change anywhere in the package
    re-draws it: the same 48 steps took 0.7, 0.9, 1.0, 1.5 or 1.9 M
    minor faults, with median step times up to 30% apart.  Setting
    either threshold switches the dynamic adjustment off, so both are
    set: no array below 1 GB gets its own ``mmap`` and the heap is not
    trimmed while less than 2 GB of it is free.  The same run then
    takes 42 k faults whatever the layout, at the same peak RSS.
    Does nothing where there is no ``mallopt``.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # a libc without mallopt
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1_000_000_000)
    mallopt(_M_TRIM_THRESHOLD, 2_000_000_000)


class MixedPrecisionTrainer:
    """Drives bf16-compute / fp32-master training steps.

    ``accumulation_steps`` micro-batches are processed per optimizer
    step; each micro-loss is scaled by ``1/accumulation_steps`` so the
    effective gradient is the mean over the combined batch (given
    equal-sized micro-batches).

    Constructing one pins the process's malloc thresholds
    (:func:`_keep_step_memory`): memory a step frees stays with the
    process for the next step.
    """

    def __init__(
        self,
        model,
        optimizer,
        accumulation_steps: int = 1,
        bf16: bool = True,
        grad_clip: float | None = None,
        skip_nonfinite: bool = True,
    ) -> None:
        if accumulation_steps < 1:
            raise ValueError("accumulation_steps must be >= 1")
        self.model = model
        self.optimizer = optimizer
        self.accumulation_steps = accumulation_steps
        self.bf16 = bf16
        self.grad_clip = grad_clip
        #: Skip the optimizer step (and zero the gradients) when any
        #: gradient is NaN/inf — the standard guard against a poisoned
        #: batch corrupting the weights.  Skipped steps are counted in
        #: :attr:`skipped_steps`.
        self.skip_nonfinite = skip_nonfinite
        self.skipped_steps = 0
        self._micro = 0
        self._params = list(model.parameters())
        _keep_step_memory()

    def _grads_finite(self) -> bool:
        for p in self._params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                return False
        return True

    # -- bf16 round-trip around the compute --------------------------------

    def _round_params(self) -> list[np.ndarray]:
        """Swap bf16-rounded values into the parameters; return masters."""
        masters = []
        for p in self._params:
            masters.append(p.data)
            p.data = to_bf16(p.data).astype(p.data.dtype)
        return masters

    def _restore_params(self, masters: list[np.ndarray]) -> None:
        for p, master in zip(self._params, masters):
            p.data = master

    # -- the step API ----------------------------------------------------------

    def _loss_and_backward(self, ids, loss_mask, tel):
        """The micro-batch's forward and backward, one span each under
        a tracer."""
        seed = np.asarray(1.0 / self.accumulation_steps)
        if tel is None:
            loss = self.model.loss(ids, loss_mask=loss_mask)
            loss.backward(seed)
            return loss
        with tel.span("loss", cat="train"):
            loss = self.model.loss(ids, loss_mask=loss_mask)
        with tel.span("backward", cat="train"):
            loss.backward(seed)
        return loss

    @_traced(name="micro_step", cat="train")
    def micro_step(
        self, ids: np.ndarray, loss_mask: np.ndarray | None = None
    ) -> float:
        """Forward/backward one micro-batch; steps the optimizer when the
        accumulation window completes.  Returns the (unscaled) loss.

        Under a tracer the forward, the backward and the optimizer
        update are the spans ``loss``, ``backward`` and
        ``optimizer.step``."""
        tel = _telemetry()
        if tel is not None:
            tel.metrics.counter("train.micro_steps").add(1)
        if self.bf16:
            masters = self._round_params()
            try:
                loss = self._loss_and_backward(ids, loss_mask, tel)
            finally:
                self._restore_params(masters)
        else:
            loss = self._loss_and_backward(ids, loss_mask, tel)

        self._micro += 1
        if self._micro == self.accumulation_steps:
            self._micro = 0
            if self.skip_nonfinite and not self._grads_finite():
                self.skipped_steps += 1
                if tel is not None:
                    tel.metrics.counter("train.skipped_steps").add(1)
                self.model.zero_grad()
                return loss.item()
            if self.grad_clip is not None:
                clip_grad_norm(self._params, self.grad_clip)
            if tel is None:
                self.optimizer.step()
            else:
                with tel.span("optimizer.step", cat="train"):
                    self.optimizer.step()
                tel.metrics.counter("train.optimizer_steps").add(1)
            self.model.zero_grad()
        return loss.item()

    @_traced(name="train.step", cat="train")
    def step(
        self, ids: np.ndarray, loss_mask: np.ndarray | None = None
    ) -> float:
        """One full optimizer step: ``ids`` is split into the trainer's
        ``accumulation_steps`` equal micro-batches.  Returns the mean
        micro-loss."""
        ids = np.asarray(ids)
        if self._micro != 0:
            raise RuntimeError(
                "step() called mid-accumulation; finish the window with "
                "micro_step() first"
            )
        n = self.accumulation_steps
        if ids.shape[0] % n:
            raise ValueError(
                f"batch of {ids.shape[0]} not divisible into {n} micro-batches"
            )
        mb = ids.shape[0] // n
        losses = []
        for i in range(n):
            mask = (
                None
                if loss_mask is None
                else np.asarray(loss_mask)[i * mb : (i + 1) * mb]
            )
            losses.append(self.micro_step(ids[i * mb : (i + 1) * mb], mask))
        return float(np.mean(losses))


# -- checkpoint-restart recovery ------------------------------------------------


def _jsonify(value):
    """Recursively reduce report field values to JSON-serializable types."""
    if isinstance(value, Counter):
        return dict(value)
    if hasattr(value, "dims"):  # GridConfig and friends
        return list(value.dims)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass
class TrainingReport:
    """Accounting of the one fault-tolerant training loop.

    Filled in by ``_train_fault_tolerant`` whichever recovery strategy
    runs over it.  Holds the fields both :class:`RecoveryReport` and
    :class:`~repro.core.elastic.ElasticReport` need — the loss curve
    (rollbacks truncate it, so the final sequence matches an
    uninterrupted run), checkpoint and lost-step counts, and the restart
    cause histogram — plus one :meth:`to_json` serialization for the
    goodput analysis and CI artifacts.  The strategy's own fields
    (``restarts`` / ``recoveries``, the grid history) live on the
    subclasses.
    """

    losses: list[float] = field(default_factory=list)
    #: Checkpoints written (including the step-0 checkpoint).
    checkpoint_saves: int = 0
    #: Steps re-executed because they post-dated the recovery source.
    steps_lost: int = 0
    #: Restart cause histogram (``"kill"`` / ``"timeout"`` /
    #: ``"corruption"`` / ...), per :func:`repro.runtime.faults.fault_cause`
    #: — the breakdown the goodput analysis consumes.
    restart_causes: Counter = field(default_factory=Counter)

    @property
    def steps(self) -> int:
        return len(self.losses)

    def to_json(self) -> dict:
        """All dataclass fields (plus ``steps``), JSON-serializable."""
        out = {f.name: _jsonify(getattr(self, f.name)) for f in fields(self)}
        out["steps"] = self.steps
        return out


@dataclass
class RecoveryReport(TrainingReport):
    """What :func:`train_with_recovery` did: the shared
    :class:`TrainingReport` accounting plus restart-specific fields."""

    #: Successful restarts (fault caught, state reloaded, training resumed).
    restarts: int = 0
    #: The step each restart rolled back to, in order.
    resumed_from: list[int] = field(default_factory=list)


def _split_batch(batch) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(batch, tuple):
        ids, mask = batch
        return np.asarray(ids), (None if mask is None else np.asarray(mask))
    return np.asarray(batch), None


def _train_fault_tolerant(
    trainer,
    batches: Sequence,
    report: TrainingReport,
    *,
    injector,
    checkpoint_interval: int,
    budget: str,
    max_budget: int,
    save: Callable | None,
    recover: Callable,
    before_step: Callable = lambda step, trainer: trainer,
    after_step: Callable = lambda: None,
) -> TrainingReport:
    """The one fault-tolerant step loop; both public loops are strategies
    over it.

    Owns everything recovery strategies share: the step-0 save, the
    injector's step clock, the :func:`fault_scope` around
    ``trainer.step``, the loss curve, the save cadence, the recovery net
    (cause histogram, budget, lost-step accounting, loss truncation,
    rewind), the tail save and the ``train.*`` telemetry.  A strategy
    supplies what differs:

    * ``save(trainer, step)`` persists the state after ``step`` steps
      (``None``: nothing is ever written);
    * ``recover(step, last_saved, trainer)`` runs on a fault inside the
      budget and returns ``(resume_step, rebuilt_trainer)``, or ``None``
      when there is nothing to recover from (the fault then propagates);
    * ``before_step(step, trainer) -> trainer`` and ``after_step()``
      bracket each step.

    ``budget`` names the ``report`` field that counts survived faults
    (``"restarts"`` / ``"recoveries"`` — also the telemetry counter's
    suffix); once it reaches ``max_budget`` the next fault propagates.
    """
    if save is not None:
        save(trainer, 0)
        report.checkpoint_saves += 1
    last_saved = step = 0
    # Past the last batch the loop runs on only while the tail save is
    # owed: a torn tail write recovered in place must be written again.
    while step < len(batches) or (save is not None and last_saved != step):
        batch = None
        if step < len(batches):
            trainer = before_step(step, trainer)
            if injector is not None:
                injector.start_step(step)
            batch = _split_batch(batches[step])
        try:
            if batch is not None:
                ids, mask = batch
                with fault_scope(injector):
                    loss = trainer.step(ids, loss_mask=mask)
                report.losses.append(loss)
                step += 1
                after_step()
            # The checkpoint writes live inside the recovery net too, the
            # final one of a run whose length is not a multiple of the
            # interval included: a torn write raises here, recovers from
            # the previous (still intact, thanks to the atomic-replace
            # protocol) checkpoint or the live state, and carries on
            # instead of killing the job.
            if save is not None and (
                step % checkpoint_interval == 0 or step == len(batches)
            ):
                save(trainer, step)
                report.checkpoint_saves += 1
                last_saved = step
        except FaultError as exc:
            cause = fault_cause(exc)
            report.restart_causes[cause] += 1
            if injector is None or getattr(report, budget) >= max_budget:
                raise
            setattr(report, budget, getattr(report, budget) + 1)
            tel = _telemetry()
            span = nullcontext()
            if tel is not None:
                tel.metrics.counter(f"train.{budget}").add(1)
                args = {"cause": cause, "step": step}
                span = tel.span("train.recovery", cat="train", args=args)
            with span:
                recovered = recover(step, last_saved, trainer)
                if recovered is None:
                    raise
                resume, trainer = recovered
                lost = step - resume
                if tel is not None:
                    args.update(resume=resume, steps_lost=lost)
                    tel.metrics.counter("train.steps_lost").add(lost)
            report.steps_lost += lost
            del report.losses[resume:]
            step = resume
    return report


def train_with_recovery(
    trainer_factory: Callable[[], MixedPrecisionTrainer],
    batches: Sequence,
    checkpoint_path: str | Path,
    *,
    checkpoint_interval: int = 1,
    injector=None,
    max_restarts: int = 3,
) -> RecoveryReport:
    """Run a training loop that survives injected failures.

    ``trainer_factory`` must build a *fresh* trainer (model + optimizer
    in the same layout every call) — this models re-forming the GPU grid
    with a replacement node after a failure.  ``batches`` is indexed by
    step, so the post-restart replay sees byte-identical data.  Every
    ``checkpoint_interval`` completed steps the full training state
    (fp32 masters + Adam moments + step count) is written with
    :func:`repro.core.checkpoint_io.save_training_state`; a step-0
    checkpoint is written up front so even a first-step failure is
    recoverable.

    On a :class:`~repro.runtime.faults.FaultError` (killed rank, message
    dropped/delayed past the retry budget) the partially-updated trainer
    is *discarded* — a fault can strike mid-accumulation, leaving
    gradients half-summed — a new one is built, the last checkpoint is
    reloaded, ``injector.restart()`` re-forms the grid (dead ranks
    replaced, fired faults stay fired), and the loop rewinds to the
    checkpointed step.  Because the checkpoint is bit-exact and the
    replayed batches identical, the recovered run's losses are bitwise
    equal to an uninterrupted run's (the property the recovery tests
    pin).

    After ``max_restarts`` restarts the next fault propagates to the
    caller.
    """
    # Local import: repro.core imports repro.nn at module load, so a
    # top-level import here would be circular.
    from ..core.checkpoint_io import load_training_state, save_training_state

    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    report = RecoveryReport()

    def save(trainer, step):
        # The step-0 checkpoint is written before the job is exposed to
        # faults, so it claims no save index: a ``torn_write``'s
        # ``match`` counts from the first periodic save.
        save_training_state(
            trainer.model, trainer.optimizer, checkpoint_path,
            injector=injector if step else None,
        )

    def recover(step, last_saved, failed):
        report.resumed_from.append(last_saved)
        injector.restart()
        trainer = trainer_factory()
        load_training_state(trainer.model, trainer.optimizer, checkpoint_path)
        return last_saved, trainer

    return _train_fault_tolerant(
        trainer_factory(), batches, report, injector=injector,
        checkpoint_interval=checkpoint_interval, budget="restarts",
        max_budget=max_restarts, save=save, recover=recover,
    )
