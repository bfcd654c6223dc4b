"""Failure-hardened tensor-parallel serving engine.

The paper's premise — democratized LLM infrastructure must survive real
supercomputer conditions — applies to inference as much as training:
ranks fail-stop mid-decode, NICs drop and delay messages, and offered
load exceeds capacity.  This module serves requests over the
:class:`~repro.serving.tp.TensorParallelDecoder` with the training
stack's deterministic adversary installed
(:class:`~repro.runtime.faults.FaultInjector` over the traced
collectives) and recovers from what it injects:

* **transient faults** (``drop_p2p`` / ``delay_p2p`` beyond the
  :class:`~repro.runtime.faults.RetryPolicy` budget surface as
  :class:`~repro.runtime.faults.CommTimeoutError`) — the failed forward
  is simply re-issued.  A TP forward is *idempotent until commit*: KV
  writes land at uncommitted offsets and ``advance`` runs only after
  the last collective, so a retry rewrites the same slots with the same
  bytes;
* **fail-stop ranks** (``kill`` → :class:`~repro.runtime.faults.RankFailure`)
  — the engine sweeps every armed kill
  (:meth:`~repro.runtime.faults.FaultInjector.collect_armed_kills`),
  picks the largest X-axis degree the survivors support (the grid rule
  :func:`~repro.core.grid.infeasibility_reason` that the elastic
  planner applies; ``gx = 1`` always fits so a lone survivor still
  serves), calls
  :meth:`~repro.runtime.faults.FaultInjector.restart`, rebuilds the
  decoder on the shrunk grid, and **recomputes** every in-flight
  sequence's KV state by replaying its prompt prefill plus one decode
  step per already-emitted token.  There is no KV checkpoint to restore
  — recompute *is* the buddy store of serving, because the generated
  tokens (a few int64s per sequence) are the entire recoverable state;
* **overload** — bounded queue, deadlines, optimistic admission and
  preempt-youngest are :class:`~repro.serving.loop.ServingLoop`'s, the
  one loop the serial engine and the simulator also run.  Fault handling
  is a *decoder* under that loop (:class:`FaultAbsorbingDecoder`), not a
  second scheduler.

Identity contract under chaos: every request that *completes* emits
greedy tokens equal to a lone ``generate_greedy`` run — kills, retries,
preemptions and shrinks change *when* tokens are computed and on how
many ranks, never *which* arithmetic produces them (bitflip faults are
silent data corruption and deliberately excluded: they change payload
bits by definition).  Every request that does not complete ends as a
typed :class:`~repro.serving.scheduler.RejectedRequest`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..cluster import Placement
from ..core.grid import Grid4D, GridConfig, infeasibility_reason
from ..nn.transformer import GPT
from ..runtime.faults import (
    CommTimeoutError,
    DecodeRankFailure,
    FaultInjector,
    RankFailure,
    fault_scope,
)
from .loop import ServingLoop, count
from .scheduler import BatchingConfig
from .tp import TensorParallelDecoder

__all__ = ["FaultAbsorbingDecoder", "ResilienceReport", "ResilientTPEngine"]


@dataclass(frozen=True)
class ResilienceReport:
    """What the adversary did and what it cost, for one served trace."""

    #: Completed requests (greedy tokens intact).
    num_finished: int
    #: Typed non-completions, bucketed by ``fault_cause``-style cause.
    rejected_by_cause: dict[str, int]
    #: KV-pressure preemption events (each later recompute-restarted).
    preemptions: int
    #: Fail-stop ranks absorbed mid-decode.
    rank_failures: int
    #: Forwards re-issued after a transient comm timeout.
    step_timeouts: int
    #: Tokens recomputed by preemption restarts and shrink replays.
    recompute_tokens: int
    #: ``(step, old_gx, new_gx)`` per recovery re-formation.
    shrink_history: list[tuple[int, int, int]] = field(default_factory=list)


@dataclass
class _History:
    """What it takes to rebuild one sequence's KV from nothing."""

    reserve_tokens: int
    #: Set once the prompt's prefill committed.
    prompt: np.ndarray | None = None
    #: Tokens fed through committed decode steps, in order.
    fed: list[int] = field(default_factory=list)


class FaultAbsorbingDecoder:
    """A :class:`TensorParallelDecoder` that survives its collectives.

    Same decoder surface; every forward runs inside
    ``fault_scope(injector)`` through a guarded retry loop: comm
    timeouts re-issue the forward, rank failures shrink the X group and
    replay in-flight KV, and only an unservable topology (all ranks
    dead, or the recovery budget exhausted) escapes as
    :class:`DecodeRankFailure`.
    """

    def __init__(
        self,
        model: GPT,
        grid: Grid4D,
        config: BatchingConfig,
        injector: FaultInjector | None,
        max_recoveries: int,
    ) -> None:
        self.model = model
        self.injector = injector
        self.max_recoveries = max_recoveries
        self._pool = dict(
            block_size=config.block_size, num_blocks=config.num_blocks
        )
        self.inner = TensorParallelDecoder(model, grid, **self._pool)
        self.step = 0
        self.stats: Counter = Counter()
        self.shrink_history: list[tuple[int, int, int]] = []
        self._seqs: dict[int, _History] = {}

    def __getattr__(self, name: str):
        # ``reserve``, ``num_free_blocks``, ``gx``, ``grid``, ...: whatever
        # is not intercepted here is the current inner decoder's.
        return getattr(self.inner, name)

    def start_round(self, step: int) -> None:
        """Tell the adversary (and the recovery log) which round it is."""
        self.step = step
        if self.injector is not None:
            self.injector.start_step(step)

    # -- the decoder surface -----------------------------------------------

    def add_sequence(self, seq_id: int, reserve_tokens: int) -> None:
        self.inner.add_sequence(seq_id, reserve_tokens)
        self._seqs[seq_id] = _History(reserve_tokens)

    def free_sequence(self, seq_id: int) -> None:
        self.inner.free_sequence(seq_id)
        del self._seqs[seq_id]

    def prefill(self, seq_id: int, prompt: np.ndarray) -> np.ndarray:
        logits = self._guarded("prefill", seq_id, prompt)
        self._seqs[seq_id].prompt = prompt
        return logits

    def decode_step(self, tokens: np.ndarray, seq_ids: list[int]) -> np.ndarray:
        logits = self._guarded("decode_step", tokens, seq_ids)
        for s, t in zip(seq_ids, tokens):
            self._seqs[s].fed.append(int(t))
        return logits

    # -- guarded execution -------------------------------------------------

    def _guarded(self, forward: str, *args):
        """Run ``self.inner.<forward>(*args)`` under the injector,
        absorbing recoverable faults.

        Timeouts re-issue the forward (idempotent until commit); rank
        failures trigger shrink-and-replay recovery, then the forward
        retries on the re-formed decoder.
        """
        last: Exception | None = None
        for _ in range(self.max_recoveries + 1):
            try:
                with fault_scope(self.injector):
                    return getattr(self.inner, forward)(*args)
            except CommTimeoutError as exc:
                last = exc
                self.stats["step_timeouts"] += 1
                count("serve.tp.step_timeouts", 1)
            except RankFailure as exc:
                last = exc
                self._recover_from_kill(exc)
        raise DecodeRankFailure(
            getattr(last, "rank", -1),
            self.step,
            "decode (recovery budget exhausted)",
        ) from last

    def _recover_from_kill(self, exc: RankFailure) -> None:
        """Shrink the X group to the survivors and recompute in-flight KV.

        The sweep/shrink/restart/rebuild sequence is the PR 3 elastic
        recovery pattern applied to serving; replay runs *outside* the
        fault scope (recovery happens on a quiesced, re-formed group).
        """
        assert self.injector is not None
        old = self.grid
        old_gx = self.gx
        dead = self.injector.collect_armed_kills(
            total=old.config.total, tracer=old.tracer
        )
        survivors = old_gx - len(dead & set(self.inner.x_ranks))
        if survivors < 1:
            raise DecodeRankFailure(
                exc.rank, self.step, exc.op, exc.group
            ) from exc
        new_gx = next(
            g
            for g in range(survivors, 0, -1)
            if infeasibility_reason(self.model.cfg, GridConfig(g, 1, 1, 1)) is None
        )
        self.stats["rank_failures"] += 1
        count("serve.tp.rank_failures", 1)
        self.shrink_history.append((self.step, old_gx, new_gx))
        self.injector.restart()
        placement = (
            None
            if old.placement is None
            else Placement(old.placement.machine, new_gx, old.placement.strategy)
        )
        algo = old.config.collective_algo if placement is not None else "flat"
        grid = Grid4D(
            GridConfig(new_gx, 1, 1, 1, collective_algo=algo),
            placement=placement,
            tracer=old.tracer,
        )
        self.inner = TensorParallelDecoder(self.model, grid, **self._pool)
        for seq_id, h in sorted(self._seqs.items()):
            self._replay(seq_id, h)

    def _replay(self, seq_id: int, h: _History) -> None:
        """Rebuild a sequence's KV bitwise by re-running its history:
        prompt prefill, then one decode step per fed token (whose logits
        re-derive tokens the loop already holds and are discarded)."""
        cached = 0 if h.prompt is None else len(h.prompt) + len(h.fed)
        # Room for its next write, as the loop's last growth left it.
        self.inner.add_sequence(seq_id, max(h.reserve_tokens, cached + 1))
        if h.prompt is None:
            return  # its first prefill is the call being retried
        self.inner.prefill(seq_id, h.prompt)
        for t in h.fed:
            self.inner.decode_step(np.asarray([t], dtype=np.int64), [seq_id])
        self.stats["recompute_tokens"] += cached


class ResilientTPEngine(ServingLoop):
    """Chaos-hardened serving over tensor-parallel decode.

    The serving loop over a :class:`FaultAbsorbingDecoder`
    (``self.decoder``): the schedule is
    :class:`~repro.serving.engine.ServingEngine`'s round for round, and
    prefill and decode execute on a :class:`TensorParallelDecoder` whose
    collectives run under ``injector``.
    """

    def __init__(
        self,
        model: GPT,
        grid: Grid4D,
        config: BatchingConfig | None = None,
        *,
        injector: FaultInjector | None = None,
        eos_id: int | None = None,
    ) -> None:
        config = config or BatchingConfig()
        super().__init__(
            FaultAbsorbingDecoder(model, grid, config, injector, 8),
            config,
            context_len=model.cfg.seq_len,
            eos_id=eos_id,
            prefix="serve.tp.",
        )
        self.model = model

    @property
    def grid(self) -> Grid4D:
        """The grid decode currently runs on (shrinks after a kill)."""
        return self.decoder.grid

    def _begin_round(self) -> None:
        self.decoder.start_round(self.step_count)

    def report(self) -> ResilienceReport:
        """Summarize survived faults and typed outcomes so far."""
        faults = self.decoder.stats
        return ResilienceReport(
            num_finished=len(self.finished),
            rejected_by_cause=dict(Counter(r.cause for r in self.rejected)),
            preemptions=self.stats["preemptions"],
            rank_failures=faults["rank_failures"],
            step_timeouts=faults["step_timeouts"],
            recompute_tokens=(
                self.stats["recompute_tokens"] + faults["recompute_tokens"]
            ),
            shrink_history=list(self.decoder.shrink_history),
        )
