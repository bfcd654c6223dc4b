"""The serving loop: one scheduling policy, any decoder.

:class:`ServingLoop` owns everything that decides *when* a request runs
— the waiting queue, admission, KV-pressure preemption, recompute-
restart, eviction, the virtual clock — and nothing that decides *what*
a forward computes.  The forward belongs to a **decoder**, any object
with the surface :class:`~repro.serving.tp.TensorParallelDecoder` has:

* ``add_sequence(seq_id, reserve_tokens)`` / ``free_sequence(seq_id)``;
* ``reserve(seq_id, num_new)`` — room for ``num_new`` more tokens, or
  :class:`~repro.serving.paged_kv.CacheOutOfBlocks`;
* ``num_free_blocks``;
* ``prefill(seq_id, prompt)`` -> ``(V,)`` last-position logits;
* ``decode_step(tokens, seq_ids)`` -> ``(B, V)`` logits.

Three decoders implement it: the serial one behind
:class:`~repro.serving.engine.ServingEngine`, the fault-absorbing
wrapper around the tensor-parallel decoder behind
:class:`~repro.serving.resilience.ResilientTPEngine`, and the analytic
one behind :func:`~repro.simulate.serving.simulate_serving`, which
counts blocks and seconds instead of moving floats.  The schedule the
simulator predicts is therefore the schedule the engines run, by
construction.

Round semantics, stated once: a round resumes preempted sequences,
admits and prefills newcomers, then advances every running sequence one
token, then evicts what finished.  **Prefill emits the first token**,
and a newcomer also decodes in its admission round, so a request with
``max_new_tokens = N`` alone on an idle instance occupies
``max(N - 1, 1)`` rounds and costs one prefill plus ``N - 1`` decode
steps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..telemetry.spans import get_tracer
from .arrivals import Request
from .paged_kv import CacheOutOfBlocks
from .scheduler import BatchingConfig, ContinuousBatcher, RejectedRequest

__all__ = ["FinishedRequest", "ServingLoop", "count"]


def count(name: str, amount: float) -> None:
    """Bump the ambient tracer's counter ``name`` (no-op when untraced)."""
    tracer = get_tracer()
    if tracer is not None:
        tracer.metrics.counter(name).add(amount)


@dataclass(frozen=True)
class FinishedRequest:
    """A completed request with its generation and timing metadata."""

    request: Request
    #: Generated token ids (1-D int64; prompt not included).
    tokens: np.ndarray
    #: Step index at which the request was admitted (prefill round).
    admitted_step: int
    #: Step index that produced the first output token (== admitted_step:
    #: prefill emits it).
    first_token_step: int
    #: Step index after which the request left the batch.
    finish_step: int
    #: Virtual-clock timestamps mirroring the step indices (seconds).
    admitted_time: float = 0.0
    first_token_time: float = 0.0
    finish_time: float = 0.0
    #: How many times the sequence was preempted for KV pressure (each
    #: preemption was followed by a bitwise-exact recompute-restart).
    preemptions: int = 0

    @property
    def ttft(self) -> float:
        """Time to first token: queueing delay + prefill round."""
        return self.first_token_time - self.request.arrival_time

    @property
    def e2e_latency(self) -> float:
        """Arrival to last token."""
        return self.finish_time - self.request.arrival_time

    @property
    def num_tokens(self) -> int:
        return int(self.tokens.shape[0])


@dataclass
class _Running:
    """Mutable in-flight state of one admitted sequence."""

    request: Request
    seq_id: int
    admitted_step: int
    admitted_time: float
    #: Clock reading once the prefill that emitted ``out[0]`` returned.
    first_token_time: float = 0.0
    out: list[int] = field(default_factory=list)
    done: bool = False
    preemptions: int = 0


class ServingLoop:
    """Request-level serving runtime: queue -> prefill -> batched decode.

    Admission reserves only ``prompt + 1`` KV tokens and each decode
    round grows reservations one token at a time; when the pool runs
    dry the youngest sequence is preempted (:meth:`_grow_blocks`) and
    later recompute-restarted (:meth:`_resume_preempted`).

    Overload never raises: requests that cannot be served — too long for
    the pool or the ``context_len``, a prompt id outside ``[0,
    vocab_size)``, a full queue, an expired deadline — end as typed
    :class:`~repro.serving.scheduler.RejectedRequest` outcomes on
    ``self.rejected`` (causes ``rejected`` / ``shed`` / ``deadline``).
    Every event is counted on ``self.stats`` and, under a tracer, on the
    counter ``prefix + name`` — the same names for every decoder.
    """

    def __init__(
        self,
        decoder,
        config: BatchingConfig,
        *,
        context_len: int,
        vocab_size: int,
        eos_id: int | None = None,
        prefix: str = "serve.",
    ) -> None:
        self.decoder = decoder
        self.config = config
        self.eos_id = eos_id
        self.prefix = prefix
        self.batcher = ContinuousBatcher(config, context_len, vocab_size)
        self.running: list[_Running] = []
        self.preempted: list[_Running] = []
        self.finished: list[FinishedRequest] = []
        self.rejected: list[RejectedRequest] = []
        self.stats: Counter = Counter()
        self.step_count = 0
        self.time = 0.0
        self._next_seq_id = 0

    # -- request intake ----------------------------------------------------

    def submit(self, request: Request) -> RejectedRequest | None:
        """Queue a request for admission (FIFO).

        Returns the typed rejection if the request cannot be served
        (over the model context, over the block pool, or shed by the
        bounded queue); ``None`` means it was queued.
        """
        self._count("requests", 1)
        rej = self.batcher.enqueue(request, now=self.time)
        self._drain_rejections()
        return rej

    def _drain_rejections(self) -> None:
        for rej in self.batcher.drain_rejections():
            self.rejected.append(rej)
            self._count(rej.cause, 1)

    # -- one scheduling round ---------------------------------------------

    def step(self) -> list[FinishedRequest]:
        """Resume preempted, admit, prefill, decode one token, evict;
        returns this round's completions."""
        self.step_count += 1
        self._begin_round()
        self._resume_preempted()
        if self.preempted:
            # Blocked resumes take priority over new admissions (they are
            # older), but expired waiters are still swept.
            self.batcher.shed_expired(self.time)
        else:
            for req in self.batcher.admit(
                len(self.running), self.decoder.num_free_blocks, now=self.time
            ):
                self._admit(req)
        self._drain_rejections()
        live = self._grow_blocks([r for r in self.running if not r.done])
        if live:
            tokens = np.asarray([r.out[-1] for r in live], dtype=np.int64)
            logits = self.decoder.decode_step(tokens, [r.seq_id for r in live])
            for r, t in zip(live, np.argmax(logits, axis=1)):
                r.out.append(int(t))
                self._maybe_finish(r)
            self._count("decode_steps", 1)
            self._count("decode_tokens", len(live))
        return self._evict()

    def _begin_round(self) -> None:
        """Hook run first in every round, for whatever keeps a fault
        clock (the injector's step counter, the simulator's MTBF draw)."""

    def _admit(self, req: Request) -> None:
        r = _Running(
            request=req,
            seq_id=self._next_seq_id,
            admitted_step=self.step_count,
            admitted_time=self.time,
        )
        self._next_seq_id += 1
        # Reserve what admission accounted for: the prompt plus the
        # first decode write.
        self.decoder.add_sequence(r.seq_id, self.config.reserve_tokens(req))
        logits = self.decoder.prefill(r.seq_id, req.prompt)
        r.out.append(int(np.argmax(logits)))
        r.first_token_time = self.time
        self.running.append(r)
        self._count("admitted", 1)
        self._count("prefill_tokens", req.prompt_len)
        self._maybe_finish(r)

    # -- KV-pressure preemption -------------------------------------------

    def _grow_blocks(self, live: list[_Running]) -> list[_Running]:
        """Ensure every live sequence can write one more token.

        Oldest-first; when the pool is dry the *youngest* live sequence
        is preempted until the current one fits (vLLM's policy).  The
        oldest sequence is never sacrificed for a younger one, so it
        strictly progresses and preemption cannot livelock.  Returns the
        sequences that still decode this round, in the original order.
        """
        victims: set[int] = set()
        for r in sorted(live, key=lambda r: r.seq_id):
            if r.seq_id in victims:
                continue
            while True:
                try:
                    self.decoder.reserve(r.seq_id, 1)
                    break
                except CacheOutOfBlocks:
                    candidates = [
                        c
                        for c in self.running
                        if not c.done and c.seq_id not in victims
                    ]
                    victim = max(candidates, key=lambda c: c.seq_id)
                    victims.add(victim.seq_id)
                    self._preempt(victim)
                    if victim is r:
                        break
        return [r for r in live if r.seq_id not in victims]

    def _preempt(self, r: _Running) -> None:
        """Release a sequence's blocks; it keeps its generated tokens and
        will be recompute-restarted by :meth:`_resume_preempted`."""
        self.decoder.free_sequence(r.seq_id)
        self.running.remove(r)
        r.preemptions += 1
        self.preempted.append(r)
        self._count("preemptions", 1)

    def _resume_preempted(self) -> None:
        """Recompute-restart preempted sequences, oldest first.

        The restart replays exactly the original operation sequence —
        prompt prefill, then one single-sequence decode step per
        already-emitted token (whose logits re-derive tokens we already
        have and are discarded) — so the rebuilt KV is bitwise identical
        to the state before preemption and the continuation matches a
        lone ``generate_greedy`` run.  Head-of-line order: the first
        resume that does not fit blocks everything younger.
        """
        for r in sorted(self.preempted, key=lambda r: r.seq_id):
            # A preempted sequence has emitted at least its first token.
            ctx_len = r.request.prompt_len + len(r.out) - 1
            if (
                len(self.running) >= self.config.max_batch
                or self.config.blocks_for(ctx_len + 1) > self.decoder.num_free_blocks
            ):
                break
            self.decoder.add_sequence(r.seq_id, ctx_len + 1)
            self.decoder.prefill(r.seq_id, r.request.prompt)
            for t in r.out[:-1]:
                self.decoder.decode_step(
                    np.asarray([t], dtype=np.int64), [r.seq_id]
                )
            self.preempted.remove(r)
            self.running.append(r)
            self.running.sort(key=lambda c: c.seq_id)
            self._count("resumes", 1)
            self._count("recompute_tokens", ctx_len)

    def _maybe_finish(self, r: _Running) -> None:
        if len(r.out) >= r.request.max_new_tokens:
            r.done = True
        elif self.eos_id is not None and r.out[-1] == self.eos_id:
            r.done = True

    def _evict(self) -> list[FinishedRequest]:
        out = []
        for r in [r for r in self.running if r.done]:
            self.decoder.free_sequence(r.seq_id)
            self.running.remove(r)
            fin = FinishedRequest(
                request=r.request,
                tokens=np.asarray(r.out, dtype=np.int64),
                admitted_step=r.admitted_step,
                first_token_step=r.admitted_step,
                finish_step=self.step_count,
                admitted_time=r.admitted_time,
                first_token_time=r.first_token_time,
                finish_time=self.time,
                preemptions=r.preemptions,
            )
            self.finished.append(fin)
            out.append(fin)
            self._count("finished", 1)
            tracer = get_tracer()
            if tracer is not None:
                tracer.metrics.histogram(self.prefix + "e2e_steps").record(
                    fin.finish_step - fin.admitted_step + 1
                )
        return out

    # -- trace driver ------------------------------------------------------

    @property
    def _busy(self) -> bool:
        """Whether any request is waiting, running or preempted."""
        return bool(self.batcher.num_waiting or self.running or self.preempted)

    def run(
        self,
        requests: list[Request],
        *,
        step_time: float = 1.0,
        max_steps: int = 100_000,
    ) -> list[FinishedRequest]:
        """Serve a whole arrival trace to completion.

        The virtual clock advances ``step_time`` seconds per scheduling
        round; a request is visible to admission once its
        ``arrival_time`` has passed.  Returns completions in finish
        order; requests that ended in a typed non-completion outcome
        accumulate on ``self.rejected``.
        """
        pending = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        i = 0
        start = len(self.finished)
        while i < len(pending) or self._busy:
            while i < len(pending) and pending[i].arrival_time <= self.time:
                self.submit(pending[i])
                i += 1
            if not self._busy:
                if i >= len(pending):
                    break  # everything left ended in a typed rejection
                # Idle: jump to the next arrival instead of spinning.
                self.time = pending[i].arrival_time
                continue
            self.step()
            self.time += step_time
            if self.step_count > max_steps:
                raise RuntimeError(
                    f"serving did not drain within {max_steps} steps"
                )
        return self.finished[start:]

    def _count(self, name: str, amount: int) -> None:
        self.stats[name] += amount
        count(self.prefix + name, amount)
