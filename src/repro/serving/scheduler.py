"""Admission control: the waiting queue of the one serving loop.

Continuous batching lives or dies by its scheduling policy, so there is
one :class:`~repro.serving.loop.ServingLoop` and it admits through this
one pure class, whichever of its three decoders executes the forwards
(serial floats, tensor-parallel floats, or the simulator's analytic
seconds).  Whatever workload the simulator predicts a latency for, the
engines batch identically.

Policy (deliberately simple and deterministic):

* FIFO admission in arrival order;
* a request is admitted only when a batch slot is free **and** the
  block pool can cover its reservation of ``prompt + 1`` tokens of KV
  (optimistic reservation).  Sequences whose budgets would never
  overlap in time do not exclude each other; the price is a mid-decode
  out-of-blocks condition the loop handles by preempting the youngest
  sequence and recomputing it later;

* head-of-line blocking is kept: if the oldest waiting request does not
  fit, nothing behind it is admitted (preserves arrival-order fairness
  and makes admission order a pure function of the trace);
* overload produces *typed outcomes*, never exceptions or unbounded
  queues: a never-fitting request — over the pool or the model's
  context, or with a prompt token outside the vocabulary — is
  ``"rejected"`` at enqueue, a
  request arriving to a full bounded queue is ``"shed"``, and a request
  whose deadline / TTFT budget expires while waiting is swept out as
  ``"deadline"`` at the next admission pass.  The cause strings match
  the :func:`repro.runtime.faults.fault_cause` taxonomy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..tensor.functional import check_token_ids
from .arrivals import Request

__all__ = [
    "BatchingConfig",
    "ContinuousBatcher",
    "RejectedRequest",
    "REJECT_REJECTED",
    "REJECT_SHED",
    "REJECT_DEADLINE",
]

#: Typed rejection causes — aligned with ``repro.runtime.faults.fault_cause``.
REJECT_REJECTED = "rejected"  # can never be served on this instance
REJECT_SHED = "shed"  # bounded waiting queue was full on arrival
REJECT_DEADLINE = "deadline"  # deadline / TTFT budget expired while waiting


@dataclass(frozen=True)
class RejectedRequest:
    """A request that ended in a typed non-completion outcome."""

    request: Request
    #: One of :data:`REJECT_REJECTED`, :data:`REJECT_SHED`,
    #: :data:`REJECT_DEADLINE` (``fault_cause``-compatible strings).
    cause: str
    #: Virtual time at which the outcome was decided.
    time: float


@dataclass(frozen=True)
class BatchingConfig:
    """Capacity limits and overload policy of a serving instance."""

    #: Max sequences decoded together per step.
    max_batch: int = 8
    #: Token slots per KV block.
    block_size: int = 16
    #: Total KV blocks in the pool.
    num_blocks: int = 256
    #: Bound on the waiting queue; ``None`` keeps it unbounded.  With a
    #: bound, arrivals past capacity are shed (typed, deterministic)
    #: instead of queueing without limit.
    max_waiting: int | None = None
    #: Time-to-first-token budget per request, measured from arrival; a
    #: request not yet *admitted* past it can no longer meet the budget
    #: and is shed with cause ``"deadline"``.
    ttft_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.max_waiting is not None and self.max_waiting < 1:
            raise ValueError("max_waiting must be >= 1 (or None)")
        if self.ttft_deadline is not None and self.ttft_deadline <= 0:
            raise ValueError("ttft_deadline must be > 0 (or None)")

    def blocks_for(self, tokens: int) -> int:
        return -(-tokens // self.block_size)

    def fits(self, request: Request) -> bool:
        """Whether the request can *ever* be admitted on this instance.

        Always the full footprint, not the admission reservation: a lone
        request must be able to decode its whole budget, or preemption
        could never make progress on it.
        """
        return self.blocks_for(request.total_tokens) <= self.num_blocks

    def reserve_tokens(self, request: Request) -> int:
        """KV tokens to reserve for ``request`` at admission: the prompt
        plus the first decode write."""
        return request.prompt_len + 1

    def expiry(self, request: Request) -> float:
        """Earliest time at which a still-waiting request is hopeless."""
        if self.ttft_deadline is None:
            return float("inf")
        return request.arrival_time + self.ttft_deadline


class ContinuousBatcher:
    """FIFO waiting queue + per-step admission/shedding decisions.

    Rejections accumulate on the batcher (``drain_rejections``); the
    serving loop drains them after every enqueue and admission pass.
    """

    def __init__(
        self,
        config: BatchingConfig,
        context_len: float = float("inf"),
        vocab_size: float = float("inf"),
    ) -> None:
        self.config = config
        #: The model's context: a longer request can never be served.
        self.context_len = context_len
        #: The model's vocabulary: a prompt id outside ``[0, vocab_size)``
        #: can never be served.
        self.vocab_size = vocab_size
        self._waiting: deque[Request] = deque()
        self._rejected: list[RejectedRequest] = []

    @property
    def num_waiting(self) -> int:
        return len(self._waiting)

    def enqueue(self, request: Request, now: float | None = None) -> RejectedRequest | None:
        """Queue ``request``, or return its typed rejection.

        A request that can never fit the pool or the model's context, or
        whose prompt holds an id outside the vocabulary, is
        ``"rejected"``; one arriving to a full bounded queue is
        ``"shed"``.  ``now`` defaults to the request's arrival time.
        """
        t = request.arrival_time if now is None else now
        if (
            not self.config.fits(request)
            or request.total_tokens > self.context_len
            or not self._in_vocabulary(request)
        ):
            return self._reject(request, REJECT_REJECTED, t)
        if (
            self.config.max_waiting is not None
            and len(self._waiting) >= self.config.max_waiting
        ):
            return self._reject(request, REJECT_SHED, t)
        self._waiting.append(request)
        return None

    def _in_vocabulary(self, request: Request) -> bool:
        """Whether every prompt id is a row of the embedding: the
        forward's own check, asked before the request takes a slot."""
        try:
            check_token_ids(request.prompt, self.vocab_size)
        except IndexError:
            return False
        return True

    def _reject(self, request: Request, cause: str, t: float) -> RejectedRequest:
        rej = RejectedRequest(request=request, cause=cause, time=t)
        self._rejected.append(rej)
        return rej

    def shed_expired(self, now: float) -> list[RejectedRequest]:
        """Sweep waiting requests whose deadline/TTFT budget expired.

        The whole queue is scanned (not just the head) so an expired
        head can never starve live requests behind it — this is the
        starvation bound of the deadline policy.
        """
        if self.config.ttft_deadline is None:
            return []
        shed: list[RejectedRequest] = []
        kept: deque[Request] = deque()
        for req in self._waiting:
            if now >= self.config.expiry(req):
                shed.append(self._reject(req, REJECT_DEADLINE, now))
            else:
                kept.append(req)
        self._waiting = kept
        return shed

    def admit(self, running: int, free_blocks: int, now: float = 0.0) -> list[Request]:
        """Requests to admit this step, FIFO, within capacity.

        ``running`` is the current in-flight sequence count and
        ``free_blocks`` the pool's free block count; both are advanced
        locally as requests are taken so one call decides the full
        admission set for the step.  Expired waiting requests are swept
        into the rejection list first (see :meth:`shed_expired`).
        """
        self.shed_expired(now)
        admitted: list[Request] = []
        while self._waiting and running < self.config.max_batch:
            need = self.config.blocks_for(
                self.config.reserve_tokens(self._waiting[0])
            )
            if need > free_blocks:
                break  # head-of-line blocking: keep arrival order strict
            req = self._waiting.popleft()
            admitted.append(req)
            running += 1
            free_blocks -= need
        return admitted

    def drain_rejections(self) -> list[RejectedRequest]:
        """Return and clear the accumulated typed rejections."""
        out = self._rejected
        self._rejected = []
        return out
