"""Deterministic fault injection for the virtual SPMD runtime.

Real jobs at the paper's scale (thousands of Frontier/Perlmutter/Alps
nodes) do not run on healthy hardware: ranks fail-stop, NICs drop or
delay messages, and cosmic rays flip bits in payloads.  This module
gives the functional runtime the same adversary, *deterministically*: a
:class:`FaultPlan` — either hand-written or drawn from a seed — names
exactly which fault fires where, and a :class:`FaultInjector` installed
over the runtime (via :func:`fault_scope` or an explicit ``injector=``
argument on the collectives) fires them at the matching calls.

Fault classes and their runtime behaviour:

* ``kill`` — fail-stop of one rank at training step *k*: the next
  communication operation whose group contains the victim raises
  :class:`RankFailure` (and the victim stops being recorded by the
  tracer, exactly the silence a dead peer produces).  Cleared by
  :meth:`FaultInjector.restart` — the checkpoint-restart path re-forms
  the grid with a replacement.
* ``drop_p2p`` / ``delay_p2p`` — a point-to-point message is lost, or
  arrives late.  Blocking receives run a configurable
  timeout/retry/backoff loop (:class:`RetryPolicy`); a delay covered by
  the retry budget merely costs retries, an uncovered delay or a drop
  raises :class:`CommTimeoutError` after the budget is exhausted.
* ``bitflip`` — one bit of one rank's payload in a collective is
  inverted *silently* (the defining property of silent data corruption:
  the schedule stays clean, only the numbers change; downstream guards —
  the non-finite check, replica-sync checks, loss divergence — must
  catch it).
* ``delay_wait`` — a non-blocking collective's completion is late;
  :meth:`~repro.runtime.nonblocking.Handle.wait` runs the same
  retry/backoff loop.
* ``torn_write`` — the node crashes in the middle of persisting the
  ``match``-th checkpoint: the bytes being written are truncated on
  disk and :class:`TornWriteError` is raised.  An atomic writer (tmp
  file + ``os.replace``) confines the damage to the temporary file —
  the previous checkpoint survives; a non-atomic writer loses the
  checkpoint itself.
* ``corrupt_checkpoint`` — one bit of the ``match``-th checkpoint file
  is flipped *after* a successful write (silent storage corruption);
  only an integrity check at load time — the per-array CRC32 manifest
  of :mod:`repro.core.checkpoint_io` — can catch it.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .process_group import ProcessGroup

__all__ = [
    "FaultError",
    "RankFailure",
    "DecodeRankFailure",
    "DesyncError",
    "CommTimeoutError",
    "TornWriteError",
    "CheckpointCorruptionError",
    "RequestRejectedError",
    "RequestShedError",
    "DeadlineExceededError",
    "PreemptedError",
    "FaultSpec",
    "FaultPlan",
    "RetryPolicy",
    "FaultInjector",
    "fault_scope",
    "fault_cause",
    "get_active_injector",
]

#: The supported fault classes.
FAULT_KINDS = (
    "kill",
    "drop_p2p",
    "delay_p2p",
    "bitflip",
    "delay_wait",
    "torn_write",
    "corrupt_checkpoint",
)


# -- exception hierarchy ------------------------------------------------------


class FaultError(RuntimeError):
    """Base of every runtime-fault exception (catch this to recover)."""


class RankFailure(FaultError):
    """A rank fail-stopped; the named operation cannot complete.

    Carries the attribution recovery needs: which rank died, at which
    training step, and which operation observed the death first.
    """

    def __init__(self, rank: int, step: int, op: str, group=()) -> None:
        self.rank = rank
        self.step = step
        self.op = op
        self.group = tuple(group)
        super().__init__(
            f"rank {rank} failed (fail-stop) at step {step}; detected "
            f"entering {op!r}" + (f" on group {self.group}" if group else "")
        )


class DesyncError(FaultError):
    """Ranks disagree about the communication schedule or its payloads.

    Raised when a fault's effect is detected as *divergence* — e.g. a
    replayed segment whose recorded schedule no longer matches the
    golden, or replicas whose parameters drifted apart.
    """


class CommTimeoutError(FaultError):
    """A blocking wait exhausted its timeout/retry/backoff budget."""

    def __init__(self, op: str, detail: str, attempts: int, budget: float) -> None:
        self.op = op
        self.attempts = attempts
        self.budget = budget
        super().__init__(
            f"{op} timed out after {attempts} attempt(s) "
            f"({budget:.3g}s total wait): {detail}"
        )


class TornWriteError(FaultError):
    """A checkpoint write was interrupted mid-stream (node crash).

    The file being written holds a truncated prefix of the intended
    bytes.  Under the atomic write protocol the torn file is the
    temporary one and the previous checkpoint is untouched.
    """

    def __init__(self, path: str, save_index: int) -> None:
        self.path = str(path)
        self.save_index = save_index
        super().__init__(
            f"checkpoint write #{save_index} to {path} torn mid-stream"
        )


class CheckpointCorruptionError(FaultError):
    """A checkpoint failed its integrity check (CRC mismatch, torn or
    unreadable file, missing manifest)."""

    def __init__(self, path: str, detail: str) -> None:
        self.path = str(path)
        self.detail = detail
        super().__init__(f"checkpoint {path} failed verification: {detail}")


class DecodeRankFailure(RankFailure):
    """A tensor-parallel rank fail-stopped *mid-decode* and the serving
    engine could not recover (no viable shrunk group, or the recovery
    budget is exhausted).

    Distinguished from a training-time :class:`RankFailure` because the
    blast radius differs: a serving-side kill loses in-flight KV state
    for every sequence sharded over the dead rank, not optimizer state.
    """


class RequestRejectedError(FaultError):
    """A request can never be served (over model context or KV capacity).

    The serving engines normally surface this as a typed
    ``RejectedRequest`` outcome rather than raising; the exception class
    exists so strict callers and :func:`fault_cause` accounting share
    one taxonomy.
    """

    def __init__(self, request_id: int, detail: str) -> None:
        self.request_id = request_id
        self.detail = detail
        super().__init__(f"request {request_id} rejected: {detail}")


class RequestShedError(FaultError):
    """A request was shed by overload backpressure (bounded queue full)."""

    def __init__(self, request_id: int, queue_len: int) -> None:
        self.request_id = request_id
        self.queue_len = queue_len
        super().__init__(
            f"request {request_id} shed: waiting queue full ({queue_len})"
        )


class DeadlineExceededError(FaultError):
    """A request's deadline / TTFT budget expired before admission."""

    def __init__(self, request_id: int, deadline: float, now: float) -> None:
        self.request_id = request_id
        self.deadline = deadline
        self.now = now
        super().__init__(
            f"request {request_id} missed deadline {deadline:g} (now {now:g})"
        )


class PreemptedError(FaultError):
    """A sequence was preempted for KV-block pressure.

    The engines preempt-and-recompute internally (the request still
    completes), so this is raised only by strict callers that want
    preemption to be fatal; it exists mainly for taxonomy completeness.
    """

    def __init__(self, seq_id: int, step: int) -> None:
        self.seq_id = seq_id
        self.step = step
        super().__init__(f"sequence {seq_id} preempted at step {step}")


def fault_cause(exc: BaseException) -> str:
    """Classify a fault exception for restart-cause accounting.

    Returns one of ``"kill"``, ``"decode_kill"``, ``"timeout"``,
    ``"corruption"``, ``"desync"``, ``"rejected"``, ``"shed"``,
    ``"deadline"``, ``"preempted"``, or ``"other"`` — the categories the
    goodput and chaos-serving analyses distinguish (a kill costs a node,
    a timeout is transient, a corruption costs checkpoint history, the
    serving causes bucket per-request outcomes under overload/failure).
    """
    if isinstance(exc, DecodeRankFailure):
        return "decode_kill"
    if isinstance(exc, RankFailure):
        return "kill"
    if isinstance(exc, CommTimeoutError):
        return "timeout"
    if isinstance(exc, (TornWriteError, CheckpointCorruptionError)):
        return "corruption"
    if isinstance(exc, DesyncError):
        return "desync"
    if isinstance(exc, RequestRejectedError):
        return "rejected"
    if isinstance(exc, RequestShedError):
        return "shed"
    if isinstance(exc, DeadlineExceededError):
        return "deadline"
    if isinstance(exc, PreemptedError):
        return "preempted"
    return "other"


# -- fault specification ------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Field use by ``kind``:

    * ``kill``: ``rank`` dies at the start of training step ``step``.
    * ``drop_p2p``: the ``match``-th message on channel ``src -> dst``
      never arrives.
    * ``delay_p2p``: that message arrives ``delay`` (virtual) seconds
      late instead.
    * ``bitflip``: bit ``bit`` of one payload byte of ``rank`` is
      inverted in its ``match``-th collective named ``op`` (any
      collective when ``op`` is empty).
    * ``delay_wait``: the ``match``-th non-blocking ``op`` completes
      ``delay`` seconds late.
    * ``torn_write``: the ``match``-th checkpoint save is interrupted
      mid-write (truncated bytes + :class:`TornWriteError`).
    * ``corrupt_checkpoint``: bit ``bit`` of one byte of the
      ``match``-th *successfully written* checkpoint file is silently
      inverted on disk.
    """

    kind: str
    rank: int | None = None
    step: int = 0
    src: int | None = None
    dst: int | None = None
    op: str = ""
    match: int = 0
    delay: float = 0.0
    bit: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.kind in ("kill", "bitflip") and self.rank is None:
            raise ValueError(f"{self.kind} fault needs a victim rank")
        if self.kind in ("drop_p2p", "delay_p2p"):
            if self.src is None or self.dst is None:
                raise ValueError(f"{self.kind} fault needs src and dst ranks")
            if self.src == self.dst:
                raise ValueError(
                    f"{self.kind} fault needs distinct src and dst ranks"
                )
        if self.kind in ("delay_p2p", "delay_wait") and self.delay <= 0:
            raise ValueError(f"{self.kind} fault needs a positive delay")
        if self.match < 0:
            raise ValueError("match index must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults, optionally drawn from a seed.

    The plan is immutable and serially replayable: running the same
    program under the same plan injects byte-identical corruption, which
    is what lets the recovery tests assert bitwise-identical resume.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @staticmethod
    def random(
        seed: int,
        ranks: int,
        max_step: int,
        n_faults: int = 3,
        kinds: tuple[str, ...] = FAULT_KINDS,
    ) -> "FaultPlan":
        """Draw ``n_faults`` faults from a seeded generator.

        Every parameter of every fault is a function of ``seed`` alone,
        so a chaos-test sweep over seeds is reproducible run to run.
        """
        if ranks < 2:
            raise ValueError("need at least 2 ranks to inject faults")
        rng = np.random.default_rng(seed)
        faults = []
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            rank = int(rng.integers(ranks))
            peer = int((rank + 1 + rng.integers(ranks - 1)) % ranks)
            faults.append(
                FaultSpec(
                    kind=kind,
                    rank=rank,
                    step=int(rng.integers(max_step)),
                    src=rank,
                    dst=peer,
                    match=int(rng.integers(3)),
                    delay=float(rng.uniform(0.01, 10.0)),
                    bit=int(rng.integers(0, 8)),
                )
            )
        return FaultPlan(tuple(faults), seed=seed)


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff knobs for blocking waits.

    Attempt ``i`` (0-based) waits ``timeout * backoff**i`` virtual
    seconds; up to ``1 + max_retries`` attempts are made before the wait
    gives up with :class:`CommTimeoutError`.  Mirrors the NCCL watchdog
    + framework-level retry loops production trainers run.
    """

    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")

    @property
    def budget(self) -> float:
        """Total virtual seconds waited across all attempts."""
        return sum(
            self.timeout * self.backoff**i for i in range(self.max_retries + 1)
        )

    def attempts_to_cover(self, delay: float) -> int | None:
        """Attempts needed until cumulative waiting covers ``delay``
        (``None`` if the full budget still falls short)."""
        waited = 0.0
        for i in range(self.max_retries + 1):
            waited += self.timeout * self.backoff**i
            if waited >= delay:
                return i + 1
        return None


# -- the injector -------------------------------------------------------------


@dataclass
class FaultInjector:
    """Fires a :class:`FaultPlan`'s faults at the matching runtime calls.

    One injector survives across restarts of the training loop: fired
    faults stay fired (a replaced node does not re-die), and
    :meth:`restart` clears the dead-rank set when the grid is re-formed.
    ``stats`` counts what actually happened (kills, drops, delays,
    bitflips, retries, virtual seconds spent waiting).
    """

    plan: FaultPlan
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    stats: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        self.step = 0
        self.dead: set[int] = set()
        self._fired: set[int] = set()
        self._p2p_seen: Counter = Counter()  # (src, dst) -> messages seen
        self._op_seen: Counter = Counter()  # (rank, op) -> collectives seen
        self._wait_seen: Counter = Counter()  # op -> waits seen
        self._ckpt_saves = 0  # checkpoint saves seen
        self._rng = np.random.default_rng(self.plan.seed)
        #: Virtual seconds spent in retry waits (accumulated).
        self.waited = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start_step(self, step: int) -> None:
        """Advance the training-step clock (arms ``kill`` faults)."""
        self.step = step

    def restart(self) -> None:
        """Re-form after recovery: dead ranks are replaced; fired faults
        do not fire again."""
        self.dead.clear()
        self.stats["restarts"] += 1

    def pending(self) -> list[FaultSpec]:
        """Faults that have not fired yet."""
        return [
            f for i, f in enumerate(self.plan.faults) if i not in self._fired
        ]

    # -- internal matching -------------------------------------------------

    def _fire(self, idx: int, stat: str) -> None:
        self._fired.add(idx)
        self.stats[stat] += 1

    def _check_kills(self, op: str, ranks: Iterable[int], tracer) -> None:
        """Fire any armed kill whose victim participates in this op."""
        members = set(ranks)
        for i, f in enumerate(self.plan.faults):
            if (
                i not in self._fired
                and f.kind == "kill"
                and f.step <= self.step
                and f.rank in members
            ):
                self._fire(i, "kills")
                self.dead.add(f.rank)
                if tracer is not None:
                    tracer.mark_dead(f.rank)
                raise RankFailure(f.rank, self.step, op, tuple(members))
        already = members & self.dead
        if already:
            victim = min(already)
            raise RankFailure(victim, self.step, op, tuple(members))

    def _bitflip(self, arr: np.ndarray, fault: FaultSpec) -> np.ndarray:
        """Invert one (seed-chosen) payload bit; returns a corrupted copy."""
        out = np.ascontiguousarray(arr).copy()
        raw = out.reshape(-1).view(np.uint8)
        byte = int(self._rng.integers(raw.size))
        raw[byte] ^= np.uint8(1 << (fault.bit % 8))
        return out.reshape(arr.shape)

    def _timed_wait(self, op: str, detail: str, delay: float) -> None:
        """Run the retry/backoff loop against a completion ``delay``.

        ``delay == inf`` models a message that never arrives (drop)."""
        attempts = self.retry.attempts_to_cover(delay)
        if attempts is None:
            self.waited += self.retry.budget
            self.stats["timeouts"] += 1
            raise CommTimeoutError(
                op, detail, self.retry.max_retries + 1, self.retry.budget
            )
        self.stats["retries"] += attempts - 1
        self.waited += sum(
            self.retry.timeout * self.retry.backoff**i for i in range(attempts)
        )

    # -- runtime hooks -----------------------------------------------------

    def check_kills(self, op: str, ranks: Iterable[int], tracer=None) -> None:
        """Raise :class:`RankFailure` if a dead (or newly killed) rank
        participates in ``op`` — the metadata-only hook for collectives
        whose payloads the injector does not corrupt (all-to-all)."""
        self._check_kills(op, ranks, tracer)

    def before_collective(
        self,
        op: str,
        group: ProcessGroup,
        buffers: Mapping[int, np.ndarray],
        tag: str = "",
        tracer=None,
    ) -> Mapping[int, np.ndarray]:
        """Hook run at the top of every blocking collective.

        May raise :class:`RankFailure`; may return a copy of ``buffers``
        with one rank's payload silently bit-flipped.
        """
        self._check_kills(op, group.ranks, tracer)
        out = buffers
        touched_keys = set()
        for i, f in enumerate(self.plan.faults):
            if f.kind != "bitflip" or (f.op and f.op != op) or f.rank not in group:
                continue
            key = (f.rank, f.op or "*")
            touched_keys.add(key)
            if i not in self._fired and self._op_seen[key] == f.match:
                self._fire(i, "bitflips")
                out = dict(out)
                out[f.rank] = self._bitflip(out[f.rank], f)
        for key in touched_keys:
            self._op_seen[key] += 1
        return out

    def before_p2p(
        self,
        src: int,
        dst: int,
        buffer: np.ndarray,
        tag: str = "",
        tracer=None,
    ) -> np.ndarray:
        """Hook run by :func:`repro.runtime.p2p.send_recv`.

        May raise :class:`RankFailure` (dead endpoint) or
        :class:`CommTimeoutError` (drop, or delay beyond the retry
        budget); on a timed-out message the *send* is still recorded
        (the sender did its part — the receiver is the one left
        hanging), which is exactly the schedule footprint the validator
        attributes.
        """
        self._check_kills("send_recv", (src, dst), tracer)
        seen = self._p2p_seen[(src, dst)]
        self._p2p_seen[(src, dst)] += 1
        for i, f in enumerate(self.plan.faults):
            if i in self._fired or f.kind not in ("drop_p2p", "delay_p2p"):
                continue
            if (f.src, f.dst) != (src, dst) or f.match != seen:
                continue
            if f.kind == "drop_p2p":
                self._fire(i, "drops")
                if tracer is not None:
                    tracer.record_p2p(
                        src,
                        dst,
                        buffer.nbytes,
                        dtype=str(buffer.dtype),
                        count=int(buffer.size),
                        tag=tag,
                        dropped=True,
                    )
                self._timed_wait(
                    "recv",
                    f"message {seen} on channel {src}->{dst} "
                    f"(tag {tag!r}) was dropped",
                    float("inf"),
                )
            else:
                self._fire(i, "delays")
                self._timed_wait(
                    "recv",
                    f"message {seen} on channel {src}->{dst} "
                    f"(tag {tag!r}) delayed {f.delay:.3g}s beyond the "
                    f"retry budget",
                    f.delay,
                )
        return buffer

    def before_wait(self, op: str, group: ProcessGroup, tag: str = "") -> None:
        """Hook run by :meth:`repro.runtime.nonblocking.Handle.wait`."""
        self._check_kills(f"wait:{op}", group.ranks, None)
        seen = self._wait_seen[op]
        self._wait_seen[op] += 1
        for i, f in enumerate(self.plan.faults):
            if i in self._fired or f.kind != "delay_wait":
                continue
            if f.op and f.op != op:
                continue
            if f.match != seen:
                continue
            self._fire(i, "delays")
            self._timed_wait(
                f"wait:{op}",
                f"non-blocking {op!r} (tag {tag!r}) completed "
                f"{f.delay:.3g}s late",
                f.delay,
            )

    def collect_armed_kills(self, total: int | None = None, tracer=None) -> set[int]:
        """Fire every armed kill (``step <= now``) without raising and
        return the full dead-rank set.

        A collective only surfaces the *first* dead participant; the
        re-formation health check that follows a failure discovers every
        node that died by now in one sweep — which is what distinguishes
        a correlated failure (e.g. a buddy pair on one chassis) from a
        lone kill.  ``total`` restricts the sweep to ranks that exist in
        the current grid (kills aimed at already-removed ranks stay
        armed).
        """
        for i, f in enumerate(self.plan.faults):
            if (
                i not in self._fired
                and f.kind == "kill"
                and f.step <= self.step
                and (total is None or f.rank < total)
            ):
                self._fire(i, "kills")
                self.dead.add(f.rank)
                if tracer is not None:
                    tracer.mark_dead(f.rank)
        return set(self.dead)

    # -- checkpoint hooks ---------------------------------------------------

    def next_checkpoint_save(self) -> int:
        """Claim the index of the checkpoint save about to happen.

        The checkpoint writer calls this once per save; ``torn_write``
        and ``corrupt_checkpoint`` faults match against the returned
        index.
        """
        idx = self._ckpt_saves
        self._ckpt_saves += 1
        return idx

    def check_torn_write(self, save_index: int, written, final) -> None:
        """Fire a matching ``torn_write``: truncate the freshly-written
        file (``written`` — the tmp file under the atomic protocol) and
        raise :class:`TornWriteError`, modelling a crash before the
        rename onto ``final``."""
        for i, f in enumerate(self.plan.faults):
            if (
                i in self._fired
                or f.kind != "torn_write"
                or f.match != save_index
            ):
                continue
            self._fire(i, "torn_writes")
            target = Path(written)
            data = target.read_bytes()
            target.write_bytes(data[: max(1, len(data) // 2)])
            raise TornWriteError(str(final), save_index)

    def corrupt_checkpoint_file(self, save_index: int, path) -> None:
        """Fire a matching ``corrupt_checkpoint``: silently invert one
        bit of the persisted checkpoint file."""
        for i, f in enumerate(self.plan.faults):
            if (
                i in self._fired
                or f.kind != "corrupt_checkpoint"
                or f.match != save_index
            ):
                continue
            self._fire(i, "ckpt_corruptions")
            target = Path(path)
            raw = bytearray(target.read_bytes())
            # A deterministic mid-file byte: deep enough to land in array
            # payload, away from the zip central directory.
            offset = len(raw) // 2
            raw[offset] ^= 1 << (f.bit % 8)
            target.write_bytes(bytes(raw))


# -- active-injector context ---------------------------------------------------

_ACTIVE: list[FaultInjector] = []


def get_active_injector() -> FaultInjector | None:
    """The innermost installed injector, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def fault_scope(injector: FaultInjector | None) -> Iterator[FaultInjector | None]:
    """Install ``injector`` over every runtime call in the ``with`` body.

    The runtime's collectives/p2p/waits consult the active injector when
    no explicit ``injector=`` argument is passed, so existing call sites
    (the 4D model, the pipeline) need no signature changes to run under
    fault injection.  ``None`` is accepted and does nothing, which lets
    callers write one code path.
    """
    if injector is None:
        yield None
        return
    _ACTIVE.append(injector)
    try:
        yield injector
    finally:
        _ACTIVE.pop()


# -- schedule footprints -------------------------------------------------------
