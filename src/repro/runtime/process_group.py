"""Process groups (communicators) over virtual ranks.

The runtime emulates an SPMD job inside one Python process: every MPI/NCCL
rank is a *virtual rank* identified by its integer id, rank-local data
lives in per-rank dictionaries, and the **only** channel between ranks is
a collective operation on a :class:`ProcessGroup`.  This discipline is
what lets the test suite prove that the 4D parallel algorithm computes the
same numbers a real distributed run would.

Tracing happens at two granularities:

* :class:`CollectiveRecord` — one record per collective *call* (op,
  group, bytes and tag: what the volume cross-validation and the
  pipeline's message counts read);
* :class:`CommEvent` — one event per *participating rank*, forming the
  per-rank schedules that :mod:`repro.runtime.validate` checks for SPMD
  consistency (desync, deadlock, split symmetry, handle discipline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["ProcessGroup", "CollectiveRecord", "CommEvent", "CommTracer"]


@dataclass(frozen=True)
class ProcessGroup:
    """An ordered set of global ranks participating in collectives.

    The order defines each member's *group rank* (its position), which in
    turn defines which shard it receives from a reduce-scatter and which
    slot it fills in an all-gather — exactly as in NCCL communicators.
    """

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError("process group cannot be empty")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError(f"duplicate ranks in group {self.ranks}")
        # Cached rank -> position map: group_rank() runs once per rank per
        # collective step on hot paths, and tuple.index() is O(n).  The
        # cache is not a dataclass field, so eq/hash/repr still depend on
        # ``ranks`` alone; object.__setattr__ is the sanctioned escape
        # hatch for frozen-dataclass initialization.
        object.__setattr__(
            self, "_pos", {r: i for i, r in enumerate(self.ranks)}
        )

    @property
    def size(self) -> int:
        return len(self.ranks)

    def group_rank(self, global_rank: int) -> int:
        """Position of ``global_rank`` within this group (O(1), cached)."""
        try:
            return self._pos[global_rank]
        except KeyError:
            raise ValueError(
                f"rank {global_rank} not in group {self.ranks}"
            ) from None

    def __contains__(self, global_rank: int) -> bool:
        return global_rank in self._pos

    def __iter__(self) -> Iterator[int]:
        return iter(self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class CollectiveRecord:
    """One collective operation, as seen by the tracing layer.

    ``bytes_per_rank`` is the size of each rank's *input* buffer in
    bytes; together with ``op`` and the group size this determines the
    communication volume of the ring algorithm.  ``dtype``/``count``
    (element type and per-rank element count) feed the schedule
    validator's per-rank events.
    """

    op: str  # "all_reduce" | "reduce_scatter" | "all_gather" | "p2p" | "all_to_all"
    group: ProcessGroup
    bytes_per_rank: int
    tag: str = ""
    dtype: str = ""
    count: int = 0


@dataclass(frozen=True)
class CommEvent:
    """One communication event in a single rank's program order.

    The per-rank event streams are the input to
    :class:`repro.runtime.validate.ScheduleValidator`.  ``group`` holds
    the member ranks of the communicator (or ``(src, dst)`` for p2p).

    Optional fields by op kind:

    * ``peer`` — the other endpoint, for ``send``/``recv``;
    * ``splits`` — per-destination element counts, for ``all_to_all``;
    * ``handle_id`` — links non-blocking ``issue:*`` events to their
      ``wait`` event.
    """

    rank: int
    op: str
    group: tuple[int, ...]
    dtype: str = ""
    count: int = 0
    tag: str = ""
    peer: int | None = None
    splits: tuple[int, ...] | None = None
    handle_id: int | None = None


@dataclass
class CommTracer:
    """Accumulates collective records and per-rank event schedules.

    Tests use the trace to check, e.g., that the Megatron-degenerate
    configuration issues only X-group all-reduces, or that ZeRO-degenerate
    issues all-gathers and reduce-scatters over the Z group.  The
    per-rank ``events`` feed the static SPMD schedule validator and the
    golden-trace regression harness.
    """

    records: list[CollectiveRecord] = field(default_factory=list)
    events: list[CommEvent] = field(default_factory=list)
    enabled: bool = True
    #: Ranks that fail-stopped: a dead rank records no further events —
    #: the same silence a crashed peer produces in a real job, and the
    #: footprint the schedule validator attributes back to it.
    dead_ranks: set[int] = field(default_factory=set)
    _next_handle: int = 0

    def mark_dead(self, rank: int) -> None:
        """Stop recording events for ``rank`` (fail-stop semantics)."""
        self.dead_ranks.add(rank)

    def _live(self, ranks) -> list[int]:
        if not self.dead_ranks:
            return list(ranks)
        return [r for r in ranks if r not in self.dead_ranks]

    def record(self, rec: CollectiveRecord) -> None:
        """Record one collective call and expand it to per-rank events."""
        if not self.enabled:
            return
        self.records.append(rec)
        for r in self._live(rec.group.ranks):
            self.events.append(
                CommEvent(
                    rank=r,
                    op=rec.op,
                    group=rec.group.ranks,
                    dtype=rec.dtype,
                    count=rec.count,
                    tag=rec.tag,
                )
            )

    def record_p2p(
        self,
        src: int,
        dst: int,
        nbytes: int,
        dtype: str = "",
        count: int = 0,
        tag: str = "",
        dropped: bool = False,
    ) -> None:
        """Record a point-to-point transfer as a send + a recv event.

        With ``dropped=True`` only the send is recorded: the message
        left the sender but never reached the receiver, leaving exactly
        the unmatched-send footprint the validator flags as a hang.

        A self-transfer (``src == dst``, the degenerate ring of a
        degree-1 group) records a singleton group with both the send and
        the recv event on the same rank; the validator pairs them over
        the ``(r, r)`` channel.
        """
        if not self.enabled:
            return
        group = ProcessGroup((src,) if src == dst else (src, dst))
        self.records.append(
            CollectiveRecord("p2p", group, nbytes, tag, dtype, count)
        )
        if src not in self.dead_ranks:
            self.events.append(
                CommEvent(src, "send", group.ranks, dtype, count, tag, peer=dst)
            )
        if not dropped and dst not in self.dead_ranks:
            self.events.append(
                CommEvent(dst, "recv", group.ranks, dtype, count, tag, peer=src)
            )

    def record_alltoall(
        self,
        group: ProcessGroup,
        splits: dict[int, tuple[int, ...]],
        nbytes: int,
        dtype: str = "",
        tag: str = "",
    ) -> None:
        """Record an all-to-all with per-rank send splits (element counts
        destined for each group position)."""
        if not self.enabled:
            return
        self.records.append(
            CollectiveRecord("all_to_all", group, nbytes, tag, dtype)
        )
        for r in self._live(group.ranks):
            sp = splits[r]
            self.events.append(
                CommEvent(
                    rank=r,
                    op="all_to_all",
                    group=group.ranks,
                    dtype=dtype,
                    count=int(sum(sp)),
                    tag=tag,
                    splits=tuple(int(s) for s in sp),
                )
            )

    def next_handle_id(self) -> int:
        """Allocate an id linking a non-blocking issue to its wait."""
        hid = self._next_handle
        self._next_handle += 1
        return hid

    def record_issue(
        self, group: ProcessGroup, op: str, handle_id: int, tag: str = ""
    ) -> None:
        """Record the issue of a non-blocking collective on every rank."""
        if not self.enabled:
            return
        for r in self._live(group.ranks):
            self.events.append(
                CommEvent(
                    r, f"issue:{op}", group.ranks, tag=tag, handle_id=handle_id
                )
            )

    def record_wait(
        self, group: ProcessGroup, op: str, handle_id: int, tag: str = ""
    ) -> None:
        """Record the wait completing a non-blocking collective."""
        if not self.enabled:
            return
        for r in self._live(group.ranks):
            self.events.append(
                CommEvent(
                    r, "wait", group.ranks, tag=tag, handle_id=handle_id
                )
            )

    def clear(self) -> None:
        self.records.clear()
        self.events.clear()

    def ops(self) -> list[str]:
        """The op names in issue order."""
        return [r.op for r in self.records]

    def total_bytes(self) -> int:
        """Sum of input-buffer bytes across records."""
        return sum(r.bytes_per_rank for r in self.records)
