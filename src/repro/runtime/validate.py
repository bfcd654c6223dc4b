"""Static SPMD validation of recorded collective schedules.

A distributed training job hangs — not crashes — when ranks disagree
about communication: one rank skips an all-reduce, issues it on the
wrong communicator, sends a different message size, or two ranks enter
overlapping collectives in opposite orders.  At AxoNN/Alps scale these
desyncs surface as NCCL timeouts hours into a run and are notoriously
hard to attribute.  The virtual runtime records every rank's
communication events (:class:`~repro.runtime.process_group.CommEvent`),
so the same class of bug can be caught *statically* here, at test time,
with the offending rank and operation named.

:class:`ScheduleValidator` checks four SPMD invariants:

1. **Collective consistency** — every member of a group issues the same
   collectives on it, in the same order, with matching dtype, element
   count, tag, and root (desync/hang detection).
2. **P2P pairing and acyclicity** — every send has exactly one matching
   recv with the same size/dtype/tag, and the happens-before graph of
   p2p events is acyclic (deadlock detection for pipeline schedules).
3. **All-to-all split symmetry** — every rank supplies one split per
   group position, and a ``*.dispatch`` / ``*.combine`` pair of
   all-to-alls has transposed split matrices (tokens return home).
4. **Handle discipline** — every non-blocking collective issued is
   waited exactly once, and never waited before (or without) issue.

The module also provides the golden-trace plumbing: a normalized,
JSON-stable serialization of a schedule and a structural diff used by
the regression tests in ``tests/test_golden_traces.py``.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .process_group import CommEvent, CommTracer

__all__ = [
    "Violation",
    "ScheduleValidationError",
    "ScheduleValidator",
    "validate_schedule",
    "assert_valid_schedule",
    "normalized_schedule",
]

#: Ops that are group collectives (every member must agree on them).
COLLECTIVE_OPS = frozenset(
    {
        "all_reduce",
        "reduce_scatter",
        "all_gather",
        "broadcast",
        "all_to_all",
        "scatter",
        "gather",
    }
)

#: Point-to-point ops (validated by pairing, not group agreement).
P2P_OPS = frozenset({"send", "recv"})


@dataclass(frozen=True)
class Violation:
    """One detected schedule defect, attributed to a rank and op."""

    check: str  # "collective" | "ordering" | "p2p" | "alltoall" | "handle"
    rank: int | None
    op: str | None
    index: int | None  # position in the relevant event subsequence
    message: str

    def __str__(self) -> str:
        where = f"rank {self.rank}" if self.rank is not None else "schedule"
        op = f" op {self.op!r}" if self.op else ""
        at = f" at position {self.index}" if self.index is not None else ""
        return f"[{self.check}] {where}{op}{at}: {self.message}"


class ScheduleValidationError(AssertionError):
    """Raised by :meth:`ScheduleValidator.assert_clean` on violations."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = list(violations)
        lines = [f"{len(self.violations)} schedule violation(s):"]
        lines += [f"  - {v}" for v in self.violations]
        super().__init__("\n".join(lines))


def _is_group_op(op: str) -> bool:
    return op in COLLECTIVE_OPS or op.startswith("issue:") or op == "wait"


def _sig(ev: CommEvent) -> tuple:
    """The signature every group member must agree on for one event.

    All-to-all counts/splits legitimately differ per rank (Alltoallv),
    so they are excluded here and handled by the symmetry check.
    """
    if ev.op == "all_to_all":
        return (ev.op, ev.dtype, ev.tag)
    return (ev.op, ev.dtype, ev.count, ev.tag, ev.root)


class ScheduleValidator:
    """Statically validates per-rank communication event schedules."""

    def __init__(self, events: Iterable[CommEvent]) -> None:
        self.events = list(events)
        self._by_rank: dict[int, list[CommEvent]] = defaultdict(list)
        for ev in self.events:
            self._by_rank[ev.rank].append(ev)


    # -- public API ----------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Run all checks; return every violation found (empty = clean)."""
        out: list[Violation] = []
        out += self.check_collective_consistency()
        out += self.check_cross_group_ordering()
        out += self.check_p2p()
        out += self.check_alltoall_symmetry()
        out += self.check_handles()
        return out

    def assert_clean(self) -> None:
        """Raise :class:`ScheduleValidationError` if any check fails."""
        violations = self.validate()
        if violations:
            raise ScheduleValidationError(violations)

    # -- check 1: per-group collective agreement -----------------------------

    def _group_streams(self) -> dict[tuple[int, ...], dict[int, list[CommEvent]]]:
        """For each group key, each member rank's event subsequence on it."""
        streams: dict[tuple[int, ...], dict[int, list[CommEvent]]] = (
            defaultdict(lambda: defaultdict(list))
        )
        for rank, evs in self._by_rank.items():
            for ev in evs:
                if _is_group_op(ev.op) and ev.op not in P2P_OPS:
                    streams[ev.group][rank].append(ev)
        return streams

    def check_collective_consistency(self) -> list[Violation]:
        """Invariant 1: identical collective sequences within each group.

        Attribution is majority-based: the rank(s) deviating from what
        most group members issued at each position are flagged, which
        pins single-rank desyncs on the desynced rank (ties break toward
        the longer/first signature, the common real-world failure shape).
        """
        out: list[Violation] = []
        for gkey, per_rank in sorted(self._group_streams().items()):
            members = list(gkey)
            # A member that recorded events on *some* group but nothing on
            # this one has desynced entirely.
            lengths = {r: len(per_rank.get(r, [])) for r in members}
            counts = Counter(lengths.values())
            top = counts.most_common(1)[0][1]
            # Majority length; ties break toward the longest (a dropped
            # collective is the expected corruption, not an invented one).
            majority_len = max(
                n for n, c in counts.items() if c == top
            )
            for r in members:
                if lengths[r] < majority_len:
                    nxt = _majority_sig_at(per_rank, members, lengths, lengths[r])
                    out.append(
                        Violation(
                            "collective",
                            r,
                            nxt[0] if nxt else None,
                            lengths[r],
                            f"rank {r} is missing collective(s) on group "
                            f"{gkey}: issued {lengths[r]}, the group "
                            f"majority issued {majority_len}"
                            + (
                                f" (first missing op {nxt[0]!r}, tag "
                                f"{nxt[2] if nxt[0] == 'all_to_all' else nxt[3]!r})"
                                if nxt
                                else ""
                            ),
                        )
                    )
                elif lengths[r] > majority_len:
                    ev = per_rank[r][majority_len]
                    out.append(
                        Violation(
                            "collective",
                            r,
                            ev.op,
                            majority_len,
                            f"rank {r} issued {lengths[r]} collectives on "
                            f"group {gkey} where the group majority issued "
                            f"{majority_len} (first extra op {ev.op!r}, "
                            f"tag {ev.tag!r})",
                        )
                    )
            for i in range(majority_len):
                sigs = {
                    r: _sig(per_rank[r][i])
                    for r in members
                    if lengths[r] > i
                }
                majority, _ = Counter(sigs.values()).most_common(1)[0]
                for r, sig in sigs.items():
                    if sig != majority:
                        ev = per_rank[r][i]
                        out.append(
                            Violation(
                                "collective",
                                r,
                                ev.op,
                                i,
                                f"rank {r} issued {ev.op!r} (dtype "
                                f"{ev.dtype!r}, count {ev.count}, tag "
                                f"{ev.tag!r}, root {ev.root}) on group "
                                f"{gkey} where the group majority issued "
                                f"{majority!r}",
                            )
                        )
        return _dedupe(out)

    # -- check 2: cross-group ordering (collective deadlock) -----------------

    def check_cross_group_ordering(self) -> list[Violation]:
        """Invariant 1b: no cyclic ordering of collectives across groups.

        If rank A enters collectives on groups G1 then G2 while rank B
        (member of both) enters G2 then G1, both block forever even
        though each group's own sequence is internally consistent.  Each
        group's *i*-th collective is a node; per-rank program order adds
        edges; a cycle is a potential hang.
        """
        node_op: dict[tuple[tuple[int, ...], int], str] = {}
        edges: dict[tuple[tuple[int, ...], int], set] = defaultdict(set)
        for rank, evs in sorted(self._by_rank.items()):
            counters: dict[tuple[int, ...], int] = defaultdict(int)
            prev = None
            for ev in evs:
                if not (_is_group_op(ev.op) and ev.op not in P2P_OPS):
                    continue
                node = (ev.group, counters[ev.group])
                counters[ev.group] += 1
                node_op.setdefault(node, ev.op)
                if prev is not None and prev != node:
                    edges[prev].add(node)
                prev = node
        cycle = _find_cycle(set(node_op), edges)
        if cycle is None:
            return []
        desc = " -> ".join(
            f"{node_op[n]}@{_fmt_group(n[0])}#{n[1]}" for n in cycle
        )
        ranks = sorted({r for n in cycle for r in n[0]})
        return [
            Violation(
                "ordering",
                ranks[0] if ranks else None,
                node_op[cycle[0]],
                cycle[0][1],
                f"cyclic collective ordering across groups (potential "
                f"hang) involving ranks {ranks}: {desc}",
            )
        ]

    # -- check 3: p2p pairing + deadlock -------------------------------------

    def check_p2p(self) -> list[Violation]:
        """Invariant 2: sends and recvs pair up, sizes match, no cycles."""
        out: list[Violation] = []
        sends: dict[tuple[int, int], list[tuple[int, CommEvent]]] = defaultdict(list)
        recvs: dict[tuple[int, int], list[tuple[int, CommEvent]]] = defaultdict(list)
        # Node ids for the happens-before graph: (rank, position of the
        # event within that rank's p2p subsequence).
        for rank, evs in sorted(self._by_rank.items()):
            pos = 0
            for ev in evs:
                if ev.op not in P2P_OPS:
                    continue
                node = (rank, pos)
                pos += 1
                assert ev.peer is not None
                if ev.op == "send":
                    sends[(rank, ev.peer)].append((node[1], ev))
                else:
                    recvs[(ev.peer, rank)].append((node[1], ev))

        match_edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
        for channel in sorted(set(sends) | set(recvs)):
            src, dst = channel
            ss, rr = sends.get(channel, []), recvs.get(channel, [])
            for i, ((spos, sev), (rpos, rev)) in enumerate(zip(ss, rr)):
                match_edges.append(((src, spos), (dst, rpos)))
                if (sev.count, sev.dtype, sev.tag) != (
                    rev.count,
                    rev.dtype,
                    rev.tag,
                ):
                    out.append(
                        Violation(
                            "p2p",
                            dst,
                            "recv",
                            i,
                            f"message {i} on channel {src}->{dst}: send "
                            f"(count {sev.count}, dtype {sev.dtype!r}, tag "
                            f"{sev.tag!r}) does not match recv (count "
                            f"{rev.count}, dtype {rev.dtype!r}, tag "
                            f"{rev.tag!r})",
                        )
                    )
            for i in range(len(rr), len(ss)):
                out.append(
                    Violation(
                        "p2p",
                        src,
                        "send",
                        i,
                        f"send {i} on channel {src}->{dst} (tag "
                        f"{ss[i][1].tag!r}) has no matching recv on rank "
                        f"{dst} (hang: {dst} never posts the receive)",
                    )
                )
            for i in range(len(ss), len(rr)):
                out.append(
                    Violation(
                        "p2p",
                        dst,
                        "recv",
                        i,
                        f"recv {i} on channel {src}->{dst} (tag "
                        f"{rr[i][1].tag!r}) has no matching send from rank "
                        f"{src} (hang: {dst} blocks forever)",
                    )
                )

        # Deadlock: program order within each rank + send-before-recv for
        # matched pairs must form a DAG.
        nodes = set()
        edges: dict[tuple[int, int], set] = defaultdict(set)
        for rank, evs in self._by_rank.items():
            n = sum(1 for ev in evs if ev.op in P2P_OPS)
            for p in range(n):
                nodes.add((rank, p))
                if p:
                    edges[(rank, p - 1)].add((rank, p))
        for a, b in match_edges:
            edges[a].add(b)
        cycle = _find_cycle(nodes, edges)
        if cycle is not None:
            ranks = sorted({n[0] for n in cycle})
            out.append(
                Violation(
                    "p2p",
                    ranks[0],
                    "send/recv",
                    None,
                    f"p2p dependency cycle (deadlock) among ranks {ranks}: "
                    + " -> ".join(f"r{r}#{p}" for r, p in cycle),
                )
            )
        return out

    # -- check 4: all-to-all split symmetry ----------------------------------

    def check_alltoall_symmetry(self) -> list[Violation]:
        """Invariant 3: Alltoallv splits well-formed; dispatch/combine
        pairs use transposed split matrices."""
        out: list[Violation] = []
        for gkey, per_rank in sorted(self._group_streams().items()):
            p = len(gkey)
            # Positionally aligned all_to_all instances on this group.
            a2a = {
                r: [ev for ev in per_rank.get(r, []) if ev.op == "all_to_all"]
                for r in gkey
            }
            n_inst = min((len(v) for v in a2a.values()), default=0)
            matrices: list[dict] = []
            for i in range(n_inst):
                rows = {}
                for pos, r in enumerate(gkey):
                    ev = a2a[r][i]
                    if ev.splits is None or len(ev.splits) != p:
                        out.append(
                            Violation(
                                "alltoall",
                                r,
                                "all_to_all",
                                i,
                                f"rank {r} supplied "
                                f"{0 if ev.splits is None else len(ev.splits)}"
                                f" splits for a group of {p} (tag {ev.tag!r})",
                            )
                        )
                        rows = None
                        break
                    rows[pos] = ev.splits
                matrices.append({"tag": a2a[gkey[0]][i].tag, "rows": rows})
            # Dispatch/combine transpose: consecutive instances whose tags
            # share a prefix and end ".dispatch" / ".combine".
            for i in range(len(matrices) - 1):
                t0, t1 = matrices[i]["tag"], matrices[i + 1]["tag"]
                if not (
                    t0.endswith(".dispatch")
                    and t1.endswith(".combine")
                    and t0.rsplit(".", 1)[0] == t1.rsplit(".", 1)[0]
                ):
                    continue
                d, c = matrices[i]["rows"], matrices[i + 1]["rows"]
                if d is None or c is None:
                    continue
                for si in range(p):
                    for sj in range(p):
                        if c[si][sj] != d[sj][si]:
                            out.append(
                                Violation(
                                    "alltoall",
                                    gkey[si],
                                    "all_to_all",
                                    i + 1,
                                    f"asymmetric MoE exchange on group "
                                    f"{gkey}: combine ({t1!r}) sends "
                                    f"{c[si][sj]} elements from rank "
                                    f"{gkey[si]} to rank {gkey[sj]}, but "
                                    f"dispatch ({t0!r}) routed "
                                    f"{d[sj][si]} elements on that path",
                                )
                            )
        return out

    # -- check 5: non-blocking handle discipline -----------------------------

    def check_handles(self) -> list[Violation]:
        """Invariant 4: every issued handle is waited exactly once."""
        out: list[Violation] = []
        for rank, evs in sorted(self._by_rank.items()):
            issued: dict[int, str] = {}  # handle_id -> op
            waited: set[int] = set()
            for i, ev in enumerate(evs):
                if ev.op.startswith("issue:"):
                    assert ev.handle_id is not None
                    issued[ev.handle_id] = ev.op.removeprefix("issue:")
                elif ev.op == "wait":
                    hid = ev.handle_id
                    if hid not in issued:
                        out.append(
                            Violation(
                                "handle",
                                rank,
                                "wait",
                                i,
                                f"rank {rank} waits on handle {hid} that "
                                f"it never issued (tag {ev.tag!r})",
                            )
                        )
                    elif hid in waited:
                        out.append(
                            Violation(
                                "handle",
                                rank,
                                issued[hid],
                                i,
                                f"rank {rank} waits twice on handle {hid} "
                                f"({issued[hid]!r}, tag {ev.tag!r})",
                            )
                        )
                    else:
                        waited.add(hid)
            for hid, op in issued.items():
                if hid not in waited:
                    out.append(
                        Violation(
                            "handle",
                            rank,
                            op,
                            None,
                            f"rank {rank} issued non-blocking {op!r} "
                            f"(handle {hid}) but never waited on it",
                        )
                    )
        return out


# -- helpers -----------------------------------------------------------------


def _majority_sig_at(
    per_rank: dict, members: list[int], lengths: dict[int, int], i: int
) -> tuple | None:
    """The majority signature at position ``i`` among ranks that got there."""
    sigs = [ _sig(per_rank[r][i]) for r in members if lengths[r] > i ]
    if not sigs:
        return None
    return Counter(sigs).most_common(1)[0][0]


def _dedupe(violations: list[Violation]) -> list[Violation]:
    seen = set()
    out = []
    for v in violations:
        key = (v.check, v.rank, v.op, v.message)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def _fmt_group(gkey: tuple[int, ...]) -> str:
    if len(gkey) > 4:
        return f"({gkey[0]}..{gkey[-1]}|{len(gkey)})"
    return str(gkey)


def _find_cycle(nodes: set, edges: dict) -> list | None:
    """Return one cycle in the directed graph, or None (iterative DFS)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    parent: dict = {}
    for start in sorted(nodes):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(edges.get(start, ()))))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in color:
                    continue
                if color[nxt] == GRAY:
                    # Found a back edge: reconstruct the cycle.
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle[1:]  # drop duplicated entry point
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


# -- module-level conveniences ------------------------------------------------


def _as_events(source: CommTracer | Iterable[CommEvent]) -> list[CommEvent]:
    if isinstance(source, CommTracer):
        return list(source.events)
    return list(source)


def validate_schedule(
    source: CommTracer | Iterable[CommEvent],
) -> list[Violation]:
    """Validate a tracer's (or raw event list's) schedule; return violations."""
    return ScheduleValidator(_as_events(source)).validate()


def assert_valid_schedule(source: CommTracer | Iterable[CommEvent]) -> None:
    """Raise :class:`ScheduleValidationError` unless the schedule is clean."""
    ScheduleValidator(_as_events(source)).assert_clean()


# -- golden-trace serialization ------------------------------------------------


def _event_dict(ev: CommEvent) -> dict:
    d: dict = {
        "op": ev.op,
        "group": list(ev.group),
        "dtype": ev.dtype,
        "count": ev.count,
        "tag": ev.tag,
    }
    if ev.peer is not None:
        d["peer"] = ev.peer
    if ev.root is not None:
        d["root"] = ev.root
    if ev.splits is not None:
        d["splits"] = list(ev.splits)
    if ev.handle_id is not None:
        d["handle_id"] = ev.handle_id
    return d


def normalized_schedule(source: CommTracer | Iterable[CommEvent]) -> dict:
    """A canonical, JSON-stable representation of per-rank schedules.

    Ranks are serialized as sorted string keys (JSON objects), events in
    each rank's program order with a fixed field set — two runs of the
    same seeded program produce byte-identical serializations.
    """
    events = _as_events(source)
    per_rank: dict[int, list[dict]] = defaultdict(list)
    for ev in events:
        per_rank[ev.rank].append(_event_dict(ev))
    return {
        "version": 1,
        "num_events": len(events),
        "ranks": {str(r): per_rank[r] for r in sorted(per_rank)},
    }


def dump_schedule(source: CommTracer | Iterable[CommEvent]) -> str:
    """Serialize a normalized schedule to its canonical JSON text."""
    return (
        json.dumps(normalized_schedule(source), indent=1, sort_keys=True)
        + "\n"
    )
