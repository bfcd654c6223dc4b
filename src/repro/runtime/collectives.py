"""Functional ring-algorithm collectives over virtual ranks.

Each collective takes ``buffers``: a mapping from *global rank* to that
rank's local NumPy array, covering exactly the members of the group, and
returns a mapping of the same shape.  Internally the ring algorithm is
executed step by step — chunks really travel around the ring — so the
data movement (and floating-point summation order) matches what
NCCL/RCCL's ring implementations do:

* ``reduce_scatter``: p-1 steps; each chunk is reduced as it circles the
  ring and lands, fully reduced, on its owner.
* ``all_gather``: p-1 steps passing shards around the ring.
* ``all_reduce``: reduce-scatter followed by all-gather (Rabenseifner),
  which also guarantees NCCL's invariant that every rank receives an
  *identical* result array.

These functions are the only inter-rank channel in the runtime; the 4D
parallel algorithm in :mod:`repro.core` is built exclusively on them.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .process_group import CollectiveRecord, CommTracer, ProcessGroup
from . import faults as _faults
from ..telemetry.spans import get_tracer as _telemetry, traced as _traced

__all__ = [
    "all_reduce",
    "reduce_scatter",
    "all_gather",
    "all_to_all",
    "REDUCE_OPS",
]

#: Supported reduction operators.
REDUCE_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
}


def _check_buffers(
    buffers: Mapping[int, np.ndarray], group: ProcessGroup
) -> None:
    if set(buffers) != set(group.ranks):
        raise ValueError(
            f"buffers keyed by {sorted(buffers)} do not match group "
            f"{sorted(group.ranks)}"
        )
    shapes = {buffers[r].shape for r in group}
    if len(shapes) != 1:
        raise ValueError(f"mismatched buffer shapes across ranks: {shapes}")
    dtypes = {buffers[r].dtype for r in group}
    if len(dtypes) != 1:
        raise ValueError(f"mismatched buffer dtypes across ranks: {dtypes}")


def _trace(
    tracer: CommTracer | None,
    op: str,
    group: ProcessGroup,
    sample: np.ndarray,
    tag: str,
    internal: bool = False,
) -> None:
    # Ambient telemetry sees every user-visible collective; the internal
    # sub-collectives of all_reduce are skipped so op-level byte counters
    # are not double-counted (the composite already reported).
    if not internal:
        tel = _telemetry()
        if tel is not None:
            tel.count_collective(
                op, sample.nbytes, tag=tag, group_size=group.size
            )
    if tracer is not None:
        tracer.record(
            CollectiveRecord(
                op,
                group,
                sample.nbytes,
                tag,
                dtype=str(sample.dtype),
                count=int(sample.size),
            )
        )


#: Sentinel suppressing injection for *internal* sub-collectives (the
#: reduce-scatter/all-gather inside all_reduce): the composite operation
#: is the user-visible fault site, and must consult the injector once.
_DISABLED = object()

#: Active hierarchical collective policies (innermost last), managed by
#: :func:`repro.runtime.hierarchical.collective_policy_scope`.  The list
#: lives here so the hot path pays one truthiness check when no policy
#: is installed.
_POLICIES: list = []


def _hier_route(op: str, group: ProcessGroup, nbytes: int):
    """The two-level implementation the active policy elects, or None."""
    from . import hierarchical as _hier

    return _hier.route(op, group, nbytes, _POLICIES[-1])


def _inject(
    op: str,
    group: ProcessGroup,
    buffers: Mapping[int, np.ndarray],
    tag: str,
    tracer: CommTracer | None,
    injector,
) -> Mapping[int, np.ndarray]:
    """Consult the explicit or ambient fault injector, if any.

    May raise :class:`~repro.runtime.faults.RankFailure` (a group member
    is dead) or return buffers with one rank's payload bit-flipped.
    """
    if injector is _DISABLED:
        return buffers
    inj = injector if injector is not None else _faults.get_active_injector()
    if inj is None:
        return buffers
    return inj.before_collective(op, group, buffers, tag, tracer=tracer)


def _flatten_padded(
    buffers: Mapping[int, np.ndarray], group: ProcessGroup, p: int
) -> tuple[dict[int, np.ndarray], int]:
    """Flatten each buffer and zero-pad to a multiple of ``p`` elements."""
    n = buffers[group.ranks[0]].size
    pad = (-n) % p
    flat = {}
    for r in group:
        v = np.ravel(buffers[r])
        if pad:
            v = np.concatenate([v, np.zeros(pad, dtype=v.dtype)])
        flat[r] = v.copy()
    return flat, n


def _begin(
    name: str,
    buffers: Mapping[int, np.ndarray],
    group: ProcessGroup,
    tracer: CommTracer | None,
    tag: str,
    injector,
    **impl_kwargs,
):
    """The front every ring collective shares: check the buffers, defer
    to the two-level implementation an active policy elects (it gets
    ``impl_kwargs``: ``op=``), consult the fault injector, record the
    call, settle size-1 groups.

    Returns ``(buffers, None)`` — the possibly fault-injected buffers to
    run the ring on — or ``(None, result)`` when already answered.
    """
    _check_buffers(buffers, group)
    lead = group.ranks[0]
    if _POLICIES and injector is not _DISABLED:
        hier = _hier_route(name, group, buffers[lead].nbytes)
        if hier is not None:
            return None, hier(
                buffers, group, tracer=tracer, tag=tag, injector=injector,
                **impl_kwargs,
            )
    buffers = _inject(name, group, buffers, tag, tracer, injector)
    sample = buffers[lead]
    _trace(tracer, name, group, sample, tag, internal=injector is _DISABLED)
    if group.size == 1:
        return None, {lead: sample.copy()}
    return buffers, None


@_traced(cat="comm")
def reduce_scatter(
    buffers: Mapping[int, np.ndarray],
    group: ProcessGroup,
    op: str = "sum",
    tracer: CommTracer | None = None,
    tag: str = "",
    injector=None,
) -> dict[int, np.ndarray]:
    """Ring reduce-scatter.

    Every rank contributes an identically-shaped array whose leading
    dimension must be divisible by the group size; rank at group position
    ``g`` receives the fully reduced ``g``-th shard (split along axis 0).
    """
    p = group.size
    # Rejected before the call is traced or reaches the injector.
    lead = buffers.get(group.ranks[0])
    if lead is not None and lead.shape[0] % p:
        raise ValueError(
            f"reduce_scatter: leading dim {lead.shape[0]} not divisible "
            f"by group size {p}"
        )
    buffers, done = _begin(
        "reduce_scatter", buffers, group, tracer, tag, injector, op=op
    )
    if done is not None:
        return done
    reduce_fn = REDUCE_OPS[op]
    shard_rows = buffers[group.ranks[0]].shape[0] // p
    # Working state: chunk c of rank r.
    chunks = {
        r: [buffers[r][c * shard_rows : (c + 1) * shard_rows].copy() for c in range(p)]
        for r in group
    }
    # p-1 ring steps: at step s, group-rank g sends chunk (g - s - 1) mod p
    # to its right neighbour, which reduces it into its own copy.
    for s in range(p - 1):
        in_flight = {}
        for g, r in enumerate(group.ranks):
            c = (g - s - 1) % p
            in_flight[(g + 1) % p, c] = chunks[r][c]
        for (g_dst, c), payload in in_flight.items():
            r_dst = group.ranks[g_dst]
            chunks[r_dst][c] = reduce_fn(chunks[r_dst][c], payload)
    # After p-1 steps, group-rank g owns fully reduced chunk g.
    return {r: chunks[r][g] for g, r in enumerate(group.ranks)}


@_traced(cat="comm")
def all_gather(
    buffers: Mapping[int, np.ndarray],
    group: ProcessGroup,
    tracer: CommTracer | None = None,
    tag: str = "",
    injector=None,
) -> dict[int, np.ndarray]:
    """Ring all-gather.

    Each rank contributes a shard; every rank receives the shards of all
    group members concatenated along axis 0 in group order.
    """
    buffers, done = _begin("all_gather", buffers, group, tracer, tag, injector)
    if done is not None:
        return done
    p = group.size
    # slots[r][c] is rank r's copy of group-rank c's shard (None = not yet
    # received).
    slots: dict[int, list[np.ndarray | None]] = {
        r: [None] * p for r in group
    }
    for g, r in enumerate(group.ranks):
        slots[r][g] = buffers[r].copy()
    # p-1 ring steps: at step s, group-rank g forwards shard (g - s) mod p.
    for s in range(p - 1):
        in_flight = {}
        for g, r in enumerate(group.ranks):
            c = (g - s) % p
            payload = slots[r][c]
            assert payload is not None, "ring all-gather invariant violated"
            in_flight[(g + 1) % p, c] = payload
        for (g_dst, c), payload in in_flight.items():
            slots[group.ranks[g_dst]][c] = payload.copy()
    return {
        r: np.concatenate(slots[r], axis=0) for r in group  # type: ignore[arg-type]
    }


@_traced(cat="comm")
def all_reduce(
    buffers: Mapping[int, np.ndarray],
    group: ProcessGroup,
    op: str = "sum",
    tracer: CommTracer | None = None,
    tag: str = "",
    injector=None,
) -> dict[int, np.ndarray]:
    """Ring all-reduce (reduce-scatter + all-gather).

    All ranks receive identical, fully reduced arrays of the input shape.
    Arrays are flattened and zero-padded internally, so no divisibility
    constraint applies.
    """
    buffers, done = _begin(
        "all_reduce", buffers, group, tracer, tag, injector, op=op
    )
    if done is not None:
        return done
    shape = buffers[group.ranks[0]].shape
    flat, n = _flatten_padded(buffers, group, group.size)
    scattered = reduce_scatter(flat, group, op=op, injector=_DISABLED)
    gathered = all_gather(scattered, group, injector=_DISABLED)
    return {r: gathered[r][:n].reshape(shape) for r in group}


@_traced(cat="comm")
def all_to_all(
    chunks: Mapping[int, list[np.ndarray]],
    group: ProcessGroup,
    tracer: CommTracer | None = None,
    tag: str = "",
    injector=None,
) -> dict[int, list[np.ndarray]]:
    """All-to-all personalized exchange (MPI_Alltoallv semantics).

    ``chunks[src]`` is a list of ``group.size`` arrays: the payload
    ``src`` sends to each group position (variable row counts allowed;
    trailing dims must agree or be empty).  Returns, per rank, the list
    of arrays it received — index ``i`` from the rank at group position
    ``i``.  This is the dispatch/combine primitive of expert parallelism
    (mixture-of-experts routing).
    """
    p = group.size
    if set(chunks) != set(group.ranks):
        raise ValueError(
            f"chunks keyed by {sorted(chunks)} do not match group "
            f"{sorted(group.ranks)}"
        )
    for r in group:
        if len(chunks[r]) != p:
            raise ValueError(
                f"rank {r} supplied {len(chunks[r])} chunks for a group "
                f"of {p}"
            )
    if injector is not _DISABLED:
        inj = injector if injector is not None else _faults.get_active_injector()
        if inj is not None:
            inj.check_kills("all_to_all", group.ranks, tracer)
    tel = _telemetry()
    if tel is not None:
        tel.count_collective(
            "all_to_all",
            max(sum(c.nbytes for c in chunks[r]) for r in group),
            tag=tag,
            group_size=p,
        )
    if tracer is not None:
        nbytes = max(
            sum(c.nbytes for c in chunks[r]) for r in group
        )
        splits = {
            r: tuple(int(c.size) for c in chunks[r]) for r in group
        }
        dtypes = {str(c.dtype) for r in group for c in chunks[r]}
        dtype = dtypes.pop() if len(dtypes) == 1 else ""
        tracer.record_alltoall(group, splits, nbytes, dtype=dtype, tag=tag)
    out: dict[int, list[np.ndarray]] = {}
    for dst_pos, dst in enumerate(group.ranks):
        out[dst] = [
            np.array(chunks[src][dst_pos], copy=True) for src in group.ranks
        ]
    return out
