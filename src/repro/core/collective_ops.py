"""Differentiable collectives: ring collectives as autograd graph nodes.

The functional 4D-parallel model is built as **one** autograd graph in
which every rank's local tensors are distinct nodes and collectives are
multi-input/multi-output operations.  Because each collective node
encodes the *true mathematical relation* between its inputs and outputs
(e.g. every all-reduce output equals the sum of all inputs), reverse-mode
differentiation automatically produces the correct backward communication
pattern:

* all-reduce forward  -> gradient *sum* over consumers (itself an
  all-reduce, realized by autograd's accumulation);
* all-gather forward  -> gradient reduce-scatter.

The forward data movement goes through the traced ring implementations
in :mod:`repro.runtime.collectives`, so communication-pattern tests see
exactly the collectives the paper's Algorithm 1 issues.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..runtime import CommTracer, ProcessGroup
from ..runtime import collectives as rc
from ..tensor import Tensor

__all__ = [
    "all_reduce_t",
    "all_gather_t",
    "all_reduce_max_const",
    "all_to_all_t",
]


def _as_buffer_dict(
    tensors: Sequence[Tensor], group: ProcessGroup
) -> dict[int, np.ndarray]:
    if len(tensors) != group.size:
        raise ValueError(
            f"{len(tensors)} tensors for a group of size {group.size}"
        )
    return {r: t.data for r, t in zip(group.ranks, tensors)}


def all_reduce_t(
    tensors: Sequence[Tensor],
    group: ProcessGroup,
    tracer: CommTracer | None = None,
    tag: str = "",
) -> list[Tensor]:
    """Differentiable sum all-reduce: every output is the elementwise sum
    of all inputs.  Inputs are ordered by group position."""
    outs = rc.all_reduce(_as_buffer_dict(tensors, group), group, tracer=tracer, tag=tag)
    parents = tuple(tensors)
    results = []
    for r in group.ranks:
        def backward(g, _n=len(parents)):
            # d(sum)/d(input_s) = identity for every s.
            return tuple(g for _ in range(_n))

        results.append(Tensor._make(outs[r], parents, backward, "all_reduce_t"))
    return results


def all_gather_t(
    tensors: Sequence[Tensor],
    group: ProcessGroup,
    tracer: CommTracer | None = None,
    tag: str = "",
) -> list[Tensor]:
    """Differentiable all-gather along axis 0: every output is the
    concatenation of all inputs in group order."""
    outs = rc.all_gather(_as_buffer_dict(tensors, group), group, tracer=tracer, tag=tag)
    parents = tuple(tensors)
    sizes = [t.shape[0] for t in tensors]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    results = []
    for r in group.ranks:
        def backward(g, _offsets=offsets, _n=len(parents)):
            # Slice the output gradient back to each contributor.
            return tuple(
                g[_offsets[s] : _offsets[s + 1]] for s in range(_n)
            )

        results.append(Tensor._make(outs[r], parents, backward, "all_gather_t"))
    return results




def all_reduce_max_const(
    tensors: Sequence[Tensor],
    group: ProcessGroup,
    tracer: CommTracer | None = None,
    tag: str = "",
) -> list[np.ndarray]:
    """Max all-reduce returning *constants* (no gradient).

    Used for the numerically-stabilizing shift in the vocab-parallel
    cross-entropy, where the max acts as an additive constant whose
    gradient contribution cancels exactly.
    """
    outs = rc.all_reduce(
        _as_buffer_dict(tensors, group), group, op="max", tracer=tracer, tag=tag
    )
    return [outs[r] for r in group.ranks]


def all_to_all_t(
    chunk_tensors: dict[int, list[Tensor]],
    group: ProcessGroup,
    tracer: CommTracer | None = None,
    tag: str = "",
) -> dict[int, list[Tensor]]:
    """Differentiable all-to-all (MPI_Alltoallv semantics).

    ``chunk_tensors[src][j]`` is the tensor ``src`` sends to group
    position ``j``.  Returns per destination rank the list of received
    tensors (index ``i`` = from group position ``i``).  The exchange is
    a pure permutation of data, so each output's gradient flows back to
    exactly its source chunk — the dispatch/combine primitive of expert
    parallelism.
    """
    data = {
        src: [t.data for t in chunk_tensors[src]] for src in group.ranks
    }
    received = rc.all_to_all(data, group, tracer=tracer, tag=tag)

    out: dict[int, list[Tensor]] = {}
    for dst_pos, dst in enumerate(group.ranks):
        row: list[Tensor] = []
        for src_pos, src in enumerate(group.ranks):
            parent = chunk_tensors[src][dst_pos]

            def backward(g, _n=1):
                return (g,)

            row.append(
                Tensor._make(
                    received[dst][src_pos], (parent,), backward, "all_to_all_t"
                )
            )
        out[dst] = row
    return out
