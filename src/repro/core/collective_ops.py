"""Differentiable collectives: ring collectives as autograd graph nodes.

The functional 4D-parallel model is built as **one** autograd graph in
which every rank's local tensors are distinct nodes and collectives are
multi-input operations.  A collective leaves every rank of its group
with the same value, so it is **one** node whose one output every rank
of the group holds (the runtime already hands them one shared read-only
array).  Because the node encodes the *true mathematical relation*
between its inputs and its output, reverse-mode differentiation
produces the paper's backward communication:

* all-reduce forward  -> autograd sums the gradients of every consumer
  on every rank into the node, and each input receives that sum (the
  backward all-reduce, Algorithm 1 line 12);
* all-gather forward  -> the same sum, sliced back to each contributor
  (the backward reduce-scatter, line 14).

Summing per consumer rather than per rank changes the order of the
gradient additions, so grid gradients may move by ulps from a
per-rank-node graph; the forward values do not move.

Sibling groups — groups at one call site that hand their rings the same
input objects in the same order, such as the X siblings of a LayerNorm's
Y-group moments or a weight's Z all-gathers in every data replica — may
share one node: pass the call site's ``siblings`` memo, and a group
whose ring returns exactly the bits an earlier sibling's did gets that
sibling's node (:func:`_sibling_node`).  Every sibling's ring is still
issued, traced and open to fault injection; a sibling whose payload was
corrupted gets different bits and keeps its own node.

Algorithm 1's line-4 all-reduce is not an :func:`all_reduce_t` node:
:class:`~repro.core.parallel_layers.ParallelLinear` (and the LM head)
fuse each contraction group's local products, their ring all-reduce and
the bias into one node, so the per-rank partial products never enter
the graph.  :func:`all_reduce_t` carries the LayerNorm moments and the
loss's sums.

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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` hold the same bits and no NaN: ``==``
    everywhere (a NaN is unequal to itself) with equal sign bits (which
    ``==`` does not see on ``±0``)."""
    return bool(np.array_equal(a, b)) and bool(
        np.array_equal(np.signbit(a), np.signbit(b))
    )


def _sibling_node(
    result: np.ndarray,
    tensors: Sequence[Tensor],
    backward,
    name: str,
    siblings: dict | None,
) -> Tensor:
    """The node over a group's ring ``result``: a new one, or the node of
    an earlier sibling in ``siblings`` that handed its ring the same
    input objects in the same order and got exactly these bits.

    Sharing is sound because both nodes would be the same function of
    the same tensors with the same value; the first sibling's node then
    receives every sibling's consumers' gradients, as the one node of a
    group receives its ranks'.  The memo keeps each key's inputs alive,
    so no ``id`` in a key is reused while the memo lives.
    """
    if siblings is None:
        return Tensor._make(result, tensors, backward, name)
    key = tuple(map(id, tensors))
    prior = siblings.get(key)
    if prior is not None and _same_bits(prior[1].data, result):
        return prior[1]
    out = Tensor._make(result, tensors, backward, name)
    if prior is None:
        siblings[key] = (tuple(tensors), out)
    return out


def all_reduce_t(
    tensors: Sequence[Tensor],
    group: ProcessGroup,
    tracer: CommTracer | None = None,
    tag: str = "",
    siblings: dict | None = None,
) -> list[Tensor]:
    """Differentiable sum all-reduce: every output is the elementwise sum
    of all inputs.  Inputs are ordered by group position.

    Every rank of the group gets the *same* :class:`Tensor`, one node
    over the shared result: autograd sums the gradients of all its
    consumers into it (Algorithm 1's backward all-reduce, line 12), and
    d(sum)/d(input) is the identity, so each input receives that sum.
    With a ``siblings`` memo, that node may be an earlier sibling
    group's (:func:`_sibling_node`).
    """
    outs = rc.all_reduce(_as_buffer_dict(tensors, group), group, tracer=tracer, tag=tag)
    n = len(tensors)

    def backward(g):
        return (g,) * n

    out = _sibling_node(
        outs[group.ranks[0]], tensors, backward, "all_reduce_t", siblings
    )
    return [out] * n


def all_gather_t(
    tensors: Sequence[Tensor],
    group: ProcessGroup,
    tracer: CommTracer | None = None,
    tag: str = "",
    siblings: dict | None = None,
) -> list[Tensor]:
    """Differentiable all-gather along axis 0: every output is the
    concatenation of all inputs in group order.

    Every rank of the group gets the *same* :class:`Tensor`; the summed
    gradient of its consumers is sliced back to each contributor, which
    is the reduce-scatter of Algorithm 1's line 14.  With a ``siblings``
    memo, that node may be an earlier sibling group's
    (:func:`_sibling_node`).
    """
    outs = rc.all_gather(_as_buffer_dict(tensors, group), group, tracer=tracer, tag=tag)
    offsets = np.cumsum([0] + [t.shape[0] for t in tensors]).tolist()
    n = len(tensors)

    def backward(g):
        return tuple(g[offsets[s] : offsets[s + 1]] for s in range(n))

    out = _sibling_node(
        outs[group.ranks[0]], tensors, backward, "all_gather_t", siblings
    )
    return [out] * n


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
