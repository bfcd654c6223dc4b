"""Two-level (hierarchical) collectives over the node topology.

A flat ring over a node-straddling group pays the inter-node hop on
every one of its ``p - 1`` steps.  The two-level algorithms of the
4D-hybrid predecessor paper (Singh et al.) and Dash et al.'s Frontier
study decompose such a group — ``Q`` nodes holding ``L`` members each —
into ``Q`` intra-node sub-groups plus ``L`` cross-node "leaders" groups
(the i-th member of every node), replacing ``O(p)`` NIC-latency steps
with ``O(L + Q)``:

* ``all_reduce``  = intra reduce-scatter -> leaders all-reduce of the
  ``1/L`` slices -> intra all-gather;
* ``reduce_scatter`` = intra reduce-scatter -> leaders reduce-scatter
  (with a local block pre-permutation so every rank lands on exactly the
  shard the flat ring would give it);
* ``all_gather`` = leaders all-gather -> intra all-gather -> local
  permutation back to group order;
* ``broadcast`` = one leaders-group broadcast from the root, then a
  broadcast inside every node.

Every phase executes through the *existing traced ring primitives* of
:mod:`repro.runtime.collectives`, so the CommTracer, the SPMD schedule
validator, fault injection, and telemetry byte counters all observe the
real sub-collectives with no special cases.  Sub-collective tags get a
``|hier.<phase>`` suffix.

**Bitwise caveat.**  ``all_gather`` and ``broadcast`` move data without
arithmetic and are bitwise-identical to the flat ring for any payload.
For the reducing collectives, floating-point addition is not
associative: the two-level summation order differs from the flat ring's,
so results are bitwise-equal only for payloads that are exact under
re-association (integer-valued floats within the mantissa, or the
``max``/``min`` ops) and agree to rounding tolerance otherwise — the
same contract real NCCL offers across algorithm choices.

Activation is ambient, mirroring :func:`repro.runtime.faults.fault_scope`::

    with collective_policy_scope(placement, "auto"):
        ...  # node-straddling collectives route through the two-level path

or per-grid via ``GridConfig(collective_algo=...)`` and
``Grid4D.collective_scope()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..cluster.topology import Placement
from . import collectives as rc
from .process_group import CommTracer, ProcessGroup

__all__ = [
    "NodeDecomposition",
    "decompose_by_node",
    "hierarchical_all_reduce",
    "hierarchical_reduce_scatter",
    "hierarchical_all_gather",
    "hierarchical_broadcast",
    "CollectivePolicy",
    "collective_policy_scope",
]


@dataclass(frozen=True)
class NodeDecomposition:
    """A node-straddling group split into its two-level sub-groups.

    ``node_groups[k]`` holds node ``k``'s members in group order;
    ``cross_groups[i]`` holds the i-th member of every node, in node
    order.  All node groups have exactly ``L`` members (``L >= 2``) and
    there are ``Q >= 2`` of them.
    """

    node_groups: tuple[ProcessGroup, ...]
    cross_groups: tuple[ProcessGroup, ...]
    L: int
    Q: int


def decompose_by_node(
    ranks: Sequence[int], placement: Placement
) -> NodeDecomposition | None:
    """Split ``ranks`` by hosting node, or ``None`` if not two-level.

    Returns ``None`` when the group fits in one node, when nodes hold
    unequal member counts (the two-level phases need uniform sub-groups),
    when each node holds a single member (the leaders ring *is* the flat
    ring), or when a rank falls outside the placement.
    """
    by_node: dict[int, list[int]] = {}
    for r in ranks:
        try:
            node = placement.node_of(r)
        except ValueError:
            return None
        by_node.setdefault(node, []).append(r)
    q = len(by_node)
    sizes = {len(members) for members in by_node.values()}
    if q < 2 or len(sizes) != 1:
        return None
    (size,) = sizes
    if size < 2:
        return None
    node_groups = tuple(
        ProcessGroup(tuple(members)) for _, members in sorted(by_node.items())
    )
    cross_groups = tuple(
        ProcessGroup(tuple(g.ranks[i] for g in node_groups))
        for i in range(size)
    )
    return NodeDecomposition(node_groups, cross_groups, L=size, Q=q)


# --- ambient policy -------------------------------------------------------

#: Selector signature: (op, nbytes, ranks, placement) -> AlgorithmChoice.
Selector = Callable[..., object]


@dataclass
class CollectivePolicy:
    """Which algorithm node-straddling collectives should use.

    ``algo`` is ``"hierarchical"`` (always two-level when decomposable)
    or ``"auto"`` (ask ``selector`` — default
    :func:`repro.perfmodel.hierarchical.choose_algorithm` — per
    (op, message size, group)).
    """

    placement: Placement
    algo: str = "hierarchical"
    selector: Selector | None = None

    def __post_init__(self) -> None:
        if self.algo not in ("hierarchical", "auto"):
            raise ValueError(
                f"policy algo must be 'hierarchical' or 'auto', got {self.algo!r}"
            )


@contextmanager
def collective_policy_scope(
    placement: Placement, algo: str = "hierarchical", selector: Selector | None = None
):
    """Route node-straddling collectives through the two-level path
    for the duration of the ``with`` block (innermost scope wins)."""
    policy = CollectivePolicy(placement, algo, selector)
    rc._POLICIES.append(policy)
    try:
        yield policy
    finally:
        rc._POLICIES.pop()


#: True while a hierarchical collective is composing its sub-phases —
#: the sub-collectives must run the flat ring, not re-enter the policy.
_IN_HIERARCHICAL = False


@contextmanager
def _hier_phase():
    global _IN_HIERARCHICAL
    prev = _IN_HIERARCHICAL
    _IN_HIERARCHICAL = True
    try:
        yield
    finally:
        _IN_HIERARCHICAL = prev


def route(op: str, group: ProcessGroup, nbytes: int, policy: CollectivePolicy):
    """The bound hierarchical implementation the active policy elects for
    this call, or ``None`` to run the flat ring."""
    if _IN_HIERARCHICAL:
        return None
    decomposition = decompose_by_node(group.ranks, policy.placement)
    if decomposition is None:
        return None
    if policy.algo == "auto":
        selector = policy.selector
        if selector is None:
            # Memoized: a traced iteration asks the same (op, bytes,
            # group) question once per identical layer.
            from ..perfmodel.hierarchical import cached_choose_algorithm as selector
        choice = selector(op, nbytes, group.ranks, policy.placement)
        if getattr(choice, "algo", choice) != "hierarchical":
            return None
    impl = _IMPLS[op]

    def bound(buffers, group, **kwargs):
        return impl(buffers, group, policy.placement, **kwargs)

    return bound


# --- the two-level algorithms ---------------------------------------------


def _block_permutation(
    group: ProcessGroup, dec: NodeDecomposition
) -> list[int]:
    """``perm[i * Q + k]`` = group position of node ``k``'s i-th member.

    Pre-permuting the ``p`` input blocks by this order makes the
    two-phase reduce-scatter (intra slice ``i``, then leaders block
    ``k``) deliver member ``(k, i)`` exactly the block the flat ring
    assigns to its group position.
    """
    return [
        group.group_rank(dec.node_groups[k].ranks[i])
        for i in range(dec.L)
        for k in range(dec.Q)
    ]


def hierarchical_all_reduce(
    buffers: Mapping[int, np.ndarray],
    group: ProcessGroup,
    placement: Placement,
    op: str = "sum",
    tracer: CommTracer | None = None,
    tag: str = "",
    injector=None,
) -> dict[int, np.ndarray]:
    """Two-level all-reduce: intra reduce-scatter, leaders all-reduce,
    intra all-gather.  Falls back to the flat ring when the group does
    not decompose."""
    rc._check_buffers(buffers, group)
    dec = decompose_by_node(group.ranks, placement)
    if dec is None:
        with _hier_phase():
            return rc.all_reduce(
                buffers, group, op=op, tracer=tracer, tag=tag, injector=injector
            )
    sample = buffers[group.ranks[0]]
    with _hier_phase():
        flat, n = rc._flatten_padded(buffers, group, group.size)
        sliced: dict[int, np.ndarray] = {}
        for ng in dec.node_groups:
            sliced.update(
                rc.reduce_scatter(
                    {r: flat[r] for r in ng.ranks}, ng, op=op,
                    tracer=tracer, tag=f"{tag}|hier.rs", injector=injector,
                )
            )
        reduced: dict[int, np.ndarray] = {}
        for cg in dec.cross_groups:
            reduced.update(
                rc.all_reduce(
                    {r: sliced[r] for r in cg.ranks}, cg, op=op,
                    tracer=tracer, tag=f"{tag}|hier.ar", injector=injector,
                )
            )
        gathered: dict[int, np.ndarray] = {}
        for ng in dec.node_groups:
            gathered.update(
                rc.all_gather(
                    {r: reduced[r] for r in ng.ranks}, ng,
                    tracer=tracer, tag=f"{tag}|hier.ag", injector=injector,
                )
            )
    return {r: gathered[r][:n].reshape(sample.shape) for r in group}


def hierarchical_reduce_scatter(
    buffers: Mapping[int, np.ndarray],
    group: ProcessGroup,
    placement: Placement,
    op: str = "sum",
    tracer: CommTracer | None = None,
    tag: str = "",
    injector=None,
) -> dict[int, np.ndarray]:
    """Two-level reduce-scatter delivering the flat ring's shard
    assignment (group position ``g`` gets block ``g``)."""
    rc._check_buffers(buffers, group)
    dec = decompose_by_node(group.ranks, placement)
    if dec is None:
        with _hier_phase():
            return rc.reduce_scatter(
                buffers, group, op=op, tracer=tracer, tag=tag, injector=injector
            )
    p = group.size
    sample = buffers[group.ranks[0]]
    if sample.shape[0] % p:
        raise ValueError(
            f"reduce_scatter: leading dim {sample.shape[0]} not divisible "
            f"by group size {p}"
        )
    block = sample.shape[0] // p
    perm = _block_permutation(group, dec)
    with _hier_phase():
        permuted = {
            r: np.concatenate(
                [buffers[r][g * block : (g + 1) * block] for g in perm], axis=0
            )
            for r in group
        }
        sliced: dict[int, np.ndarray] = {}
        for ng in dec.node_groups:
            sliced.update(
                rc.reduce_scatter(
                    {r: permuted[r] for r in ng.ranks}, ng, op=op,
                    tracer=tracer, tag=f"{tag}|hier.rs", injector=injector,
                )
            )
        out: dict[int, np.ndarray] = {}
        for cg in dec.cross_groups:
            out.update(
                rc.reduce_scatter(
                    {r: sliced[r] for r in cg.ranks}, cg, op=op,
                    tracer=tracer, tag=f"{tag}|hier.rs2", injector=injector,
                )
            )
    return out


def hierarchical_all_gather(
    buffers: Mapping[int, np.ndarray],
    group: ProcessGroup,
    placement: Placement,
    tracer: CommTracer | None = None,
    tag: str = "",
    injector=None,
) -> dict[int, np.ndarray]:
    """Two-level all-gather (leaders first, then intra-node), with a
    final local permutation back to group order.  Bitwise-identical to
    the flat ring for any payload."""
    rc._check_buffers(buffers, group)
    dec = decompose_by_node(group.ranks, placement)
    if dec is None:
        with _hier_phase():
            return rc.all_gather(
                buffers, group, tracer=tracer, tag=tag, injector=injector
            )
    p = group.size
    rows = buffers[group.ranks[0]].shape[0]
    perm = _block_permutation(group, dec)
    inverse = [0] * p
    for j, g in enumerate(perm):
        inverse[g] = j
    with _hier_phase():
        across: dict[int, np.ndarray] = {}
        for cg in dec.cross_groups:
            across.update(
                rc.all_gather(
                    {r: buffers[r] for r in cg.ranks}, cg,
                    tracer=tracer, tag=f"{tag}|hier.ag", injector=injector,
                )
            )
        gathered: dict[int, np.ndarray] = {}
        for ng in dec.node_groups:
            gathered.update(
                rc.all_gather(
                    {r: across[r] for r in ng.ranks}, ng,
                    tracer=tracer, tag=f"{tag}|hier.ag2", injector=injector,
                )
            )
    # Block j of the gathered buffer is the shard of group position
    # perm[j]; reorder so position g's shard sits at block g.
    return {
        r: np.concatenate(
            [gathered[r][inverse[g] * rows : (inverse[g] + 1) * rows] for g in range(p)],
            axis=0,
        )
        for r in group
    }


def hierarchical_broadcast(
    buffers: Mapping[int, np.ndarray],
    group: ProcessGroup,
    placement: Placement,
    root: int,
    tracer: CommTracer | None = None,
    tag: str = "",
    injector=None,
) -> dict[int, np.ndarray]:
    """Two-level broadcast: the root's leaders group first (one ring
    crossing the NICs), then one broadcast inside every node."""
    rc._check_buffers(buffers, group)
    if root not in group:
        raise ValueError(f"root {root} not in group {group.ranks}")
    dec = decompose_by_node(group.ranks, placement)
    if dec is None:
        with _hier_phase():
            return rc.broadcast(
                buffers, group, root, tracer=tracer, tag=tag, injector=injector
            )
    home = next(g for g in dec.node_groups if root in g)
    pos = home.group_rank(root)
    with _hier_phase():
        leaders = dec.cross_groups[pos]
        seeded = rc.broadcast(
            {r: buffers[r] for r in leaders.ranks}, leaders, root,
            tracer=tracer, tag=f"{tag}|hier.bc", injector=injector,
        )
        out: dict[int, np.ndarray] = {}
        for ng in dec.node_groups:
            local_root = ng.ranks[pos]
            out.update(
                rc.broadcast(
                    {r: seeded.get(r, buffers[r]) for r in ng.ranks},
                    ng, local_root,
                    tracer=tracer, tag=f"{tag}|hier.bc2", injector=injector,
                )
            )
    return out


_IMPLS = {
    "all_reduce": hierarchical_all_reduce,
    "reduce_scatter": hierarchical_reduce_scatter,
    "all_gather": hierarchical_all_gather,
    "broadcast": hierarchical_broadcast,
}
