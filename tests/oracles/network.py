"""Link timings by walking every rank of the job in Python.

:func:`repro.simulate.engine.group_timings` and
:func:`~repro.simulate.engine.hierarchical_group_timings` derive the
same values with array operations over all sibling rings at once; these
per-rank walks are the readable definition they must equal bitwise
(``tests/test_sim_differential.py``).
"""

from __future__ import annotations

from repro.cluster import (
    INTER_NODE_LATENCY,
    INTRA_NODE_LATENCY,
    Placement,
    build_ring,
    shared_ring_bandwidths,
)
from repro.core.grid import Grid4D
from repro.runtime.hierarchical import decompose_by_node
from repro.simulate.network_sim import HierTiming, LinkTiming, congestion_factor


def measured_group_bandwidth(
    grid: Grid4D, placement: Placement, axis: str
) -> LinkTiming:
    """Bandwidth/latency of collectives along ``axis``, under contention
    from every sibling group sharing its nodes."""
    rep = grid.group_along(axis, 0)
    if rep.size == 1:
        return LinkTiming(float("inf"), 0.0, 1)

    nodes = {placement.node_of(r) for r in rep.ranks}
    # Collect all axis-groups with a member on those nodes, using the
    # placement's actual rank -> node mapping (block or otherwise).
    seen: set[tuple[int, ...]] = set()
    rings = []
    rep_idx = None
    for r in range(placement.num_gpus):
        if placement.node_of(r) not in nodes:
            continue
        g = grid.group_along(axis, r)
        if g.ranks in seen:
            continue
        seen.add(g.ranks)
        if g.ranks == rep.ranks:
            rep_idx = len(rings)
        rings.append(build_ring(list(g.ranks), placement))
    assert rep_idx is not None
    bws = shared_ring_bandwidths(rings, placement)

    rep_ring = rings[rep_idx]
    crosses = any(
        placement.node_of(a) != placement.node_of(b) for a, b in rep_ring.edges()
    )
    latency = INTER_NODE_LATENCY if crosses else INTRA_NODE_LATENCY
    bw = bws[rep_idx]
    if crosses:
        bw /= congestion_factor(placement.num_nodes)
    return LinkTiming(bw, latency, rep.size)


def hierarchical_group_timing(
    grid: Grid4D, placement: Placement, axis: str
) -> HierTiming | None:
    """Timings of the two-level decomposition of ``axis``'s groups, or
    ``None`` when they do not decompose (single node, one member per
    node, or uneven spread).

    Mirrors :func:`measured_group_bandwidth`: every sibling axis group
    with a member on the representative group's nodes runs the same
    decomposition simultaneously, so the intra-node rings of all
    siblings contend for device pairs and their cross rings contend for
    the NICs.  Intra and cross phases never run at the same instant but
    use disjoint links, so pooling them in one sharing computation only
    couples same-kind streams — exactly the contention each phase sees.
    """
    rep = grid.group_along(axis, 0)
    if rep.size == 1:
        return None
    rep_dec = decompose_by_node(rep.ranks, placement)
    if rep_dec is None:
        return None

    nodes = {placement.node_of(r) for r in rep.ranks}
    seen: set[tuple[int, ...]] = set()
    rings = []
    rep_intra: list[int] = []
    rep_cross: list[int] = []
    for r in range(placement.num_gpus):
        if placement.node_of(r) not in nodes:
            continue
        g = grid.group_along(axis, r)
        if g.ranks in seen:
            continue
        seen.add(g.ranks)
        dec = decompose_by_node(g.ranks, placement)
        if dec is None:
            # A sibling that cannot decompose runs its flat ring; it
            # still contends for the same links.
            rings.append(build_ring(list(g.ranks), placement))
            continue
        is_rep = g.ranks == rep.ranks
        for ng in dec.node_groups:
            if is_rep:
                rep_intra.append(len(rings))
            rings.append(build_ring(list(ng.ranks), placement))
        for cg in dec.cross_groups:
            if is_rep:
                rep_cross.append(len(rings))
            rings.append(build_ring(list(cg.ranks), placement))
    bws = shared_ring_bandwidths(rings, placement)
    intra_bw = min(bws[i] for i in rep_intra)
    leaders_bw = min(bws[i] for i in rep_cross)
    leaders_bw /= congestion_factor(placement.num_nodes)
    return HierTiming(
        intra=LinkTiming(intra_bw, INTRA_NODE_LATENCY, rep_dec.L),
        leaders=LinkTiming(leaders_bw, INTER_NODE_LATENCY, rep_dec.Q),
        L=rep_dec.L,
        Q=rep_dec.Q,
    )
