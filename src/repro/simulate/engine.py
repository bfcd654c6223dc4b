"""The simulator's timing engine: vectorized, memoized link timings.

The scalar walks of :mod:`repro.simulate.network_sim` define what a
group's bandwidth *is*, visiting every rank of the job in Python —
``group_along`` per rank, ``build_ring`` per sibling group,
``shared_ring_bandwidths`` per edge — which cannot reach the paper's
4096–8192+ GPU scales in reasonable wall-clock.  This module derives the
exact same quantities with NumPy array operations: all sibling rings of
an axis advance through ring construction, stream counting, and
bottleneck-bandwidth reduction as a handful of vectorized updates.  It
is the only path :func:`repro.simulate.simulate_iteration` takes; the
scalar walks stay as the readable definition and the test oracle.

**Equivalence contract.**  Every bandwidth/latency this engine returns
is *bitwise identical* to the scalar walk's: the group enumeration, the
(node, rank) ring ordering, the NIC/pair stream counters, and the
order-independent min-reductions reproduce the same IEEE-754 doubles,
because every arithmetic expression (``inter_node_bw / share``,
``capacity / streams``, the congestion division) is evaluated with the
same operands in the same dtype.  The differential harness
(``tests/test_sim_differential.py``) fuzzes (machine x grid x placement
x size x algorithm) points and asserts exactly that.

:func:`group_timings` and :func:`hierarchical_group_timings` memoize per
axis signature -- (placement, axis size, axis stride) -- across calls
(cleared via :func:`clear_caches`).  Distinct grids share most of their
axes (a (4, 2, 8, 16) and a (4, 2, 16, 8) grid on the same placement
share X and Y), so a sweep over thousands of grids measures each
distinct sibling-group layout once, and sweeps that revisit a
configuration (run-to-run variability studies, top-k re-simulation,
goodput reports) price the network once.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..cluster import (
    INTER_NODE_LATENCY,
    INTRA_NODE_LATENCY,
    MachineSpec,
    Placement,
)
from ..core.grid import AXES5, Grid4D
from .network_sim import HierTiming, LinkTiming, congestion_factor

__all__ = [
    "deterministic_jitter",
    "vectorized_group_timing",
    "vectorized_hierarchical_group_timing",
    "group_timings",
    "hierarchical_group_timings",
    "num_cached_timings",
    "clear_caches",
]

_AXIS_INDEX = {axis: i for i, axis in enumerate(AXES5)}


def deterministic_jitter(key: str, amplitude: float) -> float:
    """Deterministic multiplicative noise in ``[1-a, 1+a]`` from a key.

    This is the *single* source of run-to-run perturbation for the
    simulator.  The key is built from job identity only (machine, grid,
    model, batch, salt), so the same seed always draws the same
    perturbation — whichever way the prices it scales were derived.
    """
    if amplitude == 0.0:
        return 1.0
    digest = hashlib.sha256(key.encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
    return 1.0 + amplitude * (2.0 * u - 1.0)


# --- placement / grid geometry as arrays ----------------------------------


def _placement_arrays(placement: Placement) -> tuple[np.ndarray, np.ndarray]:
    """(node, local-rank) of every global rank, as int64 arrays.

    Mirrors :meth:`Placement.node_of` / :meth:`Placement.local_rank_of`
    for both block and round-robin strategies.
    """
    r = np.arange(placement.num_gpus, dtype=np.int64)
    if placement.strategy == "round_robin":
        n = placement.num_nodes
        return r % n, r // n
    k = placement.gpus_per_node
    return r // k, r % k


def _axis_groups(grid: Grid4D, axis: str) -> np.ndarray:
    """All process groups along ``axis`` as a (num_groups, size) array.

    Row members are in coordinate order (ascending global rank — the
    exact member order of :meth:`Grid4D.group_along`).
    """
    gx, gy, gz, gd, gs = grid.config.full_dims
    ranks = np.arange(grid.config.total, dtype=np.int64).reshape(
        gs, gd, gz, gy, gx
    )
    i = _AXIS_INDEX[axis]
    # ranks[s, d, z, y, x]: move the varying axis innermost, flatten the rest.
    src_axis = {0: 4, 1: 3, 2: 2, 3: 1, 4: 0}[i]
    moved = np.moveaxis(ranks, src_axis, 4)
    return np.ascontiguousarray(moved.reshape(-1, grid.config.full_dims[i]))


def _ring_order(rows: np.ndarray, nodes: np.ndarray, num_gpus: int) -> np.ndarray:
    """Ring-order each row by (hosting node, global rank).

    The composite key ``node * num_gpus + rank`` is strictly monotone in
    the (node, rank) pair, so one argsort reproduces
    :func:`repro.cluster.build_ring`'s ordering for every row at once.
    """
    keys = nodes[rows] * np.int64(num_gpus) + rows
    order = np.argsort(keys, axis=1, kind="stable")
    return np.take_along_axis(rows, order, axis=1)


# --- shared-bandwidth computation, batched --------------------------------


def _shared_bottlenecks(
    src: np.ndarray,
    dst: np.ndarray,
    ring_id: np.ndarray,
    n_rings: int,
    nodes: np.ndarray,
    local: np.ndarray,
    machine: MachineSpec,
) -> np.ndarray:
    """Per-ring bottleneck bandwidth when all rings run simultaneously.

    ``src``/``dst``/``ring_id`` are flat directed-edge arrays (singleton
    rings contribute no edges and resolve to ``inf``).  Reproduces
    :func:`repro.cluster.shared_ring_bandwidths` exactly: NIC aggregates
    divide by the max of outbound/inbound stream counts, intra-node
    device pairs divide by same-directed-pair stream counts, and each
    ring takes the min over its own edges.
    """
    result = np.full(n_rings, np.inf)
    if src.size == 0:
        return result
    na, nb = nodes[src], nodes[dst]
    cross = na != nb
    bw = np.empty(src.shape, dtype=np.float64)
    if cross.any():
        n_nodes = int(max(na[cross].max(), nb[cross].max())) + 1
        out_streams = np.bincount(na[cross], minlength=n_nodes)
        in_streams = np.bincount(nb[cross], minlength=n_nodes)
        share = np.maximum(out_streams[na[cross]], in_streams[nb[cross]])
        bw[cross] = machine.inter_node_bw / np.maximum(1, share)
    intra = ~cross
    if intra.any():
        s, d = src[intra], dst[intra]
        pair_keys = s * np.int64(len(nodes)) + d
        _, inverse, counts = np.unique(
            pair_keys, return_inverse=True, return_counts=True
        )
        capacity = np.full(s.shape, machine.intra_node_bw, dtype=np.float64)
        if machine.die_size > 1 and machine.same_die_bw is not None:
            same_die = (
                local[s] // machine.die_size == local[d] // machine.die_size
            )
            capacity[same_die] = machine.same_die_bw
        bw[intra] = capacity / np.maximum(1, counts[inverse])
    np.minimum.at(result, ring_id, bw)
    return result


# --- flat (single-level) timings ------------------------------------------


def vectorized_group_timing(
    grid: Grid4D, placement: Placement, axis: str
) -> LinkTiming:
    """Vectorized :func:`~repro.simulate.network_sim.measured_group_bandwidth`."""
    size = grid.config.full_dims[_AXIS_INDEX[axis]]
    if size == 1:
        return LinkTiming(float("inf"), 0.0, 1)
    nodes, local = _placement_arrays(placement)
    groups = _axis_groups(grid, axis)
    rep_row = int(np.nonzero((groups == 0).any(axis=1))[0][0])
    rep_nodes = np.unique(nodes[groups[rep_row]])
    mask = np.isin(nodes[groups], rep_nodes).any(axis=1)
    selected = groups[mask]
    rep_idx = int(mask[:rep_row].sum())

    ordered = _ring_order(selected, nodes, placement.num_gpus)
    src = ordered.reshape(-1)
    dst = np.roll(ordered, -1, axis=1).reshape(-1)
    ring_id = np.repeat(
        np.arange(selected.shape[0], dtype=np.int64), selected.shape[1]
    )
    bws = _shared_bottlenecks(
        src, dst, ring_id, selected.shape[0], nodes, local, placement.machine
    )

    rep_ring = ordered[rep_idx]
    crosses = bool((nodes[rep_ring] != nodes[np.roll(rep_ring, -1)]).any())
    bw = float(bws[rep_idx])
    latency = INTER_NODE_LATENCY if crosses else INTRA_NODE_LATENCY
    if crosses:
        bw /= congestion_factor(placement.num_nodes)
    return LinkTiming(bw, latency, size)


# --- two-level (hierarchical) timings -------------------------------------


def _decomposable_rows(
    ordered_nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Which (node, rank)-ordered rows admit a two-level decomposition.

    Returns ``(mask, q)``: row ``g`` decomposes iff ``mask[g]`` — its
    ``p`` members spread over ``q[g] >= 2`` nodes with exactly
    ``L = p // q[g] >= 2`` members each (the
    :func:`repro.runtime.hierarchical.decompose_by_node` conditions).
    """
    n_rows, p = ordered_nodes.shape
    change = np.ones((n_rows, p), dtype=bool)
    change[:, 1:] = ordered_nodes[:, 1:] != ordered_nodes[:, :-1]
    q = change.sum(axis=1)
    mask = np.zeros(n_rows, dtype=bool)
    for q_val in np.unique(q):
        q_val = int(q_val)
        if q_val < 2 or p % q_val:
            continue
        length = p // q_val
        if length < 2:
            continue
        # Equal per-node counts <=> node boundaries land exactly on
        # multiples of L in the sorted order.
        expected = (np.arange(p) % length) == 0
        rows = np.nonzero(q == q_val)[0]
        ok = (change[rows] == expected).all(axis=1)
        mask[rows[ok]] = True
    return mask, q


def vectorized_hierarchical_group_timing(
    grid: Grid4D, placement: Placement, axis: str
) -> HierTiming | None:
    """Vectorized :func:`~repro.simulate.network_sim.hierarchical_group_timing`."""
    p = grid.config.full_dims[_AXIS_INDEX[axis]]
    if p == 1:
        return None
    nodes, local = _placement_arrays(placement)
    groups = _axis_groups(grid, axis)
    ordered = _ring_order(groups, nodes, placement.num_gpus)
    dec_mask, q_per_row = _decomposable_rows(nodes[ordered])

    rep_row = int(np.nonzero((groups == 0).any(axis=1))[0][0])
    if not dec_mask[rep_row]:
        return None
    rep_nodes = np.unique(nodes[groups[rep_row]])
    touch = np.isin(nodes[groups], rep_nodes).any(axis=1)

    edge_src: list[np.ndarray] = []
    edge_dst: list[np.ndarray] = []
    edge_ring: list[np.ndarray] = []
    ring_count = 0
    rep_intra: np.ndarray | None = None
    rep_cross: np.ndarray | None = None

    def add_rings(rows3: np.ndarray) -> np.ndarray:
        """Append the ring edges of a (n_rings, ring_len) batch; return
        the ring ids assigned to the batch's rows."""
        nonlocal ring_count
        n, ring_len = rows3.shape
        ids = np.arange(ring_count, ring_count + n, dtype=np.int64)
        edge_src.append(rows3.reshape(-1))
        edge_dst.append(np.roll(rows3, -1, axis=1).reshape(-1))
        edge_ring.append(np.repeat(ids, ring_len))
        ring_count += n
        return ids

    # Non-decomposing siblings run their flat ring; they still contend
    # for the same links.
    flat_rows = ordered[touch & ~dec_mask]
    if flat_rows.size:
        add_rings(flat_rows)

    # Decomposing siblings: Q intra-node rings of L members plus L
    # cross-node rings of Q members each.  Rows are processed per
    # distinct Q (heterogeneous spreads batch separately).
    sel = touch & dec_mask
    for q_val in np.unique(q_per_row[sel]):
        q_val = int(q_val)
        length = p // q_val
        rows = np.nonzero(sel & (q_per_row == q_val))[0]
        blocks = ordered[rows].reshape(len(rows), q_val, length)
        intra_ids = add_rings(blocks.reshape(-1, length))
        # cross group i = the i-th member of every node, node-ascending.
        cross = np.swapaxes(blocks, 1, 2)  # (n, L, Q)
        cross_ids = add_rings(cross.reshape(-1, q_val))
        if rep_row in rows:
            pos = int(np.nonzero(rows == rep_row)[0][0])
            rep_intra = intra_ids[pos * q_val:(pos + 1) * q_val]
            rep_cross = cross_ids[pos * length:(pos + 1) * length]
            rep_L, rep_Q = length, q_val

    assert rep_intra is not None and rep_cross is not None
    bws = _shared_bottlenecks(
        np.concatenate(edge_src),
        np.concatenate(edge_dst),
        np.concatenate(edge_ring),
        ring_count,
        nodes,
        local,
        placement.machine,
    )
    intra_bw = float(bws[rep_intra].min())
    leaders_bw = float(bws[rep_cross].min())
    leaders_bw /= congestion_factor(placement.num_nodes)
    return HierTiming(
        intra=LinkTiming(intra_bw, INTRA_NODE_LATENCY, rep_L),
        leaders=LinkTiming(leaders_bw, INTER_NODE_LATENCY, rep_Q),
        L=rep_L,
        Q=rep_Q,
    )


# --- cross-call memoization -----------------------------------------------

_GROUP_TIMINGS_CACHE: dict[tuple, LinkTiming] = {}
_HIER_TIMINGS_CACHE: dict[tuple, HierTiming | None] = {}
_MISS = object()


def _all_axes(cache: dict, per_axis, grid: Grid4D, placement: Placement) -> dict:
    """``per_axis(grid, placement, axis)`` for the five axes, each
    memoized per axis signature ``(placement, size, stride)``."""
    # Ranks are laid out (gs, gd, gz, gy, gx), x innermost, so an axis's
    # sibling groups are {r + j * stride : j < size} for every rank r
    # with coordinate 0 on the axis: fixed by the size, the stride (the
    # product of the inner axis sizes) and the rank count, which the
    # placement carries.  Placement is a frozen dataclass over a frozen
    # MachineSpec, and both timing families are pure functions of these
    # groups.  A cached ``None`` (flat only) is a hit like any other.
    timings = {}
    stride = 1
    for axis, size in zip(AXES5, grid.config.full_dims):
        key = (placement, size, stride)
        hit = cache.get(key, _MISS)
        if hit is _MISS:
            hit = cache[key] = per_axis(grid, placement, axis)
        timings[axis] = hit
        stride *= size
    return timings


def group_timings(
    grid: Grid4D, placement: Placement
) -> dict[str, LinkTiming]:
    """Link timings for all five axes of the grid (the sequence axis is
    size 1 on classic 4D grids and prices to ``inf`` bandwidth)."""
    return _all_axes(
        _GROUP_TIMINGS_CACHE, vectorized_group_timing, grid, placement
    )


def hierarchical_group_timings(
    grid: Grid4D, placement: Placement
) -> dict[str, HierTiming | None]:
    """Two-level timings for all five axes (``None`` = flat only)."""
    return _all_axes(
        _HIER_TIMINGS_CACHE, vectorized_hierarchical_group_timing,
        grid, placement,
    )


def num_cached_timings() -> int:
    """How many per-axis link timings (flat plus two-level) are memoized."""
    return len(_GROUP_TIMINGS_CACHE) + len(_HIER_TIMINGS_CACHE)


def clear_caches() -> None:
    """Drop every engine memo table (timings here, tuned GEMM shapes in
    :mod:`repro.kernels.tuner`, algorithm choices in
    :mod:`repro.perfmodel.hierarchical`).  The timings here are memoized
    per axis signature ``(placement, size, stride)``, not per grid."""
    _GROUP_TIMINGS_CACHE.clear()
    _HIER_TIMINGS_CACHE.clear()
    from ..kernels.tuner import clear_tuner_cache
    from ..perfmodel.hierarchical import clear_choice_cache

    clear_tuner_cache()
    clear_choice_cache()
