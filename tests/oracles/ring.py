"""The ring collectives step by step, and their per-rank wire bytes.

``reduce_scatter`` / ``all_gather`` / ``all_reduce`` below are the
runtime's ring bodies as they were before it stopped copying: every
chunk is copied into per-rank working state and really travels around
the ring, hop by hop.  :mod:`repro.runtime.collectives` must return
exactly these arrays (``tests/test_collectives.py``).  Tracing, fault
injection and hierarchical routing are left out: they sit in front of
the ring and do not touch its arithmetic.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.perfmodel.ring import _check
from repro.runtime import ProcessGroup
from repro.runtime.collectives import REDUCE_OPS


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


def reduce_scatter(
    buffers: Mapping[int, np.ndarray], group: ProcessGroup, op: str = "sum"
) -> dict[int, np.ndarray]:
    """Ring reduce-scatter: group position ``g`` gets reduced shard ``g``."""
    p = group.size
    if p == 1:
        return {group.ranks[0]: buffers[group.ranks[0]].copy()}
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


def all_gather(
    buffers: Mapping[int, np.ndarray], group: ProcessGroup
) -> dict[int, np.ndarray]:
    """Ring all-gather: every rank gets all shards, in group order."""
    p = group.size
    if p == 1:
        return {group.ranks[0]: buffers[group.ranks[0]].copy()}
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


def all_reduce(
    buffers: Mapping[int, np.ndarray], group: ProcessGroup, op: str = "sum"
) -> dict[int, np.ndarray]:
    """Ring all-reduce: reduce-scatter, then all-gather, of the flattened
    and zero-padded buffers."""
    if group.size == 1:
        return {group.ranks[0]: buffers[group.ranks[0]].copy()}
    shape = buffers[group.ranks[0]].shape
    flat, n = _flatten_padded(buffers, group, group.size)
    scattered = reduce_scatter(flat, group, op=op)
    gathered = all_gather(scattered, group)
    return {r: gathered[r][:n].reshape(shape) for r in group}


def ring_wire_bytes(op: str, nbytes: float, p: int) -> float:
    """Bytes each rank forwards for one traced collective record.

    ``nbytes`` follows the :class:`~repro.runtime.CollectiveRecord`
    convention: the input-buffer size for ``all_reduce`` /
    ``reduce_scatter``, the per-rank *shard* size for ``all_gather``.
    Dividing by the link bandwidth must reproduce the bandwidth term of
    the matching ``*_time`` function — the invariant
    ``tests/test_volume_crossval.py`` pins.
    """
    if op not in ("all_reduce", "reduce_scatter", "all_gather"):
        raise ValueError(f"unknown ring collective {op!r}")
    _check(p, 1.0, nbytes)
    if p == 1:
        return 0.0
    if op == "all_reduce":
        return 2 * (p - 1) / p * nbytes
    if op == "reduce_scatter":
        return (p - 1) / p * nbytes
    return (p - 1) * nbytes
