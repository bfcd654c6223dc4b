"""Pricing the sequence-parallel ring-attention axis.

The ring rotates one fused K+V block per step around each sequence
group: ``G_seq`` hops forward (payload ``P``) and ``G_seq`` hops
backward (payload ``2P`` — dK and dV travel the reverse ring), where

    P = 2 * B_loc * (S / G_seq) * (H / G_x) * dtype_bytes

is the per-rank block (K and V halves, batch split over Z, heads split
over X).  Hops use the sequence axis' effective bandwidth — the
outermost hierarchy level, so on multi-node grids it is the Eq. 7
inter-node bandwidth shared by everything inside it.

:func:`seq_ring_time` is the *unoverlapped* wire time per layer, the
``ring_seq`` term of :class:`repro.perfmodel.CommBreakdown` (the
communication model stays compute-free, like Eqs. 1–5).  The
overlap-aware time, where each partial-attention block's compute hides
the concurrent KV rotation, is priced by the simulator
(:func:`repro.simulate.price_iteration`).
"""

from __future__ import annotations

from ..config import GPTConfig
from ..core.grid import GridConfig

__all__ = [
    "ring_kv_payload_bytes",
    "ring_hop_time",
    "seq_ring_time",
]


def ring_kv_payload_bytes(
    cfg: GPTConfig,
    config: GridConfig,
    batch_per_group: float,
    dtype_bytes: int,
) -> float:
    """Per-hop fused K+V payload of one rank's ring rotation, in bytes."""
    b_loc = batch_per_group / config.gz
    return (
        2.0
        * b_loc
        * (cfg.seq_len / config.gs)
        * (cfg.hidden_size / config.gx)
        * dtype_bytes
    )


def ring_hop_time(payload_bytes: float, beta: float) -> float:
    """One p2p hop's wire time, ``payload / beta`` (latency-free)."""
    return payload_bytes / beta


def seq_ring_time(payload_bytes: float, gs: int, beta: float) -> float:
    """Unoverlapped per-layer ring wire time, forward + backward.

    ``gs`` hops of ``P`` forward plus ``gs`` hops of ``2P`` backward
    (dK and dV travel together on the reverse ring).  Zero for a
    degenerate ring (``gs == 1`` self-copies cost nothing on the wire).
    """
    if gs <= 1:
        return 0.0
    return gs * (
        ring_hop_time(payload_bytes, beta)
        + ring_hop_time(2.0 * payload_bytes, beta)
    )
