"""Per-rank wire bytes of one ring collective, phase by phase."""

from __future__ import annotations

from repro.perfmodel.ring import _check


def ring_wire_bytes(op: str, nbytes: float, p: int) -> float:
    """Bytes each rank forwards for one traced collective record.

    ``nbytes`` follows the :class:`~repro.runtime.CollectiveRecord`
    convention: the input-buffer size for ``all_reduce`` /
    ``reduce_scatter`` / ``broadcast``, the per-rank *shard* size for
    ``all_gather``.  Dividing by the link bandwidth must reproduce the
    bandwidth term of the matching ``*_time`` function — the invariant
    ``tests/test_volume_crossval.py`` pins.  Broadcast is derived
    phase-by-phase (scatter then all-gather of ``1/p`` shards), which
    independently cross-checks ``broadcast_time``'s closed form.
    """
    if op not in ("all_reduce", "reduce_scatter", "all_gather", "broadcast"):
        raise ValueError(f"unknown ring collective {op!r}")
    _check(p, 1.0, nbytes)
    if p == 1:
        return 0.0
    if op == "all_reduce":
        return 2 * (p - 1) / p * nbytes
    if op == "reduce_scatter":
        return (p - 1) / p * nbytes
    if op == "all_gather":
        return (p - 1) * nbytes
    # Broadcast: scatter is p-1 shard-sized root sends; the all-gather is
    # p-1 forwards of the same shard size.
    shard = nbytes / p
    return (p - 1) * shard + (p - 1) * shard
