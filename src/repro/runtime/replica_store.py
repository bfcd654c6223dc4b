"""Replicated in-memory checkpoints: buddy copies of per-rank state.

Disk checkpoints are the last line of defense, not the first: at the
paper's scale re-reading a multi-terabyte checkpoint through the shared
filesystem costs minutes, while most failures kill exactly one node.
Production systems (e.g. Gemini-style in-memory checkpointing, and the
elastic-continuation strategy the Alps/Frontier engineering reports
recommend) therefore keep a *peer replica* of every rank's shard in a
buddy rank's host memory: a single-rank failure restores from the buddy
over the interconnect with **zero disk reads**, and only *correlated*
failures (a buddy pair dying together) fall back to the on-disk
checkpoint ring.

:class:`ReplicaStore` implements that layer for the virtual runtime.
Every virtual rank owns a set of shards — weight shards keyed by its
grid coordinates plus the matching Adam moments — and its *buddy* holds
a copy refreshed after every optimizer step (:meth:`ReplicaStore.commit`,
the stand-in for the per-step replication send).  A fail-stop is
simulated honestly: :meth:`wipe` destroys the dead rank's owned shards
(NaN fill, exactly what losing the only copy means), and
:meth:`restore` re-materializes them from the buddy copy — possible iff
the buddy survived (:meth:`can_restore`).

Ownership in the functional model: a weight shard at tensor coordinates
``(x, y, z)`` is owned by the rank at ``(x, y, z, d=0)``; bias/LayerNorm
shards by the first rank of their column/feature coordinate; whole
replicated tables (embeddings) are owned by *every* rank and therefore
never lost to a single failure.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np

__all__ = ["ReplicaStore", "default_buddies"]


def default_buddies(total: int) -> dict[int, int]:
    """The buddy assignment: rank ``r``'s state is replicated on
    ``r XOR 1`` (adjacent pairing), with an odd trailing rank wrapping
    onto rank 0.  Buddy pairs are the correlated-failure unit: both
    members dying in one event defeats the in-memory layer.
    """
    if total < 2:
        raise ValueError("replication needs at least 2 ranks")
    buddies = {}
    for r in range(total):
        b = r ^ 1
        if b >= total:
            b = (r + 1) % total
        buddies[r] = b
    return buddies


def _shard_owners(model) -> dict[int, int | None]:
    """Map ``id(param) -> owning global rank`` for a 4D-parallel model.

    ``None`` marks a parameter replicated on every rank (embedding
    tables in the functional model) — recoverable from any survivor, so
    never wiped by a single failure.
    """
    # Late import: repro.core imports repro.runtime at package load.
    from ..core.parallel_layers import (
        ParallelEmbedding,
        ParallelLayerNorm,
        ParallelLinear,
    )
    from ..nn.module import Module, Parameter

    grid = model.grid
    owners: dict[int, int | None] = {}

    def axis_owner(axis: str, i: int) -> int:
        return grid.rank_of(i, 0, 0, 0) if axis == "x" else grid.rank_of(0, i, 0, 0)

    def visit(mod) -> None:
        if isinstance(mod, ParallelLinear):
            for (x, y, z), p in mod.weight_shards.items():
                owners[id(p)] = grid.rank_of(x, y, z, 0)
            for i, p in mod.bias_shards.items():
                owners[id(p)] = axis_owner(mod.col_axis, i)
        elif isinstance(mod, ParallelLayerNorm):
            for i, p in mod.weight_shards.items():
                owners[id(p)] = axis_owner(mod.feature_axis, i)
            for i, p in mod.bias_shards.items():
                owners[id(p)] = axis_owner(mod.feature_axis, i)
        elif isinstance(mod, ParallelEmbedding):
            owners[id(mod.weight)] = None
        for value in vars(mod).values():
            _descend(value)

    def _descend(value) -> None:
        if isinstance(value, Module):
            visit(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                _descend(item)
        elif isinstance(value, dict):
            for item in value.values():
                _descend(item)
        elif isinstance(value, Parameter) and id(value) not in owners:
            owners[id(value)] = None  # loose replicated parameter

    visit(model)
    return owners


class ReplicaStore:
    """Buddy-replicated in-memory snapshots of a model + optimizer.

    Attach to a :class:`~repro.core.ParallelGPT` and its AdamW; call
    :meth:`commit` after every completed optimizer step.  On a rank
    failure, call :meth:`wipe` (the crash destroys the rank's memory),
    then :meth:`restore` if :meth:`can_restore` — otherwise fall back to
    the on-disk checkpoint ring.

    ``stats`` counts ``commits``, ``wiped_arrays``, ``buddy_restores``,
    and ``restored_arrays``.
    """

    def __init__(self, model, optimizer, buddies: Mapping[int, int] | None = None) -> None:
        total = model.grid.config.total
        self.model = model
        self.optimizer = optimizer
        self.buddies = dict(buddies) if buddies is not None else default_buddies(total)
        if set(self.buddies) != set(range(total)):
            raise ValueError("buddy map must cover every rank exactly once")
        if any(self.buddies[r] == r for r in self.buddies):
            raise ValueError("a rank cannot be its own buddy")
        owners = _shard_owners(model)
        idx_of = {id(p): i for i, p in enumerate(optimizer.params)}
        #: (name, param, owner rank | None, optimizer slot) per parameter.
        self._index: list[tuple[str, object, int | None, int]] = []
        for name, p in model.named_parameters():
            if id(p) not in idx_of:
                raise ValueError(f"optimizer does not cover parameter {name!r}")
            self._index.append((name, p, owners.get(id(p)), idx_of[id(p)]))
        #: rank -> name -> (data, m, v) copies, conceptually held by the
        #: rank's buddy.
        self._snapshots: dict[int, dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        self.stats: Counter = Counter()

    # -- replication -------------------------------------------------------

    def commit(self) -> None:
        """Refresh every buddy copy from the live state (the per-step
        replication traffic; call after each optimizer step)."""
        opt = self.optimizer
        snaps: dict[int, dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        for name, p, owner, i in self._index:
            if owner is None:
                continue
            snaps.setdefault(owner, {})[name] = (
                p.data.copy(),
                opt._m[i].copy(),
                opt._v[i].copy(),
            )
        self._snapshots = snaps
        self.stats["commits"] += 1

    # -- failure simulation ------------------------------------------------

    def wipe(self, ranks: Iterable[int]) -> int:
        """Destroy the state owned by ``ranks`` (NaN fill) — what a
        fail-stop does to the only live copy.  Returns arrays wiped."""
        dead = set(ranks)
        wiped = 0
        opt = self.optimizer
        for _, p, owner, i in self._index:
            if owner in dead:
                p.data = np.full_like(p.data, np.nan)
                opt._m[i][...] = np.nan
                opt._v[i][...] = np.nan
                wiped += 3
        self.stats["wiped_arrays"] += wiped
        return wiped

    # -- recovery ----------------------------------------------------------

    def can_restore(self, dead: Iterable[int]) -> bool:
        """True iff every dead rank's buddy (the replica holder) is
        itself alive — i.e. the failure did not take out a buddy pair."""
        dead = set(dead)
        return all(self.buddies[r] not in dead for r in dead)

    def restore(self, dead: Iterable[int]) -> int:
        """Re-materialize the dead ranks' shards from their buddy copies
        (zero disk I/O).  Returns arrays restored; raises ``LookupError``
        when a needed buddy also died (fall back to disk)."""
        dead = set(dead)
        if not self.can_restore(dead):
            pairs = sorted(r for r in dead if self.buddies[r] in dead)
            raise LookupError(
                f"buddy pair(s) {pairs} failed together; replica copies lost"
            )
        opt = self.optimizer
        restored = 0
        for name, p, owner, i in self._index:
            if owner not in dead:
                continue
            snap = self._snapshots.get(owner, {}).get(name)
            if snap is None:
                raise LookupError(
                    f"no replica snapshot for {name!r} (rank {owner}); "
                    "commit() was never called"
                )
            data, m, v = snap
            p.data = data.copy()
            opt._m[i][...] = m
            opt._v[i][...] = v
            restored += 3
        self.stats["buddy_restores"] += 1
        self.stats["restored_arrays"] += restored
        return restored
