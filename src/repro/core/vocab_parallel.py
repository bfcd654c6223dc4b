"""Vocabulary-parallel embedding (Megatron-style sharded tables).

:class:`~repro.core.parallel_layers.ParallelEmbedding` keeps the token
table whole; for very large vocabularies Megatron-LM instead shards the
table's *rows* across the tensor group: each rank embeds only the ids in
its vocabulary range (contributing zeros for the rest) and an all-reduce
sums the partial embeddings.  This module provides that alternative —
each rank holds ``V/p`` rows of state, at the price of one extra
all-reduce per lookup — verified numerically identical to a full-table
lookup.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module, Parameter
from ..runtime import CommTracer, ProcessGroup
from ..tensor import Tensor, embedding
from .collective_ops import all_reduce_t

__all__ = ["VocabParallelEmbedding"]


class VocabParallelEmbedding(Module):
    """An embedding table row-sharded across a process group.

    Shard ``i`` (group position) owns ids ``[i*V/p, (i+1)*V/p)``.  The
    lookup is SPMD over the group: every rank embeds the same id batch
    against its shard (out-of-range ids contribute zero rows) and the
    results are sum-all-reduced.
    """

    def __init__(
        self,
        group: ProcessGroup,
        num_embeddings: int,
        dim: int,
        rng: np.random.Generator | None = None,
        std: float = 0.02,
        tracer: CommTracer | None = None,
    ) -> None:
        rng = rng or np.random.default_rng()
        if num_embeddings % group.size:
            raise ValueError(
                f"vocabulary {num_embeddings} not divisible across "
                f"{group.size} ranks"
            )
        self.group = group
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.tracer = tracer
        self.rows_per_rank = num_embeddings // group.size
        self.shards = {
            pos: Parameter(rng.normal(0.0, std, (self.rows_per_rank, dim)))
            for pos in range(group.size)
        }

    # -- (de)serialization --------------------------------------------------

    def load_full(self, table: np.ndarray) -> None:
        """Shard a full (V, dim) table onto the group."""
        if table.shape != (self.num_embeddings, self.dim):
            raise ValueError(
                f"expected table {(self.num_embeddings, self.dim)}, got "
                f"{table.shape}"
            )
        r = self.rows_per_rank
        for pos, p in self.shards.items():
            p.data = table[pos * r : (pos + 1) * r].copy()

    def full_table(self) -> np.ndarray:
        """Reassemble the full table from all shards."""
        return np.concatenate(
            [self.shards[pos].data for pos in range(self.group.size)]
        )

    # -- lookup ---------------------------------------------------------------

    def forward(self, ids: np.ndarray) -> list[Tensor]:
        """Embed ``ids`` (any shape); returns one identical (ids.shape +
        (dim,)) tensor per rank (the all-reduce output)."""
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings})"
            )
        r = self.rows_per_rank
        partials: list[Tensor] = []
        for pos in range(self.group.size):
            lo = pos * r
            owned = (ids >= lo) & (ids < lo + r)
            local_ids = np.where(owned, ids - lo, 0)
            # Gather against the shard, then zero the rows this shard
            # does not own (differentiable mask multiply).
            rows = embedding(self.shards[pos], local_ids)
            mask = owned.astype(np.float64)[..., None]
            partials.append(rows * Tensor(mask))
        return all_reduce_t(
            partials, self.group, tracer=self.tracer, tag="vocab_embed.AR"
        )

