"""Batched tensor-parallel decode over the 4D grid's X axis.

Decode is served tensor-parallel the way the paper's Algorithm 1 shards
training: attention heads and MLP inner width split over the grid's X
axis, the vocabulary split over X for the LM head.  Each virtual rank
keeps its *own* paged KV cache holding only its local heads — the KV
memory sharding that makes long contexts fit — and the per-layer
partial sums meet in real traced ring collectives
(:mod:`repro.runtime.collectives`), so the SPMD validator, fault
injection, and telemetry all see serving traffic, and
``GridConfig(collective_algo=...)`` routes the all-reduces through the
two-level hierarchical path exactly as it does for training.

The forward itself is not written here: :class:`TensorParallelDecoder`
is :class:`~repro.serving.engine.PagedDecoder` — the serial decoder —
with ``gx`` weight shards instead of one, and this module holds only
what is tensor-parallel: the QKV column permutation, and the two hooks
through which the shards' partial sums and vocabulary slices meet.
``gx = 1`` still issues (and traces) its one-rank collectives.

Numerics: partial-sum all-reduces re-associate float additions, so TP
logits match the serial cached path to rounding (the tests pin 1e-12
relative).  Every rank's own products are batch-invariant, as in the
serial engine, so at ``gx <= 2`` the *batched* TP step is bitwise the
single-sequence TP step; from three ranks up the ring sums an element in
an order set by its offset in the flat (B, 1, H) buffer, so the reduced
sum moves by an ulp with ``B``.  Greedy tokens agree with the serial
path exactly in practice.
Even ``gx = 1`` is 1e-12, not bitwise: the permutation is a fancy-index
copy of the QKV weight that comes out column-major, and BLAS sums a
transposed operand in another order.
"""

from __future__ import annotations

import numpy as np

from ..core.grid import Grid4D, GridConfig, infeasibility_reason
from ..core.parallel_transformer import permute_qkv_columns
from ..nn.generation import _shard_weights
from ..nn.transformer import GPT
from ..runtime import collectives as rc
from ..runtime.faults import get_active_injector
from .engine import PagedDecoder, _kv_pools

__all__ = ["TensorParallelDecoder"]


class TensorParallelDecoder(PagedDecoder):
    """Greedy batched decode of a serial :class:`GPT` sharded over X.

    The decoder replicates embeddings/LayerNorms (as the paper's
    functional convention does), shards every FC layer and the KV cache
    over the ``gx`` ranks of ``grid``'s X axis, and reduces partial
    sums with the runtime's traced collectives under
    ``grid.collective_scope()``.
    """

    def __init__(
        self,
        model: GPT,
        grid: Grid4D,
        *,
        block_size: int = 16,
        num_blocks: int = 256,
    ) -> None:
        cfg = model.cfg
        gx = grid.config.gx
        why = infeasibility_reason(cfg, GridConfig(gx, 1, 1, 1))
        if why is not None:
            raise ValueError(why)
        self.grid = grid
        self.gx = gx
        self.x_ranks = [grid.rank_of(i, 0, 0, 0) for i in range(gx)]
        self.x_group = grid.group_along("x", self.x_ranks[0])
        super().__init__(
            model,
            _kv_pools(model, gx, block_size, num_blocks),
            # Fused QKV reordered to [Q_0 K_0 V_0 | Q_1 K_1 V_1 | ...] so a
            # contiguous column slice gives rank i its own heads' q/k/v.
            _shard_weights(
                model,
                gx,
                lambda w: permute_qkv_columns(w, gx, cfg.hidden_size),
            ),
        )

    # -- how shards meet: the traced ring collectives ----------------------

    def _await_completion(self, op: str, tag: str) -> None:
        """Consult the ambient fault injector's wait hook, if installed.

        A blocking collective's completion is where transient network
        faults surface to the caller — a dropped or delayed message
        shows up as the wait running long.  ``delay_wait`` faults within
        the :class:`~repro.runtime.faults.RetryPolicy` budget are
        absorbed (virtual retry time only); beyond-budget delays raise
        :class:`~repro.runtime.faults.CommTimeoutError`, which the
        resilient engine answers by re-issuing the forward (KV writes
        are uncommitted until the end of the forward, so the retry is
        idempotent).
        """
        inj = get_active_injector()
        if inj is not None:
            inj.before_wait(op, self.x_group, tag)

    def _collective(
        self, op: str, parts: list[np.ndarray], tag: str
    ) -> np.ndarray:
        """Run ``repro.runtime.collectives.<op>`` over the shards'
        buffers on the X group and wait for it; every rank ends with the
        same array, so hand back the first rank's."""
        out = getattr(rc, op)(
            dict(zip(self.x_group.ranks, parts)),
            self.x_group,
            tracer=self.grid.tracer,
            tag=tag,
        )
        self._await_completion(op, tag)
        return out[self.x_group.ranks[0]]

    def _all_reduce(self, partials: list[np.ndarray], tag: str) -> np.ndarray:
        return self._collective("all_reduce", partials, tag)

    def _all_gather(self, slices: list[np.ndarray], tag: str) -> np.ndarray:
        # (B, S_new, V/gx) -> (V/gx, S_new, B) and back: the ring gather
        # concatenates along axis 0.
        shards = [part.swapaxes(0, 2) for part in slices]
        return self._collective("all_gather", shards, tag).swapaxes(0, 2)

    def _forward(self, ids: np.ndarray, seq_ids: list[int]) -> np.ndarray:
        with self.grid.collective_scope():
            return super()._forward(ids, seq_ids)
