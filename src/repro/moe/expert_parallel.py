"""Expert parallelism: experts sharded across ranks, tokens all-to-all'd.

The distributed form of :class:`~repro.moe.layer.MoELayer`: an
expert-parallel group of ``P`` ranks holds ``E/P`` experts each and a
shard of the token batch each.  One forward pass runs the canonical
four-phase schedule every MoE system (DeepSpeed-MoE, Tutel, AxoNN's
tensor-expert-data hybrid [17]) uses:

1. **route** locally (the router weights are shared — replicated in a
   real deployment, a single Parameter here, as with the 4D model's
   functional convention);
2. **dispatch**: an all-to-all sends each token to the rank owning its
   expert;
3. **expert compute** on the local experts;
4. **combine**: a second all-to-all returns expert outputs to the
   tokens' home ranks, where gates weight and sum them.

Numerical equivalence with the serial layer is exact and verified,
including gradients (the all-to-all is differentiable).
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module
from ..runtime import CommTracer, ProcessGroup
from ..core.collective_ops import all_to_all_t
from ..tensor import Tensor
from .layer import MoELayer

__all__ = ["ExpertParallelMoE"]


class ExpertParallelMoE(Module):
    """A :class:`MoELayer` executed across an expert-parallel group."""

    def __init__(
        self,
        layer: MoELayer,
        group: ProcessGroup,
        tracer: CommTracer | None = None,
    ) -> None:
        if layer.num_experts % group.size:
            raise ValueError(
                f"{layer.num_experts} experts not divisible across "
                f"{group.size} ranks"
            )
        self.layer = layer
        self.group = group
        self.tracer = tracer
        self.experts_per_rank = layer.num_experts // group.size

    def owner_position(self, expert: int) -> int:
        """Group position of the rank owning ``expert``."""
        return expert // self.experts_per_rank

    def forward(
        self, x_parts: dict[int, Tensor]
    ) -> tuple[dict[int, Tensor], Tensor]:
        """Per-rank token shards -> (per-rank outputs, global aux loss).

        ``x_parts[r]`` holds rank ``r``'s (T_r, dim) token shard.
        """
        group = self.group
        layer = self.layer
        k = layer.router.k

        # Phase 1: local routing on every rank.
        routing: dict[int, tuple[np.ndarray, Tensor, Tensor]] = {}
        for r in group.ranks:
            routing[r] = layer.router.route(x_parts[r])

        # Phase 2: dispatch.  For each (src rank, dst position), collect
        # the tokens whose routed expert lives at dst.  A token routed to
        # k experts is sent k times (standard top-k dispatch).
        send_meta: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        send_chunks: dict[int, list[Tensor]] = {}
        dim = layer.dim
        for src in group.ranks:
            idx, gates, _ = routing[src]
            per_dst_rows: list[tuple[np.ndarray, np.ndarray]] = []
            chunks: list[Tensor] = []
            owner = self.owner_position(idx)  # (T, k) group positions
            for dst_pos in range(group.size):
                token_pos, slot = np.nonzero(owner == dst_pos)
                per_dst_rows.append((token_pos, slot))
                if token_pos.size:
                    chunks.append(x_parts[src][(token_pos,)])
                else:
                    chunks.append(Tensor(np.zeros((0, dim))))
            send_meta[src] = per_dst_rows
            send_chunks[src] = chunks
        received = all_to_all_t(
            send_chunks, group, tracer=self.tracer, tag="moe.dispatch"
        )

        # Phase 3: local expert compute.  Each rank concatenates its
        # incoming tokens, runs them through the right local expert, and
        # prepares the return chunks.
        return_chunks: dict[int, list[Tensor]] = {}
        for dst_pos, dst in enumerate(group.ranks):
            outs: list[Tensor] = []
            for src_pos, src in enumerate(group.ranks):
                tokens = received[dst][src_pos]
                if tokens.shape[0] == 0:
                    outs.append(Tensor(np.zeros((0, dim))))
                    continue
                token_pos, slot = send_meta[src][dst_pos]
                idx_src = routing[src][0]
                experts_here = idx_src[token_pos, slot]  # global expert ids
                # Compute per local expert on its sub-slice.
                pieces = Tensor(np.zeros((tokens.shape[0], dim)))
                for le in range(self.experts_per_rank):
                    gid = dst_pos * self.experts_per_rank + le
                    rows = np.nonzero(experts_here == gid)[0]
                    if rows.size == 0:
                        continue
                    y = layer.experts[gid](tokens[(rows,)])
                    pieces = pieces + _embed_rows(y, rows, tokens.shape[0])
                outs.append(pieces)
            return_chunks[dst] = outs
        returned = all_to_all_t(
            return_chunks, group, tracer=self.tracer, tag="moe.combine"
        )

        # Phase 4: combine at each token's home rank, gate-weighted.
        out_parts: dict[int, Tensor] = {}
        for src_pos, src in enumerate(group.ranks):
            idx, gates, probs = routing[src]
            t_r = x_parts[src].shape[0]
            acc: Tensor | None = None
            for dst_pos in range(group.size):
                token_pos, slot = send_meta[src][dst_pos]
                if token_pos.size == 0:
                    continue
                y = returned[src][dst_pos]
                w = gates[(token_pos, slot)].reshape(-1, 1)
                piece = _embed_rows(y * w, token_pos, t_r)
                acc = piece if acc is None else acc + piece
            assert acc is not None
            out_parts[src] = acc

        # Load-balance loss on *global* statistics: E * sum f_e * P_e is
        # not linear in shards, so f_e (token counts, constants) and P_e
        # (mean router probabilities, tensors) must be aggregated across
        # the group first — the all-reduce of routing statistics every
        # MoE implementation performs.
        total_tokens = sum(x_parts[r].shape[0] for r in group.ranks)
        f_global = np.zeros(layer.num_experts)
        p_sum: Tensor | None = None
        for r in group.ranks:
            idx, _, probs = routing[r]
            f_global += np.bincount(
                idx[:, 0], minlength=layer.num_experts
            )
            shard_sum = probs.sum(axis=0)
            p_sum = shard_sum if p_sum is None else p_sum + shard_sum
        f_global /= total_tokens
        assert p_sum is not None
        p_mean = p_sum * (1.0 / total_tokens)
        aux_total = (p_mean * Tensor(f_global)).sum() * float(
            layer.num_experts
        )
        return out_parts, aux_total


def _embed_rows(values: Tensor, rows: np.ndarray, total_rows: int) -> Tensor:
    """Embed (n, dim) rows into (total_rows, dim) zeros (differentiable)."""
    data = np.zeros((total_rows, values.shape[1]), dtype=values.data.dtype)
    np.add.at(data, rows, values.data)  # duplicate rows accumulate

    def backward(g):
        return (g[rows],)

    return Tensor._make(data, (values,), backward, "embed_rows")
