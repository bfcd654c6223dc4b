"""The 4D-parallel GPT: AxoNN's hybrid algorithm applied to a full model.

Every FC layer (QKV projection, attention output projection, both MLP
layers, and the LM head) runs Algorithm 1's 3D parallel matrix multiply;
orientations alternate normal/transposed so activations flow A -> B ->
A -> B -> A through each block without re-layout communication (the
paper's 'transpose the weights of every other layer' scheme):

    residual (A) -> LN1 -> QKV [normal, A->B] -> attention core (local,
    heads split over X) -> PROJ [transposed, B->A] -> +residual ->
    LN2 -> FC1 [normal, A->B] -> GELU (local) -> FC2 [transposed, B->A]
    -> +residual

The batch dimension is split over Z x data; attention is exactly local
because Z splits *samples* (each rank holds full sequences for its batch
shard) and X splits *heads*.

Replicated work runs once.  A collective hands every rank of its group
one shared :class:`Tensor`, and per-rank functions run once per distinct
tuple of input objects: each linear's local matmuls, all-reduce and bias
add are one node per contraction group; after QKV and FC1 attention and
GELU run once per Y group; after PROJ and FC2 the residual adds, and the
next LayerNorm's local moments, once per X group.  Sibling collectives
over the same inputs share one node while their rings agree bit for bit
(:func:`~repro.core.collective_ops._sibling_node`): the X siblings'
LayerNorm moments, so the normalize runs once per ``(y, z, d[, s])``,
and each weight's Z all-gathers across sequence shards and data
replicas, so a forward holds each gathered weight once; the LM head's
weight blocks are likewise built once per forward.  Only the local
products (inside their group's node) run on every rank.  The
collectives issued, and so every rank's communication schedule, are the
same as with all work per rank.

Functional-model convention: parameters that a real deployment would
replicate (embeddings, LayerNorm shards across non-feature axes, weight
shards across data replicas) are single shared :class:`Parameter`
objects; autograd's gradient accumulation then computes exactly what the
replica all-reduce would.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..config import GPTConfig
from ..nn.module import Module
from ..nn.sequence_parallel import ring_causal_attention
from ..nn.transformer import GPT, causal_attention
from ..telemetry.spans import traced as _traced
from ..tensor import Tensor
from ..tensor import functional as F
from .grid import Grid4D
from .parallel_layers import (
    ParallelEmbedding,
    ParallelLayerNorm,
    ParallelLinear,
    RankDict,
    _contract,
    _count_local_flops,
    _per_distinct,
)
from .parallel_loss import head_loss_over_grid

__all__ = ["ParallelBlock", "ParallelGPT", "permute_qkv_columns"]


def permute_qkv_columns(W: np.ndarray, gx: int, hidden: int, inverse: bool = False) -> np.ndarray:
    """Reorder fused-QKV output columns between serial and sharded layouts.

    Serial layout: ``[Q | K | V]`` (each ``hidden`` wide).  Sharded
    layout: ``[Q_0 K_0 V_0 | Q_1 K_1 V_1 | ...]`` so that a contiguous
    column split over X gives every rank its own q/k/v head block.
    Works on any array whose *last* axis is the 3*hidden output.
    """
    if W.shape[-1] != 3 * hidden:
        raise ValueError(f"last axis must be 3*hidden={3*hidden}, got {W.shape[-1]}")
    if hidden % gx:
        raise ValueError(f"hidden {hidden} not divisible by gx {gx}")
    hb = hidden // gx
    perm = np.concatenate(
        [
            np.concatenate(
                [np.arange(sec * hidden + i * hb, sec * hidden + (i + 1) * hb) for sec in range(3)]
            )
            for i in range(gx)
        ]
    )
    if inverse:
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        perm = inv
    return W[..., perm]


class ParallelBlock(Module):
    """One transformer block parallelized over the 4D grid."""

    def __init__(self, grid: Grid4D, cfg: GPTConfig, rng: np.random.Generator) -> None:
        c = grid.config
        if cfg.num_heads % c.gx:
            raise ValueError(
                f"num_heads {cfg.num_heads} must divide by G_x {c.gx} "
                "(attention heads are split over X)"
            )
        self.grid = grid
        self.cfg = cfg
        self.heads_local = cfg.num_heads // c.gx
        h = cfg.hidden_size
        self.ln1 = ParallelLayerNorm(grid, h, feature_axis="y")
        self.qkv = ParallelLinear(grid, h, 3 * h, transposed=False, rng=rng)
        self.proj = ParallelLinear(grid, h, h, transposed=True, rng=rng)
        self.ln2 = ParallelLayerNorm(grid, h, feature_axis="y")
        self.fc1 = ParallelLinear(grid, h, cfg.ffn_hidden, transposed=False, rng=rng)
        self.fc2 = ParallelLinear(grid, cfg.ffn_hidden, h, transposed=True, rng=rng)

    @_traced(name="block", cat="compute")
    def forward(
        self, x_parts: RankDict, d: int = 0, gathers: dict | None = None
    ) -> RankDict:
        """Replica ``d``'s block; ``gathers`` is the forward's memo of
        weight all-gathers (:meth:`ParallelLinear.forward`)."""
        grid = self.grid
        block = grid.tensor_block_ranks(d)
        hb = self.cfg.hidden_size // grid.config.gx

        h1 = self.ln1(x_parts, d)
        # Layout B: (B_loc, S, 3*H/Gx), cols = [Qi Ki Vi].
        qkv = self.qkv(h1, d, gathers)
        if grid.config.gs == 1:
            # Once per Y group: its ranks share the all-reduced ``qkv``.
            attention = partial(causal_attention, num_heads=self.heads_local)
            attn_out = _per_distinct(attention, block, qkv)
        else:
            # Sequence axis active: attention is the one place shards
            # couple, so each (x, y, z) runs a KV ring over its sequence
            # group (ranks ordered by shard index); every ring issues
            # its own p2p messages.
            attn_out = {}
            for r in block:
                if r in attn_out:
                    continue
                ring = grid.group_along("seq", r)
                qs, ks, vs = [], [], []
                for rr in ring.ranks:
                    t = qkv[rr]
                    qs.append(t[..., :hb])
                    ks.append(t[..., hb : 2 * hb])
                    vs.append(t[..., 2 * hb :])
                outs = ring_causal_attention(
                    qs, ks, vs, self.heads_local, ring, tracer=grid.tracer
                )
                attn_out.update(dict(zip(ring.ranks, outs)))
        proj_out = self.proj(attn_out, d, gathers)  # B -> A
        # Residual adds once per X group, GELU once per Y group.
        x_parts = _per_distinct(Tensor.__add__, block, x_parts, proj_out)

        h2 = self.ln2(x_parts, d)
        f1 = self.fc1(h2, d, gathers)  # A -> B
        act = _per_distinct(F.gelu, block, f1)
        f2 = self.fc2(act, d, gathers)  # B -> A
        return _per_distinct(Tensor.__add__, block, x_parts, f2)

    def load_from_serial(self, blk) -> None:
        """Copy weights from a serial :class:`repro.nn.transformer.Block`."""
        gx = self.grid.config.gx
        h = self.cfg.hidden_size
        self.ln1.load_full(blk.ln1.weight.data, blk.ln1.bias.data)
        self.qkv.load_full_weight(
            permute_qkv_columns(blk.attn.qkv.weight.data, gx, h),
            permute_qkv_columns(blk.attn.qkv.bias.data, gx, h),
        )
        self.proj.load_full_weight(blk.attn.proj.weight.data, blk.attn.proj.bias.data)
        self.ln2.load_full(blk.ln2.weight.data, blk.ln2.bias.data)
        self.fc1.load_full_weight(blk.mlp.fc1.weight.data, blk.mlp.fc1.bias.data)
        self.fc2.load_full_weight(blk.mlp.fc2.weight.data, blk.mlp.fc2.bias.data)


class ParallelGPT(Module):
    """GPT parallelized with the paper's full 4D hybrid algorithm.

    The public surface mirrors the serial :class:`repro.nn.GPT`:
    ``forward(ids)`` takes the *global* (B, S) batch and internally
    shards it over Z x data; ``loss(ids, loss_mask)`` returns the same
    scalar the serial model would.
    """

    def __init__(self, grid: Grid4D, cfg: GPTConfig, seed: int = 0) -> None:
        c = grid.config
        if cfg.vocab_size % c.gx:
            raise ValueError(
                f"vocab {cfg.vocab_size} must divide by G_x {c.gx} "
                "(the LM head splits the vocabulary over X)"
            )
        rng = np.random.default_rng(seed)
        self.grid = grid
        self.cfg = cfg
        self.wte = ParallelEmbedding(grid, cfg.vocab_size, cfg.hidden_size, "y", rng=rng)
        self.wpe = ParallelEmbedding(grid, cfg.seq_len, cfg.hidden_size, "y", rng=rng)
        self.blocks = [ParallelBlock(grid, cfg, rng) for _ in range(cfg.num_layers)]
        self.ln_f = ParallelLayerNorm(grid, cfg.hidden_size, feature_axis="y")

    # -- batch sharding --------------------------------------------------------

    def _shard_batch(self, ids: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        """Split the global batch over (z, d): shard (z, d) gets a
        contiguous block of samples (data-major, matching the hierarchy)."""
        c = self.grid.config
        nshards = c.gz * c.gdata
        b = ids.shape[0]
        if b % nshards:
            raise ValueError(
                f"global batch {b} must divide by G_z*G_data = {nshards}"
            )
        bs = b // nshards
        out = {}
        for d in range(c.gdata):
            for z in range(c.gz):
                start = (d * c.gz + z) * bs
                out[(z, d)] = ids[start : start + bs]
        return out

    # -- forward ---------------------------------------------------------------

    @_traced(name="gpt.forward", cat="compute")
    def forward_parts(self, ids: np.ndarray) -> RankDict:
        """Per-rank logits (layout B: vocab split over X) for all replicas."""
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"ids must be (batch, seq); got {ids.shape}")
        c = self.grid.config
        grid = self.grid
        b, s = ids.shape
        if s > self.cfg.seq_len:
            raise ValueError(f"sequence {s} exceeds max {self.cfg.seq_len}")
        if c.gs > 1 and s % c.gs:
            raise ValueError(f"sequence {s} must divide by G_seq={c.gs}")
        shards = self._shard_batch(ids)
        pos = np.arange(s)[None, :]
        sl = s // c.gs

        # What the data replicas share for this forward only: the
        # linears' weight all-gathers and the LM head's weight blocks.
        gathers: dict = {}
        head_blocks: dict[tuple[int, int], Tensor] = {}
        logits: RankDict = {}
        for d in range(c.gdata):
            if c.gs == 1:
                ids_by_z = {z: shards[(z, d)] for z in range(c.gz)}
                pos_by_z = {
                    z: pos.repeat(shards[(z, d)].shape[0], axis=0)
                    for z in range(c.gz)
                }
            else:
                # Each sequence shard holds a contiguous slice [si*sl,
                # (si+1)*sl) of its Z-shard's samples, with *global*
                # positional ids so wpe matches the serial model.
                ids_by_z = {}
                pos_by_z = {}
                for z in range(c.gz):
                    sample = shards[(z, d)]
                    for si in range(c.gs):
                        sel = slice(si * sl, (si + 1) * sl)
                        ids_by_z[(z, si)] = sample[:, sel]
                        pos_by_z[(z, si)] = pos[:, sel].repeat(
                            sample.shape[0], axis=0
                        )
            tok = self.wte(ids_by_z, d)
            pe = self.wpe(pos_by_z, d)
            x = _per_distinct(Tensor.__add__, grid.tensor_block_ranks(d), tok, pe)
            for blk in self.blocks:
                x = blk(x, d, gathers)
            x = self.ln_f(x, d)
            logits.update(self._lm_head(x, d, head_blocks))
        return logits

    @_traced(name="gpt.lm_head", cat="compute")
    def _lm_head(
        self, x_parts: RankDict, d: int, w_blocks: dict[tuple[int, int], Tensor]
    ) -> RankDict:
        """Tied LM head as a normal-orientation 3D matmul.

        Weight blocks are differentiable slices of the shared embedding
        table, so head gradients flow into ``wte`` exactly as with serial
        weight tying; ``w_blocks`` keeps one per ``(x, y)`` for every
        replica of the forward.  Each Y group's products and all-reduce
        are one node, as in :class:`ParallelLinear` (without a bias).
        """
        grid = self.grid
        c = grid.config
        h = self.cfg.hidden_size
        v = self.cfg.vocab_size
        hb = h // c.gy
        vb = v // c.gx
        block = grid.tensor_block_ranks(d)
        w_of: RankDict = {}
        for r in block:
            x_, y_, _, _ = grid.coords_of(r)
            w_block = w_blocks.get((x_, y_))
            if w_block is None:
                w_block = w_blocks[(x_, y_)] = self.wte.weight[
                    x_ * vb : (x_ + 1) * vb, y_ * hb : (y_ + 1) * hb
                ].t()  # (H/Gy, V/Gx)
            w_of[r] = w_block
        _count_local_flops(x_parts, block, vb)
        out: RankDict = {}
        for r in block:
            if r in out:
                continue
            g = grid.group_along("y", r)
            y = _contract(
                [x_parts[s] for s in g.ranks], [w_of[s] for s in g.ranks],
                None, g, grid.tracer, "head.AR_y",
            )
            out.update(dict.fromkeys(g.ranks, y))
        return out

    def forward(self, ids: np.ndarray) -> Tensor:
        """Full (B, S, V) logits, reassembled — convenience for tests and
        inference at small scale."""
        ids = np.asarray(ids)
        logits = self.forward_parts(ids)
        c = self.grid.config
        shards = self._shard_batch(ids)
        rows = []
        for d in range(c.gdata):
            for z in range(c.gz):
                seq_parts = []
                for si in range(c.gs):
                    cols = [
                        logits[self.grid.rank_of(i, 0, z, d, si)]
                        for i in range(c.gx)
                    ]
                    seq_parts.append(
                        Tensor.concatenate(cols, axis=2)
                        if cols[0].ndim == 3
                        else Tensor.concatenate(cols, axis=1)
                    )
                rows.append(
                    seq_parts[0]
                    if c.gs == 1
                    else Tensor.concatenate(seq_parts, axis=1)
                )
        return Tensor.concatenate(rows, axis=0)

    # -- loss --------------------------------------------------------------------

    @_traced(name="gpt.loss", cat="train")
    def loss(self, ids: np.ndarray, loss_mask: np.ndarray | None = None) -> Tensor:
        """Next-token NLL identical to ``repro.nn.GPT.loss``.

        With the sequence axis active the *full* sequence is forwarded
        (so S splits evenly into G_seq shards); the final position's
        logits, which have no target, are dropped from the last shard
        before the loss.  Shard losses sum to the same global token
        mean as the serial model because the weights are globally
        normalized before slicing.
        """
        ids = np.asarray(ids)
        c = self.grid.config
        targets = ids[:, 1:]
        if loss_mask is None:
            mask = np.ones_like(targets, dtype=np.float64)
        else:
            mask = np.asarray(loss_mask, dtype=np.float64)[:, 1:]
        denom = mask.sum()
        if denom == 0:
            raise ValueError("loss_mask masks out every token")
        weights = mask / denom

        if c.gs == 1:
            logits = self.forward_parts(ids[:, :-1])
            tgt_shards = self._shard_batch(targets)
            w_shards = self._shard_batch(weights)
            return head_loss_over_grid(
                self.grid, logits, tgt_shards, w_shards, "x"
            )

        s = ids.shape[1]
        if s % c.gs:
            raise ValueError(f"sequence {s} must divide by G_seq={c.gs}")
        sl = s // c.gs
        logits = dict(self.forward_parts(ids))
        # The last shard's final position predicts past the batch end;
        # drop that logit column (differentiably — its activations still
        # exist, they just carry no loss).
        if sl > 1:
            for d in range(c.gdata):
                for z in range(c.gz):
                    for i in range(c.gx):
                        r = self.grid.rank_of(i, 0, z, d, c.gs - 1)
                        logits[r] = logits[r][:, : sl - 1, :]
        tgt_rows = self._shard_batch(targets)
        w_rows = self._shard_batch(weights)
        tgt_shards: dict[tuple[int, int, int], np.ndarray] = {}
        w_shards: dict[tuple[int, int, int], np.ndarray] = {}
        for (z, d), rows in tgt_rows.items():
            for si in range(c.gs):
                length = sl if si < c.gs - 1 else sl - 1
                if length == 0:
                    continue  # S == G_seq: the last shard has no target
                sel = slice(si * sl, si * sl + length)
                tgt_shards[(z, d, si)] = rows[:, sel]
                w_shards[(z, d, si)] = w_rows[(z, d)][:, sel]
        return head_loss_over_grid(self.grid, logits, tgt_shards, w_shards, "x")

    # -- serial interop -------------------------------------------------------------

    @staticmethod
    def from_serial(serial: GPT, grid: Grid4D) -> "ParallelGPT":
        """Build a parallel model computing the identical function as
        ``serial`` on this grid."""
        model = ParallelGPT(grid, serial.cfg, seed=0)
        model.wte.weight.data = serial.wte.weight.data.copy()
        model.wpe.weight.data = serial.wpe.weight.data.copy()
        for pblk, sblk in zip(model.blocks, serial.blocks):
            pblk.load_from_serial(sblk)
        model.ln_f.load_full(serial.ln_f.weight.data, serial.ln_f.bias.data)
        return model

    def gather_state_to_serial(self) -> GPT:
        """Reassemble a serial model with this model's current weights."""
        gx = self.grid.config.gx
        h = self.cfg.hidden_size
        serial = GPT(self.cfg, seed=0)
        serial.wte.weight.data = self.wte.weight.data.copy()
        serial.wpe.weight.data = self.wpe.weight.data.copy()
        for sblk, pblk in zip(serial.blocks, self.blocks):
            sblk.ln1.weight.data = self._full_ln(pblk.ln1, "w")
            sblk.ln1.bias.data = self._full_ln(pblk.ln1, "b")
            sblk.attn.qkv.weight.data = permute_qkv_columns(
                pblk.qkv.full_weight(), gx, h, inverse=True
            )
            sblk.attn.qkv.bias.data = permute_qkv_columns(
                self._full_bias(pblk.qkv), gx, h, inverse=True
            )
            sblk.attn.proj.weight.data = pblk.proj.full_weight()
            sblk.attn.proj.bias.data = self._full_bias(pblk.proj)
            sblk.ln2.weight.data = self._full_ln(pblk.ln2, "w")
            sblk.ln2.bias.data = self._full_ln(pblk.ln2, "b")
            sblk.mlp.fc1.weight.data = pblk.fc1.full_weight()
            sblk.mlp.fc1.bias.data = self._full_bias(pblk.fc1)
            sblk.mlp.fc2.weight.data = pblk.fc2.full_weight()
            sblk.mlp.fc2.bias.data = self._full_bias(pblk.fc2)
        serial.ln_f.weight.data = self._full_ln(self.ln_f, "w")
        serial.ln_f.bias.data = self._full_ln(self.ln_f, "b")
        return serial

    @staticmethod
    def _full_ln(ln: ParallelLayerNorm, which: str) -> np.ndarray:
        shards = ln.weight_shards if which == "w" else ln.bias_shards
        return np.concatenate([shards[i].data for i in sorted(shards)])

    @staticmethod
    def _full_bias(lin: ParallelLinear) -> np.ndarray:
        return np.concatenate(
            [lin.bias_shards[i].data for i in sorted(lin.bias_shards)]
        )
