"""A GPT with Mixture-of-Experts feed-forward blocks.

The Switch-Transformer-style language model: every ``moe_every``-th
block's dense MLP is replaced by a :class:`~repro.moe.layer.MoELayer`
(alternating MoE/dense is the common recipe), and the training loss adds
the router's load-balance term.  This is the model class the authors'
tensor-expert-data parallelism [17] trains at scale; here it completes
the MoE substrate so the memorization-style experiments could run on
sparse models too.
"""

from __future__ import annotations

import numpy as np

from ..config import GPTConfig
from ..nn.layers import Embedding, LayerNorm
from ..nn.module import Module
from ..nn.transformer import Block, CausalSelfAttention
from ..tensor import Tensor
from ..tensor import functional as F
from .layer import MoELayer

__all__ = ["MoEBlock", "MoEGPT"]


class MoEBlock(Module):
    """Pre-LN transformer block with an MoE feed-forward."""

    def __init__(
        self,
        cfg: GPTConfig,
        num_experts: int,
        k: int,
        rng: np.random.Generator,
    ) -> None:
        self.ln1 = LayerNorm(cfg.hidden_size)
        self.attn = CausalSelfAttention(
            cfg.hidden_size, cfg.num_heads, cfg.num_layers, rng
        )
        self.ln2 = LayerNorm(cfg.hidden_size)
        self.moe = MoELayer(
            cfg.hidden_size, num_experts, hidden=cfg.ffn_hidden, k=k, rng=rng
        )

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (block output, this block's auxiliary loss)."""
        x = x + self.attn(self.ln1(x))
        b, s, h = x.shape
        flat = self.ln2(x).reshape(b * s, h)
        moe_out, aux = self.moe(flat)
        return x + moe_out.reshape(b, s, h), aux


class MoEGPT(Module):
    """Decoder-only GPT with sparse (MoE) feed-forward layers.

    ``moe_every=2`` (the Switch recipe) makes every second block sparse;
    ``moe_every=1`` makes all of them sparse.  ``loss`` adds
    ``aux_weight`` times the mean load-balance loss of the MoE blocks.
    """

    def __init__(
        self,
        cfg: GPTConfig,
        num_experts: int = 4,
        k: int = 2,
        moe_every: int = 2,
        aux_weight: float = 0.01,
        seed: int = 0,
    ) -> None:
        if moe_every < 1:
            raise ValueError("moe_every must be >= 1")
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.aux_weight = aux_weight
        self.wte = Embedding(cfg.vocab_size, cfg.hidden_size, rng=rng)
        self.wpe = Embedding(cfg.seq_len, cfg.hidden_size, rng=rng)
        self.blocks: list[Module] = []
        for i in range(cfg.num_layers):
            if (i + 1) % moe_every == 0:
                self.blocks.append(MoEBlock(cfg, num_experts, k, rng))
            else:
                self.blocks.append(Block(cfg, rng))
        self.ln_f = LayerNorm(cfg.hidden_size)

    @property
    def num_moe_blocks(self) -> int:
        return sum(isinstance(b, MoEBlock) for b in self.blocks)

    def forward(self, ids: np.ndarray) -> tuple[Tensor, Tensor | None]:
        """Token ids (B, S) -> (logits (B, S, V), mean aux loss or None)."""
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"ids must be (batch, seq); got {ids.shape}")
        b, s = ids.shape
        if s > self.cfg.seq_len:
            raise ValueError(f"sequence {s} exceeds max {self.cfg.seq_len}")
        pos = np.arange(s)[None, :].repeat(b, axis=0)
        x = self.wte(ids) + self.wpe(pos)
        aux_sum: Tensor | None = None
        for block in self.blocks:
            if isinstance(block, MoEBlock):
                x, aux = block(x)
                aux_sum = aux if aux_sum is None else aux_sum + aux
            else:
                x = block(x)
        x = self.ln_f(x)
        logits = x @ self.wte.weight.t()
        if aux_sum is not None and self.num_moe_blocks > 0:
            aux_sum = aux_sum * (1.0 / self.num_moe_blocks)
        return logits, aux_sum

    def loss(
        self,
        ids: np.ndarray,
        loss_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Next-token cross-entropy + aux_weight * mean load-balance loss."""
        ids = np.asarray(ids)
        logits, aux = self.forward(ids[:, :-1])
        targets = ids[:, 1:]
        mask = None if loss_mask is None else np.asarray(loss_mask)[:, 1:]
        nll = F.cross_entropy(logits, targets, loss_mask=mask)
        if aux is None:
            return nll
        return nll + aux * self.aux_weight
