"""Serial reference GPT: the model the 4D-parallel version must match.

Architecture follows GPT-2/3 (pre-LayerNorm decoder blocks, learned
positional embeddings, tied LM head) and is configured by
:class:`repro.config.GPTConfig`.  This is the "sequential model training
code" of Section VI-A: AxoNN's job is to parallelize exactly this
computation, so the test suite trains both and asserts equality.
"""

from __future__ import annotations

import numpy as np

from ..config import GPTConfig
from ..tensor import Tensor, checkpoint
from ..tensor import functional as F
from .layers import Embedding, LayerNorm, Linear
from .module import Module

__all__ = ["CausalSelfAttention", "MLP", "Block", "GPT", "causal_mask"]

_MASK_CACHE: dict[tuple[int, int], np.ndarray] = {}


def causal_mask(s: int, kv_len: int | None = None) -> np.ndarray:
    """Read-only boolean causal mask of shape ``(s, kv_len or s)``.

    Memoized per shape: every block of every forward needs the same
    O(S^2) mask, so rebuilding it per call dominated allocation at long
    S.  The rectangular form (``kv_len != s``) serves ring attention,
    where a query shard attends to a KV block of a different length.
    """
    key = (s, s if kv_len is None else kv_len)
    m = _MASK_CACHE.get(key)
    if m is None:
        m = np.tril(np.ones(key, dtype=bool))
        m.setflags(write=False)
        _MASK_CACHE[key] = m
    return m


def causal_attention(
    q: Tensor, k: Tensor, v: Tensor, num_heads: int
) -> Tensor:
    """Multi-head causal self-attention core on (B, S, H) projections.

    Shared by the serial and parallel models (the parallel model calls
    it with its local slice of heads), guaranteeing identical math.
    """
    b, s, h = q.shape
    hd = h // num_heads

    def split(t: Tensor) -> Tensor:
        return t.reshape(b, s, num_heads, hd).transpose((0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)  # (B, nh, S, hd)
    scores = (qh @ kh.t()) * (1.0 / np.sqrt(hd))
    # -inf, not a finite "very negative" constant: a finite fill can end
    # up *above* legitimate scores (large-magnitude float32 activations
    # reach below -1e30), silently handing the softmax mass to future
    # positions.  With max-subtracted softmax, exp(-inf - m) == 0 exactly
    # for any finite row max, so the fill is dtype-independent.
    scores = F.where_mask(scores, causal_mask(s), -np.inf)
    att = F.softmax(scores, axis=-1)
    out = att @ vh  # (B, nh, S, hd)
    return out.transpose((0, 2, 1, 3)).reshape(b, s, h)


class CausalSelfAttention(Module):
    """Masked multi-head self-attention with fused QKV projection."""

    def __init__(
        self, hidden: int, num_heads: int, num_layers: int, rng: np.random.Generator
    ) -> None:
        if hidden % num_heads:
            raise ValueError("hidden must divide by num_heads")
        self.hidden = hidden
        self.num_heads = num_heads
        self.qkv = Linear(hidden, 3 * hidden, rng=rng)
        # Residual-branch projection scaled per GPT-2.
        self.proj = Linear(
            hidden, hidden, rng=rng, std=0.02 / np.sqrt(2 * num_layers)
        )

    def forward(self, x: Tensor) -> Tensor:
        h = self.hidden
        qkv = self.qkv(x)
        q, k, v = qkv[..., :h], qkv[..., h : 2 * h], qkv[..., 2 * h :]
        out = causal_attention(q, k, v, self.num_heads)
        return self.proj(out)


class MLP(Module):
    """GPT feed-forward block: Linear -> GELU -> Linear."""

    def __init__(
        self, hidden: int, ffn_hidden: int, num_layers: int, rng: np.random.Generator
    ) -> None:
        self.fc1 = Linear(hidden, ffn_hidden, rng=rng)
        self.fc2 = Linear(
            ffn_hidden, hidden, rng=rng, std=0.02 / np.sqrt(2 * num_layers)
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(F.gelu(self.fc1(x)))


class Block(Module):
    """Pre-LN transformer block with residual connections."""

    def __init__(self, cfg: GPTConfig, rng: np.random.Generator) -> None:
        self.ln1 = LayerNorm(cfg.hidden_size)
        self.attn = CausalSelfAttention(
            cfg.hidden_size, cfg.num_heads, cfg.num_layers, rng
        )
        self.ln2 = LayerNorm(cfg.hidden_size)
        self.mlp = MLP(cfg.hidden_size, cfg.ffn_hidden, cfg.num_layers, rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        x = x + self.mlp(self.ln2(x))
        return x


class GPT(Module):
    """Decoder-only GPT language model (serial reference).

    ``activation_checkpointing=True`` recomputes each block's forward
    during backward — the memory/compute trade the paper enables for all
    runs (Section VI-A).
    """

    def __init__(
        self,
        cfg: GPTConfig,
        seed: int = 0,
        activation_checkpointing: bool = False,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.activation_checkpointing = activation_checkpointing
        self.wte = Embedding(cfg.vocab_size, cfg.hidden_size, rng=rng)
        self.wpe = Embedding(cfg.seq_len, cfg.hidden_size, rng=rng)
        self.blocks = [Block(cfg, rng) for _ in range(cfg.num_layers)]
        self.ln_f = LayerNorm(cfg.hidden_size)

    def forward(self, ids: np.ndarray) -> Tensor:
        """Token ids (B, S) -> logits (B, S, V).  LM head tied to wte."""
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"ids must be (batch, seq); got {ids.shape}")
        b, s = ids.shape
        if s > self.cfg.seq_len:
            raise ValueError(f"sequence {s} exceeds max {self.cfg.seq_len}")
        pos = np.arange(s)[None, :].repeat(b, axis=0)
        x = self.wte(ids) + self.wpe(pos)
        for block in self.blocks:
            if self.activation_checkpointing:
                x = checkpoint(block, x)
            else:
                x = block(x)
        x = self.ln_f(x)
        return x @ self.wte.weight.t()

    def loss(
        self,
        ids: np.ndarray,
        loss_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Next-token cross-entropy on a (B, S) batch.

        Predicts token ``t+1`` from prefix ``..t``; ``loss_mask`` (B, S)
        marks which *target* positions count (Goldfish hook).
        """
        ids = np.asarray(ids)
        logits = self.forward(ids[:, :-1])
        targets = ids[:, 1:]
        mask = None if loss_mask is None else np.asarray(loss_mask)[:, 1:]
        return F.cross_entropy(logits, targets, loss_mask=mask)
