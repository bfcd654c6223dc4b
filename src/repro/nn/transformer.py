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

_MASK_CACHE: dict[int, np.ndarray] = {}


def causal_mask(s: int) -> np.ndarray:
    """Read-only boolean causal mask of shape ``(s, s)``.

    Memoized per length: every block of every forward needs the same
    O(S^2) mask, so rebuilding it per call dominated allocation at long
    S.
    """
    m = _MASK_CACHE.get(s)
    if m is None:
        m = np.tril(np.ones((s, s), dtype=bool))
        m.setflags(write=False)
        _MASK_CACHE[s] = m
    return m


def causal_attention(qkv: Tensor, num_heads: int) -> Tensor:
    """Multi-head causal self-attention on a fused (B, S, 3H) QKV projection.

    ``qkv`` holds the projections side by side, ``[Q | K | V]``, each H
    wide.  Shared by the serial and parallel models (the parallel model
    calls it with its local slice of heads), guaranteeing identical math.

    One autograd node.  The forward runs the ops of the node-per-op form
    (the oracle in ``tests/oracles/attention.py``) in its order: scaled
    ``q @ k^T``, max-subtracted softmax over the causal prefix, ``att @
    v``; only visible scores are exponentiated, into a zeroed array.  Masked scores are never read: the row max runs over
    the visible ones, which is what a ``-inf`` fill gives — a finite
    fill could end up *above* legitimate scores (large-magnitude float32
    activations reach below -1e30).  The backward is closed form and
    writes dq, dk and dv into one gradient of ``qkv``'s shape.
    """
    b, s, h3 = qkv.shape
    h = h3 // 3
    hd = h // num_heads
    mask = causal_mask(s)

    def split(a: np.ndarray) -> np.ndarray:
        return a.reshape(b, s, num_heads, hd).transpose((0, 2, 1, 3))

    xd = qkv.data
    qh, kh, vh = split(xd[..., :h]), split(xd[..., h : 2 * h]), split(xd[..., 2 * h :])
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=xd.dtype)
    scores = qh @ np.swapaxes(kh, -1, -2)  # (B, nh, S, S)
    scores *= scale
    scores -= np.max(scores, axis=-1, keepdims=True, where=mask, initial=-np.inf)
    att = np.zeros_like(scores)
    np.exp(scores, out=att, where=mask)
    att /= att.sum(axis=-1, keepdims=True)
    out = att @ vh  # (B, nh, S, hd)
    data = out.transpose((0, 2, 1, 3)).reshape(b, s, h)

    def backward(g):
        go = g.reshape(b, s, num_heads, hd).transpose((0, 2, 1, 3))
        g_att = go @ np.swapaxes(vh, -1, -2)
        gv = np.swapaxes(att, -1, -2) @ go
        # Softmax backward, then the mask and the scale.
        gx = g_att * att
        dot = gx.sum(axis=-1, keepdims=True)
        np.subtract(g_att, dot, out=gx)
        gx *= att
        g_scores = np.zeros_like(gx)
        np.multiply(gx, scale, out=g_scores, where=mask)
        gq = g_scores @ kh
        gk = np.swapaxes(np.swapaxes(qh, -1, -2) @ g_scores, -1, -2)
        grad = np.empty((b, s, 3, num_heads, hd), dtype=xd.dtype)
        for i, gi in enumerate((gq, gk, gv)):
            grad[:, :, i] = gi.transpose((0, 2, 1, 3))
        return (grad.reshape(b, s, h3),)

    return Tensor._make(data, (qkv,), backward, "causal_attention")


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
        return self.proj(causal_attention(self.qkv(x), self.num_heads))


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
