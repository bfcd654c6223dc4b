"""Optimizers and learning-rate schedules.

AdamW with decoupled weight decay is the optimizer used for all LLM
training in the paper's experiments; the memorization study's schedule
(linear warmup to 3e-4 over 50 steps, then decay to 3e-5) is provided as
:class:`WarmupDecaySchedule`.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["AdamW", "WarmupDecaySchedule", "CosineSchedule", "clip_grad_norm"]


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.

    Returns the pre-clip norm.  Parameters with no gradient are skipped.
    """
    sq = 0.0
    for p in params:
        if p.grad is not None:
            sq += float((p.grad**2).sum())
    norm = float(np.sqrt(sq))
    if norm > max_norm > 0:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class AdamW:
    """AdamW (Loshchilov & Hutter) with bias correction.

    State (m, v) is kept per parameter; in the 4D-parallel model each
    rank holds state only for its local weight shards, i.e. optimizer
    state is sharded exactly like ZeRO stage 1.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 3e-4,
        betas: tuple[float, float] = (0.9, 0.95),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            # Two scratch arrays per parameter instead of nine
            # temporaries; the operations and their order are those of
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            #   update = (m/bc1) / (sqrt(v/bc2) + eps) [+ wd*p]
            # so every bit of the trajectory is unchanged.
            tmp = np.multiply(g, 1 - b1, out=np.empty_like(m))
            m *= b1
            m += tmp
            np.multiply(g, 1 - b2, out=tmp)
            tmp *= g
            v *= b2
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            update = np.divide(m, bc1, out=np.empty_like(m))
            update /= tmp
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=tmp)
                update += tmp
            update *= self.lr
            p.data -= update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class WarmupDecaySchedule:
    """Linear warmup to ``peak_lr`` then linear decay to ``final_lr``.

    The memorization study's schedule (Section VIII-B): warm up over
    ``warmup_steps`` on background data, then decay over ``decay_steps``
    while the bucketed target data is injected.
    """

    def __init__(
        self,
        peak_lr: float = 3e-4,
        final_lr: float = 3e-5,
        warmup_steps: int = 50,
        decay_steps: int = 50,
    ) -> None:
        if warmup_steps < 1 or decay_steps < 1:
            raise ValueError("warmup/decay steps must be >= 1")
        self.peak_lr = peak_lr
        self.final_lr = final_lr
        self.warmup_steps = warmup_steps
        self.decay_steps = decay_steps

    def lr_at(self, step: int) -> float:
        """Learning rate for 0-indexed optimizer step ``step``."""
        if step < self.warmup_steps:
            return self.peak_lr * (step + 1) / self.warmup_steps
        k = min(step - self.warmup_steps, self.decay_steps) / self.decay_steps
        return self.peak_lr + k * (self.final_lr - self.peak_lr)

    def apply(self, optimizer, step: int) -> float:
        lr = self.lr_at(step)
        optimizer.lr = lr
        return lr


class CosineSchedule:
    """Warmup plus cosine decay — the standard pre-training schedule."""

    def __init__(
        self,
        peak_lr: float,
        final_lr: float,
        warmup_steps: int,
        total_steps: int,
    ) -> None:
        if total_steps <= warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        self.peak_lr = peak_lr
        self.final_lr = final_lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps

    def lr_at(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.peak_lr * (step + 1) / self.warmup_steps
        k = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        k = min(k, 1.0)
        cos = 0.5 * (1 + np.cos(np.pi * k))
        return self.final_lr + (self.peak_lr - self.final_lr) * cos

    def apply(self, optimizer, step: int) -> float:
        lr = self.lr_at(step)
        optimizer.lr = lr
        return lr
