"""The memorization study's training step and loops, written out by hand.

``pretrain`` and ``run_experiment`` step through
:class:`repro.nn.MixedPrecisionTrainer`; these are the loops they ran
before, over their own zero_grad -> backward -> clip -> step body.
"""

from __future__ import annotations

import numpy as np

from repro.memorization.goldfish import GOLDFISH_H, GOLDFISH_K, goldfish_mask
from repro.nn import AdamW, WarmupDecaySchedule, clip_grad_norm


def _train_step(
    model,
    opt: AdamW,
    batch: np.ndarray,
    goldfish: bool,
    grad_clip: float,
    k: int = GOLDFISH_K,
    h: int = GOLDFISH_H,
) -> float:
    mask = goldfish_mask(batch, k, h) if goldfish else None
    loss = model.loss(batch, loss_mask=mask)
    model.zero_grad()
    loss.backward()
    clip_grad_norm(model.parameters(), grad_clip)
    opt.step()
    return loss.item()


def pretrain(
    model,
    corpus,
    steps: int,
    batch_size: int,
    lr: float = 3e-3,
    seed: int = 0,
    goldfish: bool = False,
    grad_clip: float = 1.0,
    goldfish_k: int = GOLDFISH_K,
    goldfish_h: int = GOLDFISH_H,
) -> list[float]:
    """Background pre-training."""
    opt = AdamW(model.parameters(), lr=lr)
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(steps):
        batch = corpus.background_batch(batch_size, rng)
        losses.append(
            _train_step(model, opt, batch, goldfish, grad_clip, goldfish_k, goldfish_h)
        )
    return losses


def continued_pretraining(train_model, corpus, stream, exp, goldfish) -> list[float]:
    """``run_experiment``'s warmup and injection phases on ``train_model``
    (``stream`` is the design's injection stream)."""
    inject_steps = -(-len(stream) // exp.inject_batch_size)  # ceil
    opt = AdamW(train_model.parameters(), lr=exp.peak_lr)
    schedule = WarmupDecaySchedule(
        peak_lr=exp.peak_lr,
        final_lr=exp.final_lr,
        warmup_steps=exp.warmup_steps,
        decay_steps=inject_steps,
    )
    rng = np.random.default_rng(exp.seed + 2)
    losses: list[float] = []
    step = 0

    # Warmup on background pages, learning rate rising to its peak.
    for _ in range(exp.warmup_steps):
        schedule.apply(opt, step)
        batch = corpus.background_batch(exp.batch_size, rng)
        losses.append(
            _train_step(
                train_model, opt, batch, goldfish, exp.grad_clip,
                exp.goldfish_k, exp.goldfish_h,
            )
        )
        step += 1

    # Injection: the repetition stream in small pure-document batches,
    # learning rate decaying.
    for i in range(inject_steps):
        schedule.apply(opt, step)
        batch = stream[i * exp.inject_batch_size : (i + 1) * exp.inject_batch_size]
        losses.append(
            _train_step(
                train_model, opt, batch, goldfish, exp.grad_clip,
                exp.goldfish_k, exp.goldfish_h,
            )
        )
        step += 1
    return losses
