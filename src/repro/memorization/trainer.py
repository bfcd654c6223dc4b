"""The continued-pre-training harness of the memorization study.

Protocol (Section VIII-B, scaled to this repository's substrate):

1. **Pre-training** (plays the role of the public Llama checkpoints):
   the model trains on the background corpus until it has real language
   ability — without it, small models cannot even be *candidates* for
   memorization.
2. **Warmup**: ``warmup_steps`` steps on background data while the
   learning rate rises to its peak.
3. **Injection**: the bucketed target documents (repeated per their
   1/4/6-epoch schedule, shuffled) are injected in small pure-document
   batches while the learning rate decays.  With ``goldfish=True``,
   every training batch's loss uses the Goldfish mask (k=2, h=13).
4. **Evaluation**: greedy exact-match of each document's suffix, per
   bucket, including the untouched 0-epoch control.

Model capacity stands in for parameter count: :func:`scale_ladder`
provides a family of GPTs of increasing width/depth that play the roles
of the paper's 1B ... 405B checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import GPTConfig
from ..core.grid import Grid4D
from ..core.parallel_transformer import ParallelGPT
from ..nn import GPT, AdamW, MixedPrecisionTrainer, WarmupDecaySchedule
from .buckets import BucketDesign
from .corpus import SyntheticCorpus
from .evaluate import evaluate_buckets
from .goldfish import GOLDFISH_H, GOLDFISH_K, goldfish_mask

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "scale_ladder",
    "pretrain",
    "run_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one memorization run (seeded, deterministic).

    The defaults are the calibrated scaled-down protocol: a Markov
    corpus of 32-token articles (branching 4, so an 8-token suffix is
    still unguessable: ~0.4^8 by chance), 8 articles per bucket, and an
    injection phase of small pure-document batches.  Injection batches
    are *not* diluted with background pages: at this model scale the
    per-document gradient share is the lever that stands in for the
    extreme sample efficiency of billion-parameter models — see
    DESIGN.md's substitution table.
    """

    vocab_size: int = 128
    doc_len: int = 32
    suffix_len: int = 8
    branching: int = 4
    docs_per_bucket: int = 8
    epochs_schedule: tuple[int, ...] = (1, 4, 6, 0)
    batch_size: int = 16  # pre-training / warmup batches
    inject_batch_size: int = 2  # pure-document injection batches
    pretrain_steps: int = 200
    warmup_steps: int = 10
    pretrain_lr: float = 3e-3
    peak_lr: float = 1e-2
    final_lr: float = 2e-3
    grad_clip: float = 1.0
    seed: int = 0
    #: Goldfish parameters (used when an experiment arm enables the
    #: Goldfish loss); the paper uses k=2, h=13.
    goldfish_k: int = GOLDFISH_K
    goldfish_h: int = GOLDFISH_H


@dataclass
class ExperimentResult:
    """Exact-match rates per bucket (keyed by epochs), plus diagnostics."""

    model_name: str
    goldfish: bool
    exact_match: dict[int, float]
    final_train_loss: float
    losses: list[float] = field(default_factory=list)


def scale_ladder(seq_len: int = 32, vocab_size: int = 128) -> list[GPTConfig]:
    """A family of GPTs of increasing capacity, playing the roles of the
    paper's 1B/7B/13B/70B/405B checkpoints at laptop scale."""
    rows = [
        ("GPT-tiny", 2, 32, 4),
        ("GPT-small", 2, 64, 4),
        ("GPT-medium", 2, 128, 8),
        ("GPT-large", 3, 256, 8),
    ]
    return [
        GPTConfig(
            name=name,
            num_layers=layers,
            hidden_size=hidden,
            num_heads=heads,
            seq_len=seq_len,
            vocab_size=vocab_size,
        )
        for name, layers, hidden, heads in rows
    ]


def pretrain(
    model: GPT,
    corpus: SyntheticCorpus,
    steps: int,
    batch_size: int,
    lr: float = 3e-3,
    seed: int = 0,
    goldfish: bool = False,
    grad_clip: float = 1.0,
    goldfish_k: int = GOLDFISH_K,
    goldfish_h: int = GOLDFISH_H,
) -> list[float]:
    """Background pre-training: the stand-in for a public checkpoint."""
    opt = AdamW(model.parameters(), lr=lr)
    trainer = MixedPrecisionTrainer(
        model, opt, bf16=False, grad_clip=grad_clip, skip_nonfinite=False
    )
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(steps):
        batch = corpus.background_batch(batch_size, rng)
        mask = goldfish_mask(batch, goldfish_k, goldfish_h) if goldfish else None
        losses.append(trainer.step(batch, mask))
    return losses


def run_experiment(
    model_cfg: GPTConfig,
    exp: ExperimentConfig = ExperimentConfig(),
    goldfish: bool = False,
    pretrained: GPT | None = None,
    grid: Grid4D | None = None,
    corpus=None,
) -> ExperimentResult:
    """One full memorization run for one model size.

    Pass ``pretrained`` to reuse a checkpoint across the goldfish /
    standard arms (the paper starts both from the same weights).

    Pass ``corpus`` to substitute a different document source (e.g.
    :class:`~repro.memorization.text_corpus.TextCorpus`, the tokenized
    pseudo-English pipeline) for the default Markov token corpus; it
    must expose the same interface and its ``doc_len``/vocabulary must
    be compatible with ``exp`` and the model.

    Pass ``grid`` to run the continued pre-training through the
    4D-parallel model — the paper's actual setup ("we train the 1B, 7B,
    and 8B models ... using 8-way Z-tensor parallelism"); training then
    exercises Algorithm 1's collectives while producing numerically
    identical results (batch sizes must divide ``G_z * G_data``).
    """
    if model_cfg.seq_len < exp.doc_len:
        raise ValueError(
            f"model seq_len {model_cfg.seq_len} shorter than documents "
            f"({exp.doc_len} tokens)"
        )
    if corpus is None:
        corpus = SyntheticCorpus(
            exp.vocab_size, exp.doc_len, seed=exp.seed, branching=exp.branching
        )
    else:
        if corpus.doc_len != exp.doc_len:
            raise ValueError(
                f"corpus doc_len {corpus.doc_len} != experiment doc_len "
                f"{exp.doc_len}"
            )
        if corpus.vocab_size > model_cfg.vocab_size:
            raise ValueError(
                f"corpus vocabulary ({corpus.vocab_size}) exceeds the "
                f"model's ({model_cfg.vocab_size})"
            )
    design = BucketDesign(corpus, exp.docs_per_bucket, exp.epochs_schedule)
    assert design.no_overlap()

    if pretrained is None:
        model = GPT(model_cfg, seed=exp.seed)
        pretrain(
            model, corpus, exp.pretrain_steps, exp.batch_size,
            lr=exp.pretrain_lr, seed=exp.seed + 1, goldfish=goldfish,
            grad_clip=exp.grad_clip,
            goldfish_k=exp.goldfish_k, goldfish_h=exp.goldfish_h,
        )
    else:
        if pretrained.cfg != model_cfg:
            raise ValueError("pretrained checkpoint has a different config")
        model = GPT(model_cfg, seed=exp.seed)
        model.load_state_dict(pretrained.state_dict())

    if grid is not None:
        train_model = ParallelGPT.from_serial(model, grid)
    else:
        train_model = model

    stream = design.injection_stream(seed=exp.seed + 3)
    inject_steps = -(-len(stream) // exp.inject_batch_size)  # ceil
    opt = AdamW(train_model.parameters(), lr=exp.peak_lr)
    schedule = WarmupDecaySchedule(
        peak_lr=exp.peak_lr,
        final_lr=exp.final_lr,
        warmup_steps=exp.warmup_steps,
        decay_steps=inject_steps,
    )
    trainer = MixedPrecisionTrainer(
        train_model, opt, bf16=False, grad_clip=exp.grad_clip,
        skip_nonfinite=False,
    )
    rng = np.random.default_rng(exp.seed + 2)
    # Warmup on background pages, learning rate rising to its peak;
    # then injection: the repetition stream in small pure-document
    # batches, learning rate decaying.
    batches = [
        corpus.background_batch(exp.batch_size, rng)
        for _ in range(exp.warmup_steps)
    ] + [
        stream[i * exp.inject_batch_size : (i + 1) * exp.inject_batch_size]
        for i in range(inject_steps)
    ]
    losses: list[float] = []
    for step, batch in enumerate(batches):
        schedule.apply(opt, step)
        mask = (
            goldfish_mask(batch, exp.goldfish_k, exp.goldfish_h)
            if goldfish else None
        )
        losses.append(trainer.step(batch, mask))

    # Evaluation runs on the (gathered) serial model.
    eval_model = (
        train_model.gather_state_to_serial() if grid is not None else model
    )
    rates = evaluate_buckets(eval_model, design.buckets, exp.suffix_len)
    return ExperimentResult(
        model_name=model_cfg.name,
        goldfish=goldfish,
        exact_match=rates,
        final_train_loss=losses[-1],
        losses=losses,
    )
