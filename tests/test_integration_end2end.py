"""Grand integration: most subsystems chained in one realistic workflow.

Synthetic corpus -> 4D-parallel GPT -> mixed-precision training with
gradient accumulation -> checkpoint -> reshard onto a
different grid -> resume -> KV-cached generation — the path a downstream
user would actually walk, exercised end to end with correctness checks
at every joint.
"""

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import (
    Grid4D,
    GridConfig,
    ParallelGPT,
    load_checkpoint,
    save_checkpoint,
)
from repro.memorization import SyntheticCorpus
from repro.nn import GPT, AdamW, MixedPrecisionTrainer
from repro.nn.generation import generate_greedy
from repro.runtime import CommTracer


def test_full_user_workflow(tmp_path):
    # --- data: Markov token articles -----------------------------------
    corpus = SyntheticCorpus(vocab_size=96, doc_len=16, seed=0)
    vocab = corpus.vocab_size
    rng = np.random.default_rng(0)
    batches = [corpus.background_batch(4, rng) for _ in range(6)]

    # --- model: serial reference and its 4D twin ------------------------
    cfg = GPTConfig(
        name="e2e", num_layers=2, hidden_size=16, num_heads=4,
        seq_len=16, vocab_size=vocab,
    )
    serial = GPT(cfg, seed=1)
    tracer = CommTracer()
    grid_a = Grid4D(GridConfig(2, 1, 2), tracer=tracer)
    model = ParallelGPT.from_serial(serial, grid_a)
    assert model.loss(batches[0]).item() == pytest.approx(
        serial.loss(batches[0]).item(), rel=1e-10
    )

    # --- train: bf16 compute, 2-way accumulation, clipping ---------------
    trainer = MixedPrecisionTrainer(
        model, AdamW(model.parameters(), lr=3e-3),
        accumulation_steps=2, bf16=True, grad_clip=1.0,
    )
    losses = [trainer.step(b) for b in batches[:3]]
    assert losses[-1] < losses[0] * 1.05  # learning, not diverging
    assert trainer.skipped_steps == 0
    # Algorithm 1's collectives actually ran.
    tags = {r.tag for r in tracer.records if r.group.size > 1}
    assert "linear.AG_z" in tags and "linear.AR_x" in tags

    # --- checkpoint and reshard onto a different allocation ---------------
    save_checkpoint(model, tmp_path / "e2e.npz")
    grid_b = Grid4D(GridConfig(1, 2, 1))
    resumed = ParallelGPT(grid_b, cfg, seed=99)
    load_checkpoint(resumed, tmp_path / "e2e.npz")
    assert resumed.loss(batches[3]).item() == pytest.approx(
        model.loss(batches[3]).item(), rel=1e-10
    )

    # --- continue training on the new grid -------------------------------
    trainer_b = MixedPrecisionTrainer(
        resumed, AdamW(resumed.parameters(), lr=3e-3),
        accumulation_steps=2, bf16=True, grad_clip=1.0,
    )
    for b in batches[3:]:
        trainer_b.step(b)

    # --- inference: gather to serial, generate with the KV cache ----------
    final = resumed.gather_state_to_serial()
    prefix = corpus.document(5).tokens[:8]
    continuation = generate_greedy(final, prefix, 6)
    assert continuation.shape == (6,)
    assert (0 <= continuation).all() and (continuation < vocab).all()
    # Deterministic: the same prompt regenerates the same tokens.
    np.testing.assert_array_equal(generate_greedy(final, prefix, 6), continuation)
