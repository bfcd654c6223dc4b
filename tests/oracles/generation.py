"""Greedy decoding with the uncached sliding-window fallback."""

from __future__ import annotations

import numpy as np

from repro.nn.transformer import GPT
from repro.tensor import no_grad


def greedy_continuation(
    model: GPT, prefix: np.ndarray, num_tokens: int
) -> np.ndarray:
    """Greedily decode ``num_tokens`` continuations of a 1-D prefix.

    Uses KV-cached incremental decoding when the whole generation fits
    the model's context (exactly equivalent, much faster); falls back to
    sliding-window full forwards otherwise.
    """
    prefix = np.asarray(prefix, dtype=np.int64)
    if len(prefix) + num_tokens <= model.cfg.seq_len:
        from repro.nn.generation import generate_greedy

        return generate_greedy(model, prefix, num_tokens)
    ids = prefix.copy()
    out = []
    with no_grad():
        for _ in range(num_tokens):
            window = ids[-model.cfg.seq_len :]
            logits = model(window[None, :]).data[0, -1]
            nxt = int(np.argmax(logits))
            out.append(nxt)
            ids = np.append(ids, nxt)
    return np.asarray(out, dtype=np.int64)
