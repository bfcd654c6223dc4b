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


#: The tolerance class of a prefill attention output (``S_new >= 2``)
#: against the untiled formula it replaced, in ulp of ``max|out|`` per
#: unit of ``1 + max|s|`` (``s`` the scaled scores ``q k^T / sqrt(hd)``).
#: Query tiles sum the softmax denominator and ``att @ v`` over shorter
#: lengths, and the scale moves onto ``q``; ``exp`` then carries a
#: score's rounding, which grows with ``|s|``, into the output.  Measured
#: over 6000 random draws (S_new 2-192, past 0-40, hd 1-64, fp32/fp64,
#: activation scales 1e-3 / 1 / 30): 9.0 at worst; at scale 30 both
#: formulas sit ~3400 ulp from an extended-precision reference alike.
PREFILL_ULPS = 16


def assert_prefill_close(got, want, q, keys) -> None:
    """``got`` within :data:`PREFILL_ULPS` of ``want``, where ``q`` is the
    (B, nh, S_new, hd) query and ``keys`` yields each row's (nh, T, hd)
    keys (the largest score is taken over all of them, visible or not)."""
    hd = q.shape[-1]
    smax = max(
        float(np.abs(q[j] @ np.swapaxes(k, -1, -2)).max())
        for j, k in enumerate(keys)
    ) / np.sqrt(hd)
    ulp = np.spacing(np.abs(want).max())
    err = np.abs(got - want).max()
    assert err <= PREFILL_ULPS * (1 + smax) * ulp, (err / ulp, smax)
