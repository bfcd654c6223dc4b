"""Exact-match memorization evaluation (Section VIII-B).

"We prompt the model with the beginning of each training sequence, and
let the model write the last 50 tokens.  We consider a sequence
memorized if the model perfectly reproduces the correct 50 tokens."

The evaluator greedily decodes ``suffix_len`` tokens from each
document's prefix and reports the fraction of documents reproduced
exactly.  Decoding aborts a document at the first mismatch (it can no
longer be an exact match), which keeps the evaluation fast without
changing the measured quantity.
"""

from __future__ import annotations

import numpy as np

from ..nn.generation import decode_step, prefill
from ..nn.transformer import GPT
from ..tensor import no_grad
from .buckets import Bucket

__all__ = [
    "exact_match_rate",
    "evaluate_buckets",
    "prefix_sensitivity",
]


def _matches_suffix(
    model: GPT, tokens: np.ndarray, suffix_len: int
) -> bool:
    """True if greedy decoding reproduces the document's suffix exactly.

    Early-exits on the first wrong token; decodes incrementally through
    a KV cache (the document fits the context by construction).
    """
    prefix = np.asarray(tokens[:-suffix_len], dtype=np.int64)
    target = tokens[-suffix_len:]
    if len(tokens) <= model.cfg.seq_len:
        logits, cache = prefill(model, prefix[None, :])
        for t in target:
            if int(np.argmax(logits[0])) != int(t):
                return False
            logits = decode_step(model, np.array([t]), cache)
        return True
    ids = prefix.copy()
    with no_grad():
        for t in target:
            window = ids[-model.cfg.seq_len :]
            logits = model(window[None, :]).data[0, -1]
            if int(np.argmax(logits)) != int(t):
                return False
            ids = np.append(ids, t)
    return True


def exact_match_rate(
    model: GPT, documents: np.ndarray, suffix_len: int
) -> float:
    """Fraction of (n_docs, doc_len) sequences whose last ``suffix_len``
    tokens the model reproduces verbatim."""
    documents = np.atleast_2d(documents)
    if suffix_len < 1 or suffix_len >= documents.shape[1]:
        raise ValueError(
            f"suffix_len {suffix_len} invalid for documents of "
            f"{documents.shape[1]} tokens"
        )
    hits = sum(
        _matches_suffix(model, doc, suffix_len) for doc in documents
    )
    return hits / len(documents)


def evaluate_buckets(
    model: GPT, buckets: list[Bucket], suffix_len: int
) -> dict[int, float]:
    """Exact-match rate per bucket, keyed by the bucket's epoch count."""
    return {
        b.epochs: exact_match_rate(model, b.token_matrix(), suffix_len)
        for b in buckets
    }


def prefix_sensitivity(
    model: GPT,
    documents: np.ndarray,
    suffix_len: int,
    prefix_lens: list[int],
) -> dict[int, float]:
    """Exact-match rate as a function of the prompt length.

    Extraction-attack style (Carlini et al. [44], [46]): instead of the
    full document prefix, the model is prompted with only the
    ``prefix_len`` tokens immediately preceding the suffix.  Longer
    prompts give the model more of the memorized context, so the
    extraction rate is non-decreasing in ``prefix_len`` for a model that
    memorized the passage — the shape this evaluation measures.
    """
    documents = np.atleast_2d(documents)
    doc_len = documents.shape[1]
    if suffix_len < 1 or suffix_len >= doc_len:
        raise ValueError(f"suffix_len {suffix_len} invalid for {doc_len}-token docs")
    out: dict[int, float] = {}
    for plen in prefix_lens:
        if plen < 1 or plen + suffix_len > doc_len:
            raise ValueError(
                f"prefix_len {plen} invalid (doc {doc_len}, suffix {suffix_len})"
            )
        hits = 0
        for doc in documents:
            window = doc[doc_len - suffix_len - plen :]
            hits += _matches_suffix(model, window, suffix_len)
        out[plen] = hits / len(documents)
    return out
