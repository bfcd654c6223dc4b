"""Bucket design of the memorization experiments (Section VIII-B).

Articles are placed into four disjoint buckets.  During the injection
phase, bucket ``i`` is trained for ``epochs[i]`` passes; the fourth
bucket (0 epochs) is the held-out control measuring pre-existing
memorization.  The paper uses 200 articles per bucket with epochs
(1, 4, 6, 0); the scaled-down defaults keep the structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Document, SyntheticCorpus

__all__ = ["Bucket", "BucketDesign"]


@dataclass(frozen=True)
class Bucket:
    """One repetition group: documents trained for ``epochs`` passes."""

    epochs: int
    documents: tuple[Document, ...]

    def token_matrix(self) -> np.ndarray:
        """(n_docs, doc_len) array of the bucket's token sequences."""
        return np.stack([d.tokens for d in self.documents])


@dataclass
class BucketDesign:
    """The full four-bucket layout over a corpus."""

    corpus: SyntheticCorpus
    docs_per_bucket: int
    epochs_schedule: tuple[int, ...] = (1, 4, 6, 0)
    buckets: list[Bucket] = field(init=False)

    def __post_init__(self) -> None:
        if self.docs_per_bucket < 1:
            raise ValueError("docs_per_bucket must be >= 1")
        if 0 not in self.epochs_schedule:
            raise ValueError(
                "the design needs a 0-epoch control bucket"
            )
        self.buckets = []
        for i, epochs in enumerate(self.epochs_schedule):
            docs = self.corpus.documents(
                i * self.docs_per_bucket, self.docs_per_bucket
            )
            self.buckets.append(Bucket(epochs=epochs, documents=tuple(docs)))

    def trained_buckets(self) -> list[Bucket]:
        """Buckets that participate in training (epochs > 0)."""
        return [b for b in self.buckets if b.epochs > 0]

    def injection_stream(self, seed: int = 0) -> np.ndarray:
        """All training sequences with their scheduled repetitions, in a
        deterministically shuffled order: bucket ``i`` appears
        ``epochs[i]`` times.  Shape (total, doc_len)."""
        rows = []
        for bucket in self.trained_buckets():
            mat = bucket.token_matrix()
            for _ in range(bucket.epochs):
                rows.append(mat)
        stream = np.concatenate(rows, axis=0)
        rng = np.random.default_rng(seed)
        return stream[rng.permutation(len(stream))]

    def no_overlap(self) -> bool:
        """Sanity check: buckets are pairwise disjoint documents."""
        seen: set[int] = set()
        for b in self.buckets:
            for d in b.documents:
                if d.doc_id in seen:
                    return False
                seen.add(d.doc_id)
        return True
