"""The memorization laboratory: corpus, buckets, Goldfish loss, harness."""

from .buckets import Bucket, BucketDesign
from .corpus import Document, SyntheticCorpus
from .evaluate import evaluate_buckets, exact_match_rate
from .goldfish import GOLDFISH_H, GOLDFISH_K, goldfish_mask
from .trainer import (
    ExperimentConfig,
    ExperimentResult,
    pretrain,
    run_experiment,
    scale_ladder,
)

__all__ = [
    "SyntheticCorpus",
    "Document",
    "Bucket",
    "BucketDesign",
    "goldfish_mask",
    "GOLDFISH_K",
    "GOLDFISH_H",
    "exact_match_rate",
    "evaluate_buckets",
    "ExperimentConfig",
    "ExperimentResult",
    "scale_ladder",
    "pretrain",
    "run_experiment",
]
