"""The memorization laboratory: corpus, buckets, Goldfish loss, harness."""

from .buckets import Bucket, BucketDesign
from .corpus import Document, SyntheticCorpus
from .text_corpus import TextCorpus, make_wordlist
from .tokenizer import BPETokenizer
from .evaluate import (
    evaluate_buckets,
    exact_match_rate,
    prefix_sensitivity,
)
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
    "TextCorpus",
    "make_wordlist",
    "BPETokenizer",
    "Bucket",
    "BucketDesign",
    "goldfish_mask",
    "GOLDFISH_K",
    "GOLDFISH_H",
    "exact_match_rate",
    "evaluate_buckets",
    "prefix_sensitivity",
    "ExperimentConfig",
    "ExperimentResult",
    "scale_ladder",
    "pretrain",
    "run_experiment",
]
