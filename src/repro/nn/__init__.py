"""Neural-network library: modules, layers, GPT, optimizers, training."""

from .layers import Dropout, Embedding, LayerNorm, Linear, init_normal
from .module import Module, Parameter
from .optim import (
    AdamW,
    CosineSchedule,
    WarmupDecaySchedule,
    clip_grad_norm,
)
from .generation import KVCache, decode_step, generate_greedy, prefill
from .training import (
    MixedPrecisionTrainer,
    RecoveryReport,
    TrainingReport,
    train_with_recovery,
)
from .sequence_parallel import (
    RING_KV_TAG,
    ring_causal_attention,
)
from .transformer import (
    GPT,
    MLP,
    Block,
    CausalSelfAttention,
    causal_attention,
    causal_mask,
)

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "init_normal",
    "GPT",
    "Block",
    "MLP",
    "CausalSelfAttention",
    "causal_attention",
    "causal_mask",
    "RING_KV_TAG",
    "ring_causal_attention",
    "AdamW",
    "WarmupDecaySchedule",
    "CosineSchedule",
    "clip_grad_norm",
    "MixedPrecisionTrainer",
    "TrainingReport",
    "RecoveryReport",
    "train_with_recovery",
    "KVCache",
    "prefill",
    "decode_step",
    "generate_greedy",
]
