"""Request-level serving runtime: continuous batching + paged KV cache.

The serving analog of the training stack: an admission queue fed by
seeded arrival traces (:mod:`repro.serving.arrivals`), a block-allocated
paged KV cache (:mod:`repro.serving.paged_kv`), the admission policy
with overload protection (:mod:`repro.serving.scheduler`), and **one**
serving loop (:mod:`repro.serving.loop`: admit, grow, preempt, resume,
evict) over three decoders: the serial greedy decoder
(:mod:`repro.serving.engine`), tensor-parallel decode over the 4D grid
(:mod:`repro.serving.tp`) wrapped to survive injected kills/drops/delays
(:mod:`repro.serving.resilience`), and the analytic decoder of the
simulator (:mod:`repro.simulate.serving`).
"""

from .arrivals import Request, bursty_trace, poisson_trace, synthetic_requests
from .engine import ServingEngine, batched_decode_step
from .loop import FinishedRequest, ServingLoop
from .paged_kv import BlockAllocator, CacheOutOfBlocks, PagedKVCache
from .resilience import ResilienceReport, ResilientTPEngine
from .scheduler import (
    REJECT_DEADLINE,
    REJECT_REJECTED,
    REJECT_SHED,
    BatchingConfig,
    ContinuousBatcher,
    RejectedRequest,
)
from .tp import TensorParallelDecoder

__all__ = [
    "Request",
    "poisson_trace",
    "bursty_trace",
    "synthetic_requests",
    "BlockAllocator",
    "PagedKVCache",
    "CacheOutOfBlocks",
    "BatchingConfig",
    "ContinuousBatcher",
    "RejectedRequest",
    "REJECT_REJECTED",
    "REJECT_SHED",
    "REJECT_DEADLINE",
    "ServingLoop",
    "ServingEngine",
    "FinishedRequest",
    "batched_decode_step",
    "TensorParallelDecoder",
    "ResilientTPEngine",
    "ResilienceReport",
]
