"""Pipeline parallelism: the paper's baseline model-parallel family."""

from .functional import P2PRecord, P2PTracer, PipelineGPT
from .partition import StagePlan, partition_layers
from .schedule import (
    PipelineConfig,
    bubble_fraction,
    PipelineResult,
    simulate_pipeline_iteration,
)

__all__ = [
    "StagePlan",
    "partition_layers",
    "PipelineGPT",
    "P2PRecord",
    "P2PTracer",
    "PipelineConfig",
    "PipelineResult",
    "simulate_pipeline_iteration",
    "bubble_fraction",
]
