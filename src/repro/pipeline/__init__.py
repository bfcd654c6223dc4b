"""Pipeline parallelism: the paper's baseline model-parallel family."""

from .functional import PipelineGPT
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
    "PipelineConfig",
    "PipelineResult",
    "simulate_pipeline_iteration",
    "bubble_fraction",
]
