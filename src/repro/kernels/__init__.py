"""GEMM performance model, kernel-mode autotuner, and FLOP accounting."""

from .flops import (
    flops_per_iteration,
    percent_of_peak,
    sustained_flops,
)
from .gemm import MODES, GemmMode, GemmModel
from .tuner import (
    TRANSPOSE_OVERHEAD,
    MatmulOp,
    TunedPlan,
    clear_tuner_cache,
    tune_matmuls,
    tune_matmuls_cached,
)

__all__ = [
    "GemmModel",
    "GemmMode",
    "MODES",
    "MatmulOp",
    "TunedPlan",
    "tune_matmuls",
    "tune_matmuls_cached",
    "clear_tuner_cache",
    "TRANSPOSE_OVERHEAD",
    "flops_per_iteration",
    "sustained_flops",
    "percent_of_peak",
]
