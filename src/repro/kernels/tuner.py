"""Automated BLAS kernel-mode tuning (Section V-C).

During the first batch, AxoNN executes every matmul in all three modes
(NN, NT, TN), times them, and locks in the fastest for the rest of
training.  Running a product in a non-default mode requires physically
transposing an operand copy, whose (memory-bound) cost is charged as a
fixed fraction of the default-mode time; the paper's headline case — GPT-320B's
TN weight-gradient GEMM switched to an ~8x faster NN kernel, cutting
compute from 30.1 s to 13.19 s per batch — falls out of the rocBLAS TN
pathology encoded in :class:`~repro.kernels.gemm.GemmModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gemm import MODES, GemmMode, GemmModel

__all__ = [
    "MatmulOp",
    "TunedPlan",
    "tune_matmuls",
    "tune_matmuls_cached",
    "clear_tuner_cache",
]

#: Cost of re-laying-out an operand to use a non-default mode, as a
#: fraction of that shape's default-mode GEMM time (transposes are
#: memory-bound and cheap next to large GEMMs).
TRANSPOSE_OVERHEAD = 0.05

#: Minimum relative improvement required to leave the default mode —
#: guards against switching on timing noise for marginal gains.
SWITCH_THRESHOLD = 0.02


@dataclass(frozen=True)
class MatmulOp:
    """One matmul site in the model: shape plus the mode the framework
    would use by default (PyTorch: forward NN, dI = dO @ W^T -> NT,
    dW = I^T @ dO -> TN)."""

    name: str
    m: int
    k: int
    n: int
    default_mode: GemmMode = "NN"


@dataclass
class TunedPlan:
    """The tuner's output: chosen mode and timing per op."""

    choices: dict[str, GemmMode] = field(default_factory=dict)
    default_times: dict[str, float] = field(default_factory=dict)
    tuned_times: dict[str, float] = field(default_factory=dict)

    @property
    def total_default(self) -> float:
        return sum(self.default_times.values())

    @property
    def total_tuned(self) -> float:
        return sum(self.tuned_times.values())

    @property
    def speedup(self) -> float:
        """Default-over-tuned compute-time ratio (>= 1)."""
        if self.total_tuned == 0:
            return 1.0
        return self.total_default / self.total_tuned

def tune_matmuls(ops: list[MatmulOp], gemm: GemmModel) -> TunedPlan:
    """Time every op in all three modes and keep the fastest.

    A non-default mode pays the operand-relayout overhead; the default
    mode is free.  Ties go to the default mode (no churn for nothing).
    """
    plan = TunedPlan()
    seen: set[str] = set()
    for op in ops:
        if op.name in seen:
            raise ValueError(f"duplicate matmul name {op.name!r}")
        seen.add(op.name)
        default_t = gemm.time(op.m, op.k, op.n, op.default_mode)
        best_mode, best_t = op.default_mode, default_t
        for mode in MODES:
            t = gemm.time(op.m, op.k, op.n, mode)
            if mode != op.default_mode:
                # Relayout cost is charged relative to the *default* mode
                # (the time the op would otherwise take), matching the
                # SWITCH_THRESHOLD guard below: for TN/NT-default ops the
                # old NN-relative charge understated the overhead exactly
                # when the NN kernel was the attractive escape hatch.
                t += TRANSPOSE_OVERHEAD * default_t
            if t < best_t and t < default_t * (1.0 - SWITCH_THRESHOLD):
                best_mode, best_t = mode, t
        plan.choices[op.name] = best_mode
        plan.default_times[op.name] = default_t
        plan.tuned_times[op.name] = best_t
    return plan


#: Tuning outcome per machine, per (m, k, n, default_mode).  GPT stacks
#: repeat identical transformer blocks, so a model's op list collapses
#: to a handful of distinct shapes — pricing each shape once is what
#: keeps a warm simulate_iteration call in the low milliseconds (the
#: uncached :func:`tune_matmuls` is the definition and the test oracle
#: of ``tests/test_sim_differential.py``).  Two-level so the
#: (relatively expensive) MachineSpec hash is computed once per call,
#: not once per op.
_SHAPE_CACHE: dict[object, dict[tuple, tuple[GemmMode, float, float]]] = {}


def clear_tuner_cache() -> None:
    """Drop the per-shape tuning memo (e.g. between benchmark trials)."""
    _SHAPE_CACHE.clear()


def tune_matmuls_cached(ops: list[MatmulOp], gemm: GemmModel) -> TunedPlan:
    """:func:`tune_matmuls` with per-shape memoization.

    Returns a plan with the same per-op entries, in the same order, as
    the uncached tuner — every timing is the cached result of the exact
    same expressions, and the plan dicts are rebuilt per op so
    ``TunedPlan.speedup`` (a sum in dict insertion order) stays bitwise
    identical.
    """
    plan = TunedPlan()
    seen: set[str] = set()
    shapes = _SHAPE_CACHE.setdefault(gemm.machine, {})
    for op in ops:
        if op.name in seen:
            raise ValueError(f"duplicate matmul name {op.name!r}")
        seen.add(op.name)
        key = (op.m, op.k, op.n, op.default_mode)
        hit = shapes.get(key)
        if hit is None:
            one = tune_matmuls(
                [MatmulOp("_", op.m, op.k, op.n, op.default_mode)], gemm
            )
            hit = shapes[key] = (
                one.choices["_"],
                one.default_times["_"],
                one.tuned_times["_"],
            )
        mode, default_t, tuned_t = hit
        plan.choices[op.name] = mode
        plan.default_times[op.name] = default_t
        plan.tuned_times[op.name] = tuned_t
    return plan
