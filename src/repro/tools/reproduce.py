"""Command-line experiment runner: regenerate any paper table or figure.

Usage::

    python -m repro.tools reproduce --list
    python -m repro.tools reproduce fig6 table3
    python -m repro.tools reproduce all

Each experiment id maps to a benchmark module under ``benchmarks/``; the
runner invokes pytest on it with live output, so the reproduced rows
print to the terminal and land in ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

__all__ = ["EXPERIMENTS", "main"]

#: Experiment id -> (benchmark file, description).
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "table1": (
        "bench_table1_comparison.py",
        "Table I — comparison with prior large-scale training studies",
    ),
    "fig2": (
        "bench_fig2_perfmodel_validation.py",
        "Fig. 2 — performance-model validation (rank vs observed time)",
    ),
    "fig5": (
        "bench_fig5_overlap.py",
        "Fig. 5 — overlapping collectives with computation (OAR/ORS/OAG)",
    ),
    "fig6": (
        "bench_fig6_weak_scaling.py",
        "Fig. 6 — weak scaling on Perlmutter, Frontier, Alps",
    ),
    "fig7": (
        "bench_fig7_optimizations.py",
        "Fig. 7 — cumulative impact of the performance optimizations",
    ),
    "fig8": (
        "bench_fig8_table3_flops.py",
        "Fig. 8 / Table III — sustained bf16 flop/s",
    ),
    "table3": (
        "bench_fig8_table3_flops.py",
        "Fig. 8 / Table III — sustained bf16 flop/s",
    ),
    "fig9": (
        "bench_fig9_time_to_solution.py",
        "Fig. 9 — strong scaling / time-to-solution on Frontier",
    ),
    "fig10": (
        "bench_fig10_memorization.py",
        "Fig. 10 — memorization vs model scale and epochs",
    ),
    "fig11": (
        "bench_fig11_goldfish.py",
        "Fig. 11 — the Goldfish loss stops memorization",
    ),
    "kernel-tuning": (
        "bench_kernel_tuning.py",
        "Section V-C — automated BLAS kernel tuning (GPT-320B anecdote)",
    ),
    "ablation": (
        "bench_ablation_degenerate.py",
        "Ablation — the 4D algorithm vs its degenerate special cases",
    ),
    "pipeline": (
        "bench_pipeline_comparison.py",
        "Context — AxoNN 4D vs TP x PP x DP pipeline hybrids",
    ),
    "memory": (
        "bench_memory_motivation.py",
        "Section VI-A — memory motivations (checkpointing, Z-sharding)",
    ),
    "goldfish-sweep": (
        "bench_goldfish_k_sweep.py",
        "Extension — Goldfish drop-rate (k) trade-off sweep",
    ),
    "moe": (
        "bench_moe_extension.py",
        "Extension — Mixture-of-Experts expert parallelism (ref. [17])",
    ),
    "batch-scaling": (
        "bench_batch_scaling.py",
        "Context — batch-size scaling (why 16.8M-token batches)",
    ),
}


def _benchmarks_dir() -> Path:
    # repo_root/src/repro/tools/reproduce.py -> repo_root/benchmarks
    return Path(__file__).resolve().parents[3] / "benchmarks"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.reproduce", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (see --list), or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        width = max(len(k) for k in EXPERIMENTS)
        for key, (_, desc) in EXPERIMENTS.items():
            print(f"  {key:<{width}}  {desc}")
        return 0

    wanted = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    files: list[str] = []
    for key in wanted:
        if key not in EXPERIMENTS:
            print(f"unknown experiment {key!r}; try --list", file=sys.stderr)
            return 2
        fname = EXPERIMENTS[key][0]
        if fname not in files:
            files.append(fname)

    bench_dir = _benchmarks_dir()
    cmd = [
        sys.executable, "-m", "pytest", "--benchmark-only", "-s", "-q",
        *[str(bench_dir / f) for f in files],
    ]
    print("running:", " ".join(cmd))
    return subprocess.call(cmd, cwd=bench_dir.parent)
