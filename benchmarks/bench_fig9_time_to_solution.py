"""Figure 9 — strong scaling / predicted time-to-solution on Frontier.

Regenerates the paper's extrapolation: measure the per-iteration time of
GPT-80B on 128-8,192 GCDs and GPT-640B on 512-8,192 GCDs at the paper's
16.8M-token batch, and predict the wall-clock time to ingest 2 trillion
tokens.  Paper anchors: 80B takes ~50 months on 128 GCDs but 25.5 days
on 8,192; 640B drops from ~14 years at 512 GCDs to ~15 months at 8,192
(an 11x improvement); strong-scaling efficiency above 90%.
"""

import pytest

from conftest import run_once

from repro.autotune import PlanRequest
from repro.cluster import FRONTIER
from repro.config import get_model
from repro.simulate import (
    run_point,
    strong_scaling_efficiency,
    time_to_solution_days,
)

BATCH = 8192  # 16.8M tokens
TOKENS = 2e12

CASES = [
    ("GPT-80B", [128, 256, 512, 1024, 2048, 4096, 8192]),
    ("GPT-640B", [512, 1024, 2048, 4096, 8192]),
]


@pytest.mark.parametrize("model_name,gcd_counts", CASES, ids=lambda c: str(c))
def test_fig9_time_to_solution(benchmark, report, model_name, gcd_counts):
    cfg = get_model(model_name)

    def experiment():
        return [
            run_point(PlanRequest(model_name, g, FRONTIER, global_batch=BATCH))
            for g in gcd_counts
        ]

    points = run_once(benchmark, experiment)

    report.line(
        f"Figure 9 — {model_name} on Frontier: predicted time to train on "
        f"2T tokens (batch {BATCH} sequences)"
    )
    rows = []
    for p in points:
        days = time_to_solution_days(cfg, BATCH, p.result.total_time, TOKENS)
        rows.append(
            [
                p.num_gpus,
                str(p.config),
                f"{p.result.total_time:.2f}s",
                f"{days:.1f}",
                f"{days / 30.44:.1f}",
            ]
        )
    report.table(
        ["#GCDs", "config", "batch time", "days", "months"], rows
    )

    first, last = points[0], points[-1]
    eff = strong_scaling_efficiency(
        first.result.total_time,
        first.num_gpus,
        last.result.total_time,
        last.num_gpus,
    )
    speedup = first.result.total_time / last.result.total_time
    report.line(
        f"strong-scaling efficiency {first.num_gpus}->{last.num_gpus} GCDs: "
        f"{100 * eff:.1f}% (speedup {speedup:.1f}x)"
    )

    days_first = time_to_solution_days(cfg, BATCH, first.result.total_time, TOKENS)
    days_last = time_to_solution_days(cfg, BATCH, last.result.total_time, TOKENS)
    # Time-to-solution drops near-linearly with GCDs.
    assert days_last < days_first / (0.5 * last.num_gpus / first.num_gpus)
    assert eff > 0.5
    if model_name == "GPT-80B":
        assert days_first > 600  # years at 128 GCDs (paper: ~50 months)
        assert days_last < 40  # weeks at 8,192 (paper: 25.5 days)
    else:
        assert days_first > 365 * 4  # many years at 512 GCDs (paper: ~14 y)
        assert days_last < 365 * 2.5  # months-to-a-year+ (paper: ~15 months)
