"""Figure 7 — cumulative impact of the performance optimizations.

For each weak-scaling point on Frontier, compares four settings:

1. **Baseline** — Megatron-style 1D tensor parallelism inside each node
   plus hybrid sharded data parallelism across nodes, no tuning, no
   overlap (the paper's baseline);
2. **Perf model** — the best of the performance model's top-10 4D
   configurations;
3. **+ Kernel tuning** — plus NN/NT/TN mode tuning;
4. **+ Comm overlap** — plus OAR/ORS/OAG.

Paper anchors: 13-45% total improvement over the baseline, most of it
from the configuration change; tuning adds 2-4% for these models; the
overlap gain is largest for GPT-80B at 8,192 GCDs.
"""

import pytest

from conftest import run_once

from repro.autotune import PlanRequest
from repro.cluster import FRONTIER
from repro.config import get_model
from repro.simulate import (
    OverlapFlags,
    baseline_config,
    best_configuration,
    simulate_iteration,
)

POINTS = [
    ("GPT-5B", 512),
    ("GPT-20B", 2048),
    ("GPT-80B", 8192),
]


@pytest.mark.parametrize("model_name,gcds", POINTS)
def test_fig7_optimization_impact(benchmark, report, model_name, gcds):
    cfg = get_model(model_name)
    batch = min(8192, 2 * gcds)

    def experiment():
        base_cfg = baseline_config(cfg, gcds, FRONTIER)
        base = simulate_iteration(
            cfg, batch, base_cfg, FRONTIER,
            overlap=OverlapFlags.none(), kernel_tuning=False,
        )
        pm_cfg, _ = best_configuration(
            PlanRequest(
                cfg, gcds, FRONTIER, batch,
                overlap=OverlapFlags.none(), kernel_tuning=False,
            )
        )
        pm = simulate_iteration(
            cfg, batch, pm_cfg, FRONTIER,
            overlap=OverlapFlags.none(), kernel_tuning=False,
        )
        tuned = simulate_iteration(
            cfg, batch, pm_cfg, FRONTIER,
            overlap=OverlapFlags.none(), kernel_tuning=True,
        )
        overlapped = simulate_iteration(
            cfg, batch, pm_cfg, FRONTIER,
            overlap=OverlapFlags.all(), kernel_tuning=True,
        )
        return base_cfg, pm_cfg, [
            ("baseline (Megatron+HSDP)", base),
            ("perf model", pm),
            ("+ kernel tuning", tuned),
            ("+ comm overlap", overlapped),
        ]

    base_cfg, pm_cfg, results = run_once(benchmark, experiment)
    base_t = results[0][1].total_time

    report.line(
        f"Figure 7 — {model_name} on {gcds} GCDs of Frontier "
        f"(baseline {base_cfg} vs model-chosen {pm_cfg})"
    )
    rows = []
    for label, r in results:
        rows.append(
            [
                label,
                f"{r.total_time:.2f}s",
                f"{r.compute_time:.2f}s",
                f"{r.exposed_comm_time:.2f}s",
                f"{100 * (1 - r.total_time / base_t):.1f}%",
            ]
        )
    report.table(
        ["setting", "batch time", "compute", "exposed comm", "vs baseline"],
        rows,
    )

    final = results[-1][1].total_time
    total_gain = 1 - final / base_t
    report.line(f"total improvement: {100 * total_gain:.1f}% (paper: 13-45%)")

    # Tuning and overlap are monotone non-worsening on the chosen
    # config.  (The bare configuration change can regress when the
    # model-chosen grid exposes the rocBLAS TN pathology that kernel
    # tuning then fixes — an interaction worth surfacing, not hiding.)
    times = [r.total_time for _, r in results]
    assert times[2] <= times[1] + 1e-9
    assert times[3] <= times[2] + 1e-9
    # The full stack beats the baseline in (or near) the paper's band.
    assert times[2] <= base_t + 1e-9
    assert 0.08 < total_gain < 0.60
