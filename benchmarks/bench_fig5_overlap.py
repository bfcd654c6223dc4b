"""Figure 5 — impact of overlapping non-blocking collectives with compute.

Regenerates the batch-time breakdown (computation vs non-overlapped
communication) for GPT-20B/40B/80B on 8,192 GCDs of Frontier under the
four successive settings: no overlap (baseline), +OAR, +OAR+ORS, and
+OAR+ORS+OAG.  Paper anchor: an 18.69% improvement over the baseline for
the 80B model.
"""

import pytest

from conftest import run_once

from repro.autotune import PlanRequest
from repro.cluster import FRONTIER
from repro.config import get_model
from repro.simulate import OverlapFlags, best_configuration, simulate_iteration

SETTINGS = [
    ("baseline", OverlapFlags.none()),
    ("+OAR", OverlapFlags(oar=True)),
    ("+ORS", OverlapFlags(oar=True, ors=True)),
    ("+OAG", OverlapFlags.all()),
]

MODELS = ["GPT-20B", "GPT-40B", "GPT-80B"]
GCDS = 8192
BATCH = 8192


@pytest.mark.parametrize("model_name", MODELS)
def test_fig5_overlap_breakdown(benchmark, report, model_name):
    cfg = get_model(model_name)

    def experiment():
        config, _ = best_configuration(
            PlanRequest(
                cfg, GCDS, FRONTIER, BATCH,
                overlap=OverlapFlags.none(), kernel_tuning=True,
            )
        )
        out = []
        for label, flags in SETTINGS:
            r = simulate_iteration(
                cfg, BATCH, config, FRONTIER, overlap=flags, kernel_tuning=True
            )
            out.append((label, r))
        return config, out

    config, results = run_once(benchmark, experiment)
    base = results[0][1].total_time

    report.line(
        f"Figure 5 — overlap impact: {model_name} on {GCDS} GCDs of "
        f"Frontier, config {config}"
    )
    rows = []
    for label, r in results:
        rows.append(
            [
                label,
                f"{r.total_time:.2f}s",
                f"{r.compute_time:.2f}s",
                f"{r.exposed_comm_time:.2f}s",
                f"{100 * (1 - r.total_time / base):.1f}%",
            ]
        )
    report.table(
        ["setting", "batch time", "compute", "exposed comm", "gain vs baseline"],
        rows,
    )

    report.meta = {"model": model_name, "gcds": GCDS, "batch": BATCH}
    for label, r in results:
        report.metric(f"overlap.total_time.{label}", r.total_time)
        report.metric(f"overlap.exposed_comm.{label}", r.exposed_comm_time)
    report.metric(
        "overlap.full_gain_pct",
        100 * (1 - results[-1][1].total_time / base),
    )

    times = [r.total_time for _, r in results]
    comps = [r.compute_time for _, r in results]
    # Successive optimizations never slow the iteration down, and the
    # compute portion is untouched (only communication is hidden).
    for i in range(1, len(times)):
        assert times[i] <= times[i - 1] + 1e-9
        assert comps[i] == pytest.approx(comps[0])
    full_gain = 1 - times[-1] / times[0]
    if model_name == "GPT-80B":
        # Paper: 18.69% for the 80B model; accept a broad band.
        assert 0.05 < full_gain < 0.35
