"""Table I — comparison with prior large-scale LLM training studies.

The paper's Table I compares AxoNN's sustained flop/s against prior
frameworks at their published scales.  We regenerate the comparable
rows: AxoNN's three headline entries (simulated on our substrate), plus
in-framework stand-ins for the prior approaches — the Megatron-style and
sharded-data-parallel degenerate configurations run at the same scales —
to show the qualitative ordering the paper reports (AxoNN's % of peak
exceeds the FORGE/Dash-et-al. ~30% band on Frontier at comparable
scales).
"""

import pytest

from conftest import run_once

from repro.autotune import PlanRequest
from repro.cluster import ALPS, FRONTIER, PERLMUTTER
from repro.config import get_model
from repro.simulate import (
    OverlapFlags,
    baseline_config,
    compute_metrics,
    run_point,
    simulate_iteration,
)

#: Paper Table I, AxoNN rows: (machine, model, #devices, batch-seqs,
#: paper % peak, paper Pflop/s).
AXONN_ROWS = [
    (PERLMUTTER, "GPT-40B", 4096, 8192, 49.0, 620.1),
    (FRONTIER, "GPT-320B", 32768, 8192, 22.0, 1381.0),
    (ALPS, "GPT-60B", 6144, 8192, 23.4, 1423.1),
]

#: Prior Frontier studies' % of peak at comparable scales (Table I).
PRIOR_FRONTIER_PCT = {"FORGE": 29.0, "Dash et al.": 31.9}


def test_table1_axonn_rows(benchmark, report):
    def experiment():
        return [
            (m, run_point(PlanRequest(model, g, m, global_batch=b)))
            for m, model, g, b, _, _ in AXONN_ROWS
        ]

    points = run_once(benchmark, experiment)

    report.line("Table I — AxoNN rows (simulated vs paper)")
    rows = []
    for (machine, p), (_, model, g, b, paper_pct, paper_pf) in zip(
        points, AXONN_ROWS
    ):
        rows.append(
            [
                machine.name,
                model,
                g,
                f"{p.metrics.pflops:.0f}",
                f"{paper_pf:.0f}",
                f"{p.metrics.pct_advertised_peak:.1f}",
                f"{paper_pct:.1f}",
            ]
        )
    report.table(
        ["machine", "model", "#dev", "Pflop/s", "(paper)", "%peak", "(paper)"],
        rows,
    )

    for (machine, p), (_, _, _, _, paper_pct, paper_pf) in zip(points, AXONN_ROWS):
        assert 0.5 < p.metrics.pflops / paper_pf < 2.0
        assert 0.6 < p.metrics.pct_advertised_peak / paper_pct < 2.2


def test_table1_axonn_beats_prior_frontier_studies(benchmark, report):
    """FORGE achieved ~29% and Dash et al. ~32% of peak on Frontier in
    the 1-4k GCD range; AxoNN's 4D configs reach ~40% there (paper:
    'a significant improvement over Yin et al. and Dash et al.').  We
    compare AxoNN against the Megatron+sharded-DP baseline standing in
    for those Megatron-LM/DeepSpeed-based stacks."""
    cfg = get_model("GPT-40B")
    gcds, batch = 4096, 8192

    def experiment():
        axonn = run_point(
            PlanRequest("GPT-40B", gcds, FRONTIER, global_batch=batch)
        )
        prior_cfg = baseline_config(cfg, gcds, FRONTIER)
        prior = simulate_iteration(
            cfg, batch, prior_cfg, FRONTIER,
            overlap=OverlapFlags.none(), kernel_tuning=False,
        )
        prior_metrics = compute_metrics(
            cfg, batch, gcds, FRONTIER, prior.total_time
        )
        return axonn, prior_metrics

    axonn, prior = run_once(benchmark, experiment)

    report.line("Table I context — Frontier, GPT-40B @ 4,096 GCDs")
    report.table(
        ["stack", "% advertised peak"],
        [
            ["AxoNN 4D (this work)", f"{axonn.metrics.pct_advertised_peak:.1f}"],
            ["Megatron+sharded-DP stand-in", f"{prior.pct_advertised_peak:.1f}"],
            ["FORGE (paper-reported)", f"{PRIOR_FRONTIER_PCT['FORGE']:.1f}"],
            ["Dash et al. (paper-reported)", f"{PRIOR_FRONTIER_PCT['Dash et al.']:.1f}"],
        ],
    )

    assert axonn.metrics.pct_advertised_peak > prior.pct_advertised_peak
    assert axonn.metrics.pct_advertised_peak > max(PRIOR_FRONTIER_PCT.values())
