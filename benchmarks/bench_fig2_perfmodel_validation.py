"""Figure 2 — validation of the communication performance model.

The paper's validation procedure: collect batch times for *all* 4D grid
configurations of GPT-20B on 32 GPUs and GPT-40B on 64 GPUs of
Perlmutter; label the 10 fastest observed configurations 'efficient';
rank all configurations by the analytical model; check that the model's
top-10 contains (the paper: 9 of 10) efficient configurations.

Here "observed" batch times come from the discrete-event simulator —
which, unlike the model, includes compute, per-step latency, exact ring
contention, and run-to-run jitter — so the agreement is a real test of
Eqs. 1-7, not a tautology.
"""

import pytest

from conftest import run_once

from repro.cluster import PERLMUTTER
from repro.config import get_model
from repro.core import enumerate_grid_configs
from repro.perfmodel import BandwidthDatabase, infeasibility_reason, model_comm_time
from repro.simulate import OverlapFlags, simulate_iteration

CASES = [
    ("GPT-20B", 32, 32),
    ("GPT-40B", 64, 64),
]


@pytest.mark.parametrize("model_name,num_gpus,batch", CASES)
def test_fig2_perfmodel_validation(benchmark, report, model_name, num_gpus, batch):
    cfg = get_model(model_name)
    db = BandwidthDatabase.profile(PERLMUTTER)

    def experiment():
        rows = []
        for gc in enumerate_grid_configs(num_gpus):
            if infeasibility_reason(cfg, gc, batch) is not None:
                continue
            predicted = model_comm_time(cfg, batch, gc, PERLMUTTER, db=db).total
            observed = simulate_iteration(
                cfg, batch, gc, PERLMUTTER,
                overlap=OverlapFlags.none(), kernel_tuning=False,
            ).total_time
            rows.append((gc, predicted, observed))
        return rows

    rows = run_once(benchmark, experiment)
    assert len(rows) >= 15, "need a meaningful configuration space"

    by_model = sorted(rows, key=lambda r: r[1])
    by_observed = sorted(rows, key=lambda r: r[2])
    efficient = {str(r[0]) for r in by_observed[:10]}
    model_top10 = [str(r[0]) for r in by_model[:10]]
    hits = sum(1 for c in model_top10 if c in efficient)

    report.line(
        f"Figure 2 — model validation: {model_name} on {num_gpus} GPUs of "
        f"Perlmutter ({len(rows)} configurations)"
    )
    table_rows = []
    for rank, (gc, pred, obs) in enumerate(by_model[:10], start=1):
        table_rows.append(
            [
                rank,
                str(gc),
                f"{pred:.3f}s",
                f"{obs:.3f}s",
                "efficient" if str(gc) in efficient else "inefficient",
            ]
        )
    report.table(
        ["model rank", "config", "predicted comm", "observed batch", "label"],
        table_rows,
    )
    # ASCII rendition of the paper's scatter: model rank (x) vs observed
    # batch time (y); '*' = observed-top-10 ("efficient") configs.
    from repro.tools.ascii_plot import scatter

    ranks = list(range(1, len(by_model) + 1))
    times = [r[2] for r in by_model]
    marks = ["*" if str(r[0]) in efficient else "." for r in by_model]
    report.line("")
    report.line(scatter(
        [float(r) for r in ranks], times, marks=marks,
        x_label="model rank", y_label="observed batch time",
    ))
    report.line("('*' = among the 10 fastest observed configurations)")
    report.line("")

    best_time = by_observed[0][2]
    worst_pick = max(r[2] for r in by_model[:10]) / best_time
    report.line(f"model top-10 hits among observed top-10: {hits}/10 (paper: 9/10)")
    report.line(
        f"slowest of the model's top-10 picks is {worst_pick:.2f}x the best "
        "observed configuration"
    )

    # Label-counting criterion (the paper scored 9/10 against the real
    # machine; our 'observed' simulator includes compute and latency the
    # model ignores, so near-ties flip a few labels).
    assert hits >= 6
    # The operative property: every model pick is near-optimal, so
    # running the top-k and keeping the best (the paper's procedure)
    # finds a fast configuration.
    assert worst_pick < 1.35
    best_observed = str(by_observed[0][0])
    assert best_observed in {str(r[0]) for r in by_model[: max(5, len(rows) // 4)]}
