"""Context — batch-size scaling: why the paper trains at 16.8M tokens.

The paper fixes its headline batch at 16.8M tokens (8,192 sequences).
This study shows what that choice buys: per-iteration communication in
the 4D algorithm is dominated by weight-sized collectives (all-gathers,
reduce-scatters, gradient all-reduces) that do *not* grow with the
batch, so larger batches amortize them — per-token cost falls and the
sustained %-of-peak rises with batch size until compute saturates.
"""

import pytest

from conftest import run_once

from repro.autotune import PlanRequest
from repro.cluster import FRONTIER
from repro.config import get_model
from repro.kernels import percent_of_peak, sustained_flops
from repro.simulate import OverlapFlags, best_configuration, simulate_iteration

MODEL = "GPT-20B"
GCDS = 2048
BATCHES = [512, 1024, 2048, 4096, 8192]


def test_batch_scaling_amortizes_communication(benchmark, report):
    cfg = get_model(MODEL)

    def experiment():
        rows = []
        for batch in BATCHES:
            config, res = best_configuration(
                PlanRequest(
                    cfg, GCDS, FRONTIER, batch,
                    overlap=OverlapFlags.all(), kernel_tuning=True,
                )
            )
            rows.append((batch, config, res))
        return rows

    rows = run_once(benchmark, experiment)

    report.line(
        f"Batch-size scaling: {MODEL} on {GCDS} GCDs of Frontier"
    )
    table = []
    per_token_costs = []
    pct_peaks = []
    for batch, config, res in rows:
        tokens = batch * cfg.seq_len
        per_token_us = res.total_time / tokens * 1e6
        pct = percent_of_peak(
            sustained_flops(cfg, batch, res.total_time),
            FRONTIER.peak_flops(GCDS),
        )
        per_token_costs.append(per_token_us)
        pct_peaks.append(pct)
        table.append(
            [
                batch,
                f"{batch * cfg.seq_len / 1e6:.1f}M",
                str(config),
                f"{res.total_time:.2f}s",
                f"{per_token_us:.3f}us",
                f"{pct:.1f}%",
            ]
        )
    report.table(
        ["batch (seqs)", "tokens", "config", "iter time", "time/token", "%peak"],
        table,
    )

    # Per-token cost decreases (or stays flat) as the batch grows, and
    # the largest batch sustains the highest fraction of peak.
    assert per_token_costs[-1] < per_token_costs[0]
    assert pct_peaks[-1] == max(pct_peaks)
    assert pct_peaks[-1] > pct_peaks[0] * 1.1
