"""Table I context — AxoNN's 4D algorithm vs TP x PP x DP hybrids.

Table I compares AxoNN against stacks built on tensor + pipeline + data
parallelism (Megatron-LM [6] at 52% of A100 peak, MT-NLG [5] at 36%).
This benchmark runs our Megatron-style pipeline-hybrid model at those
scales next to AxoNN's auto-configured 4D grid, reproducing the paper's
qualitative landscape: the pipeline hybrid is competitive on NVIDIA
systems (Narayanan et al. actually edge out AxoNN's 40B point in
Table I), while on Frontier the 4D algorithm's node-topology-aware
configuration wins.
"""

import pytest

from conftest import run_once

from repro.autotune import PlanRequest
from repro.cluster import FRONTIER, PERLMUTTER
from repro.config import get_model
from repro.kernels import sustained_flops, percent_of_peak
from repro.pipeline import PipelineConfig, simulate_pipeline_iteration
from repro.simulate import run_point


def pct_peak(cfg, batch, machine, num_gpus, seconds):
    return percent_of_peak(
        sustained_flops(cfg, batch, seconds), machine.peak_flops(num_gpus)
    )


def test_pipeline_hybrid_vs_4d(benchmark, report):
    def experiment():
        rows = []
        # Perlmutter, GPT-40B @ 4,096 (the Table I A100 arena).
        cfg = get_model("GPT-40B")
        batch = 8192
        pipe_cfg = PipelineConfig(tp=4, pp=8, dp=128)
        pipe = simulate_pipeline_iteration(
            cfg, batch, pipe_cfg, PERLMUTTER, num_microbatches=32
        )
        axonn = run_point(
            PlanRequest("GPT-40B", 4096, PERLMUTTER, global_batch=batch)
        )
        rows.append(
            ("perlmutter", cfg, batch, 4096, pipe_cfg, pipe, axonn)
        )
        # Frontier, GPT-80B @ 8,192.
        cfg = get_model("GPT-80B")
        pipe_cfg = PipelineConfig(tp=8, pp=14, dp=8192 // (8 * 14))
        # 8*14=112; 8192/112 is not integral -> use pp=16 via a 48-layer
        # rounding? GPT-80B has 42 layers; pick pp=7, tp=8, dp=146.3 no.
        # Use pp=6 (42 layers / 6 = 7), tp=8, dp=170.67 no. pp=21, tp=8,
        # dp=48.76 no.  8192 = 8 * 1024: pp must divide 42 and tp*pp*dp
        # = 8192 -> pp in {1,2}. Use pp=2, dp=512.
        pipe_cfg = PipelineConfig(tp=8, pp=2, dp=512)
        pipe = simulate_pipeline_iteration(
            cfg, batch, pipe_cfg, FRONTIER, num_microbatches=16
        )
        axonn = run_point(
            PlanRequest("GPT-80B", 8192, FRONTIER, global_batch=batch)
        )
        rows.append(("frontier", cfg, batch, 8192, pipe_cfg, pipe, axonn))
        return rows

    rows = run_once(benchmark, experiment)

    report.line("AxoNN 4D vs Megatron-style TP x PP x DP")
    table = []
    results = {}
    for machine_name, cfg, batch, gpus, pipe_cfg, pipe, axonn in rows:
        machine = PERLMUTTER if machine_name == "perlmutter" else FRONTIER
        pipe_pct = pct_peak(cfg, batch, machine, gpus, pipe.total_time)
        axonn_pct = axonn.metrics.pct_advertised_peak
        results[machine_name] = (pipe_pct, axonn_pct, pipe)
        table.append(
            [
                machine_name,
                cfg.name,
                gpus,
                f"{str(pipe_cfg)} {pipe.total_time:.2f}s ({pipe_pct:.1f}%)",
                f"{axonn.config} {axonn.result.total_time:.2f}s ({axonn_pct:.1f}%)",
            ]
        )
    report.table(
        ["machine", "model", "#dev", "pipeline hybrid", "AxoNN 4D"], table
    )
    pipe_pct, axonn_pct, pipe = results["perlmutter"]
    report.line(
        f"bubble fraction of the A100 pipeline run: {pipe.bubble_fraction:.2%}"
    )

    # Both stacks land in the plausible % band everywhere.
    for machine_name, (pipe_pct, axonn_pct, _) in results.items():
        assert 15 < pipe_pct < 65
        assert 15 < axonn_pct < 65
    # On Perlmutter the two are competitive (Table I: 52% vs 49%).
    p_pipe, p_axonn, _ = results["perlmutter"]
    assert abs(p_pipe - p_axonn) < 20
    # On Frontier the 4D configuration wins.
    f_pipe, f_axonn, _ = results["frontier"]
    assert f_axonn > f_pipe - 1.0
