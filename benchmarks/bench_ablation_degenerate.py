"""Design-choice ablation — the 4D algorithm vs its degenerate cases.

Section V-A observes that the 4D algorithm generalizes FSDP/ZeRO (pure
Z), hybrid sharded data parallelism (Z + data), Megatron-LM (pure X),
and pure data parallelism.  This ablation runs each named special case
against the auto-configured 4D grid on the same job to quantify why the
extra dimensions matter — the design choice DESIGN.md calls out.
"""

import pytest

from conftest import run_once

from repro.autotune import PlanRequest
from repro.cluster import FRONTIER
from repro.config import get_model
from repro.core import make_degenerate_grid
from repro.perfmodel import infeasibility_reason
from repro.simulate import (
    OverlapFlags,
    baseline_config,
    best_configuration,
    simulate_iteration,
)

GCDS = 1024
BATCH = 2048
MODEL = "GPT-20B"


def test_ablation_degenerate_schemes(benchmark, report):
    cfg = get_model(MODEL)

    def experiment():
        results = {}
        for scheme in ("fsdp", "hsdp", "megatron"):
            grid = make_degenerate_grid(scheme, GCDS)
            gc = grid.config
            if infeasibility_reason(cfg, gc, BATCH, FRONTIER) is not None:
                results[scheme] = (gc, None)
                continue
            r = simulate_iteration(
                cfg, BATCH, gc, FRONTIER,
                overlap=OverlapFlags.all(), kernel_tuning=True,
            )
            results[scheme] = (gc, r)
        # The practical Megatron deployment: 1D TP capped at the node,
        # data parallelism across nodes.
        mega_dp = baseline_config(cfg, GCDS, FRONTIER)
        results["megatron+dp (in-node)"] = (
            mega_dp,
            simulate_iteration(
                cfg, BATCH, mega_dp, FRONTIER,
                overlap=OverlapFlags.all(), kernel_tuning=True,
            ),
        )
        auto_cfg, auto = best_configuration(
            PlanRequest(cfg, GCDS, FRONTIER, BATCH)
        )
        results["auto (perf model)"] = (auto_cfg, auto)
        return results

    results = run_once(benchmark, experiment)

    report.line(
        f"Ablation — degenerate configurations: {MODEL} on {GCDS} GCDs of "
        f"Frontier, batch {BATCH}"
    )
    rows = []
    for scheme, (gc, r) in results.items():
        if r is None:
            rows.append([scheme, str(gc), "infeasible", "-", "-"])
        else:
            rows.append(
                [
                    scheme,
                    str(gc),
                    f"{r.total_time:.2f}s",
                    f"{r.compute_time:.2f}s",
                    f"{r.exposed_comm_time:.2f}s",
                ]
            )
    report.table(
        ["scheme", "config", "batch time", "compute", "exposed comm"], rows
    )

    auto = results["auto (perf model)"][1]
    # The auto-selected configuration is at least as good as every named
    # degenerate scheme (it searches a superset).
    for scheme, (gc, r) in results.items():
        if r is not None and scheme != "auto (perf model)":
            assert auto.total_time <= r.total_time * 1.02, scheme

    # Pure 1D tensor parallelism cannot even be configured at this
    # scale (1024-way X exceeds the model's head/feature divisibility) —
    # the structural reason hybrid schemes exist.
    assert results["megatron"][1] is None
    # The practical Megatron+DP deployment runs, but loses to the 4D
    # configuration.
    mega_dp = results["megatron+dp (in-node)"][1]
    assert mega_dp is not None
    assert auto.total_time <= mega_dp.total_time * 1.02


def test_pure_data_parallel_infeasible_for_large_models(report):
    """Why Z exists: GPT-20B's training state (~320 GB) cannot replicate
    onto a single 64 GB GCD, so pure data parallelism is infeasible —
    exactly the motivation for sharding (Section IV-A)."""
    cfg = get_model(MODEL)
    grid = make_degenerate_grid("pure_data", GCDS)
    assert infeasibility_reason(cfg, grid.config, BATCH, FRONTIER) is not None
    report.line(
        "pure data parallelism for GPT-20B on Frontier: infeasible "
        "(model state exceeds one GCD's memory), as expected"
    )


def test_placement_ablation(benchmark, report):
    """The Section V-B hierarchy assumption, quantified: the same 4D
    configuration under block placement (what SLURM does, what the
    bandwidth model assumes) vs a round-robin rank scattering.  Task
    mapping matters — the reason the paper cites [30]-[33]."""
    from repro.core import GridConfig
    from repro.simulate import OverlapFlags, simulate_iteration

    cfg = get_model(MODEL)
    c = GridConfig(8, 1, 4, GCDS // 32)

    def experiment():
        block = simulate_iteration(
            cfg, BATCH, c, FRONTIER,
            overlap=OverlapFlags.all(), kernel_tuning=True,
        )
        rr = simulate_iteration(
            cfg, BATCH, c, FRONTIER,
            overlap=OverlapFlags.all(), kernel_tuning=True,
            placement_strategy="round_robin",
        )
        return block, rr

    block, rr = run_once(benchmark, experiment)
    report.line(
        f"Placement ablation — {MODEL}, grid {c} on {GCDS} GCDs of Frontier"
    )
    report.table(
        ["placement", "batch time", "exposed comm"],
        [
            ["block (paper assumption)", f"{block.total_time:.2f}s",
             f"{block.exposed_comm_time:.2f}s"],
            ["round-robin (scattered)", f"{rr.total_time:.2f}s",
             f"{rr.exposed_comm_time:.2f}s"],
        ],
    )
    slowdown = rr.total_time / block.total_time
    report.line(f"scattering the inner groups costs {slowdown:.2f}x")
    assert slowdown > 1.2
