"""Tests for the discrete-event performance simulator.

Beyond unit behaviour, these tests pin down the paper's qualitative
performance claims: overlap optimizations reduce batch time (most at
large scale), kernel tuning rescues the GPT-320B TN pathology, the
auto-configured 4D grid beats the Megatron+HSDP baseline, and weak/strong
scaling efficiencies land in the paper's ranges.
"""

import pytest

from repro.autotune import PlanRequest
from repro.cluster import ALPS, FRONTIER, PERLMUTTER
from repro.config import get_model
from repro.core import Grid4D, GridConfig
from repro.cluster import Placement
from repro.simulate import (
    OverlapFlags,
    baseline_config,
    best_configuration,
    compute_metrics,
    default_global_batch,
    group_timings,
    run_point,
    simulate_iteration,
    strong_scaling_efficiency,
    time_to_solution_days,
    weak_scaling_efficiency,
)
from repro.simulate.network_sim import congestion_factor

from tests.oracles.network import measured_group_bandwidth


class TestNetworkSim:
    def test_size_one_axis_free(self):
        grid = Grid4D(GridConfig(1, 1, 8, 1))
        placement = Placement(FRONTIER, 8)
        t = measured_group_bandwidth(grid, placement, "x")
        assert t.bandwidth == float("inf")
        assert t.group_size == 1

    def test_in_node_group_uses_fabric(self):
        grid = Grid4D(GridConfig(2, 1, 1, 4))
        placement = Placement(FRONTIER, 8)
        t = measured_group_bandwidth(grid, placement, "x")
        # X pairs (0,1), (2,3)... share MI250X dies.
        assert t.bandwidth == FRONTIER.same_die_bw
        assert t.latency < 1e-5

    def test_spanning_group_is_slower(self):
        grid = Grid4D(GridConfig(8, 1, 1, 2))
        placement = Placement(FRONTIER, 16)
        tx = measured_group_bandwidth(grid, placement, "x")
        td = measured_group_bandwidth(grid, placement, "data")
        assert td.bandwidth < tx.bandwidth
        assert td.latency > tx.latency

    def test_group_timings_covers_axes(self):
        grid = Grid4D(GridConfig(2, 2, 2, 2))
        placement = Placement(PERLMUTTER, 16)
        t = group_timings(grid, placement)
        assert set(t) == {"x", "y", "z", "data", "seq"}

    def test_congestion_grows_with_job_size(self):
        assert congestion_factor(1) == 1.0
        assert congestion_factor(64) < congestion_factor(1024)
        assert congestion_factor(4096) > 1.5


class TestSimulateIteration:
    def test_basic_result_sanity(self):
        cfg = get_model("GPT-5B")
        r = simulate_iteration(cfg, 64, GridConfig(2, 2, 2, 4), FRONTIER)
        assert r.total_time > 0
        assert r.compute_time > 0
        assert r.total_time >= r.compute_time
        assert r.exposed_comm_time == pytest.approx(
            r.total_time - r.compute_time
        )

    def test_batch_divisibility(self):
        cfg = get_model("GPT-5B")
        with pytest.raises(ValueError):
            simulate_iteration(cfg, 10, GridConfig(1, 1, 1, 4), FRONTIER)

    def test_deterministic(self):
        cfg = get_model("GPT-10B")
        c = GridConfig(2, 1, 4, 4)
        a = simulate_iteration(cfg, 64, c, FRONTIER)
        b = simulate_iteration(cfg, 64, c, FRONTIER)
        assert a.total_time == b.total_time

    def test_overlap_never_hurts(self):
        cfg = get_model("GPT-20B")
        c = GridConfig(8, 1, 4, 8)
        base = simulate_iteration(cfg, 512, c, FRONTIER, overlap=OverlapFlags.none())
        for fl in (
            OverlapFlags(True, False, False),
            OverlapFlags(True, True, False),
            OverlapFlags.all(),
        ):
            r = simulate_iteration(cfg, 512, c, FRONTIER, overlap=fl)
            assert r.total_time <= base.total_time + 1e-9
            assert r.compute_time == pytest.approx(base.compute_time)

    def test_overlap_gains_grow_with_scale(self):
        """Section VII-A: the overlap benefit is largest for the largest
        model/scale (communication grows with scale)."""

        def gain(model, gpus):
            cfg = get_model(model)
            c, _ = best_configuration(
                PlanRequest(
                    cfg, gpus, FRONTIER, default_global_batch(gpus),
                    overlap=OverlapFlags.none(), kernel_tuning=False,
                )
            )
            b = default_global_batch(gpus)
            off = simulate_iteration(cfg, b, c, FRONTIER, overlap=OverlapFlags.none())
            on = simulate_iteration(cfg, b, c, FRONTIER, overlap=OverlapFlags.all())
            return 1.0 - on.total_time / off.total_time

        assert gain("GPT-80B", 8192) > gain("GPT-20B", 2048) - 0.02
        assert gain("GPT-80B", 8192) > 0.05  # visible double-digit-ish gain

    def test_kernel_tuning_large_gain_for_320b(self):
        """Section V-C: GPT-320B's TN pathology costs ~2x of compute;
        tuning recovers it."""
        cfg = get_model("GPT-320B")
        # A modest tensor split keeps the local dW output dims at the
        # pathological hidden size (paper: 30.1 s -> 13.19 s of compute).
        c = GridConfig(2, 1, 16, 1024)
        off = simulate_iteration(cfg, 8192, c, FRONTIER, kernel_tuning=False)
        on = simulate_iteration(cfg, 8192, c, FRONTIER, kernel_tuning=True)
        assert on.compute_time < off.compute_time * 0.6
        assert on.tuning_speedup > 2.0
        # Absolute compute lands near the paper's numbers.
        assert 20 < off.compute_time < 45
        assert 8 < on.compute_time < 20

    def test_kernel_tuning_modest_for_small_models(self):
        cfg = get_model("GPT-20B")
        c = GridConfig(8, 1, 4, 16)
        off = simulate_iteration(cfg, 1024, c, FRONTIER, kernel_tuning=False)
        on = simulate_iteration(cfg, 1024, c, FRONTIER, kernel_tuning=True)
        assert 1.0 <= off.compute_time / on.compute_time < 1.15

    def test_checkpointing_costs_compute(self):
        cfg = get_model("GPT-5B")
        c = GridConfig(2, 2, 2, 2)
        with_ck = simulate_iteration(cfg, 32, c, FRONTIER)
        without = simulate_iteration(
            cfg, 32, c, FRONTIER, activation_checkpointing=False
        )
        assert with_ck.compute_time > without.compute_time * 1.2


class TestBaselineAndAutoConfig:
    def test_baseline_is_megatron_plus_hsdp(self):
        cfg = get_model("GPT-80B")
        bc = baseline_config(cfg, 8192, FRONTIER)
        assert bc.gx == FRONTIER.gpus_per_node
        assert bc.gy == 1
        assert bc.total == 8192

    def test_autoconfig_beats_baseline_fig7(self):
        """Fig. 7: perf-model configs + tuning + overlap beat the
        Megatron+HSDP baseline by double digits on Frontier."""
        cfg = get_model("GPT-80B")
        batch = 8192
        base = simulate_iteration(
            cfg, batch, baseline_config(cfg, 8192, FRONTIER), FRONTIER,
            overlap=OverlapFlags.none(), kernel_tuning=False,
        )
        _, best = best_configuration(PlanRequest(cfg, 8192, FRONTIER, batch))
        improvement = 1.0 - best.total_time / base.total_time
        assert 0.10 < improvement < 0.60  # paper: 13-45% + overlap

    def test_best_configuration_no_feasible(self):
        cfg = get_model("GPT-640B")
        with pytest.raises(ValueError):
            # 640B cannot fit on 8 A100-40GB GPUs in any arrangement.
            best_configuration(PlanRequest(cfg, 8, PERLMUTTER, 8))


class TestScalingStudies:
    def test_weak_scaling_efficiency_range_frontier(self):
        """Fig. 6 / Table III shape: high efficiency through 8k GCDs, a
        drop at 16k, a cliff at 32k (53.5% in the paper)."""
        p512 = run_point(PlanRequest("GPT-5B", 512, FRONTIER))
        p8k = run_point(PlanRequest("GPT-80B", 8192, FRONTIER))
        p32k = run_point(PlanRequest("GPT-320B", 32768, FRONTIER))
        eff8 = weak_scaling_efficiency(p512.metrics, p8k.metrics)
        eff32 = weak_scaling_efficiency(p512.metrics, p32k.metrics)
        assert eff8 > 0.80
        assert 0.35 < eff32 < 0.75
        assert eff32 < eff8

    def test_paper_headline_flops(self):
        """1.381 Eflop/s on 32,768 GCDs (22% of peak): shape check —
        we accept 1.1-1.7 Eflop/s and 18-27%."""
        p = run_point(PlanRequest("GPT-320B", 32768, FRONTIER))
        assert 1.1e18 < p.metrics.total_flops < 1.7e18
        assert 18 < p.metrics.pct_advertised_peak < 27

    def test_alps_highest_absolute_flops(self):
        """Alps at 6,144 H100s delivers the highest sustained flop/s of
        the three systems (1.423 Eflop/s in the paper)."""
        alps = run_point(PlanRequest("GPT-60B", 6144, ALPS))
        perl = run_point(PlanRequest("GPT-40B", 4096, PERLMUTTER))
        assert alps.metrics.total_flops > perl.metrics.total_flops
        assert alps.metrics.total_flops > 1.0e18

    def test_perlmutter_50pct_range(self):
        """Perlmutter sustains ~50%+ of advertised peak (Section VII-B)."""
        p = run_point(PlanRequest("GPT-10B", 1024, PERLMUTTER))
        assert p.metrics.pct_advertised_peak > 40

    def test_strong_scaling_efficiency_metric(self):
        assert strong_scaling_efficiency(100.0, 128, 13.0, 1024) == pytest.approx(
            (100 / 13) / 8
        )

    def test_time_to_solution_fig9_shape(self):
        """Fig. 9: GPT-80B on 128 GCDs takes years; on 8,192 GCDs weeks."""
        cfg = get_model("GPT-80B")
        batch = 8192  # the paper's 16.8M-token batch
        small = run_point(PlanRequest("GPT-80B", 128, FRONTIER, global_batch=batch))
        big = run_point(PlanRequest("GPT-80B", 8192, FRONTIER, global_batch=batch))
        t_small = time_to_solution_days(cfg, batch, small.result.total_time, 2e12)
        t_big = time_to_solution_days(cfg, batch, big.result.total_time, 2e12)
        assert t_small > 600  # years on 128 GCDs (paper: 50 months)
        assert t_big < 40  # weeks at 8k GCDs (paper: 25.5 days)
        eff = strong_scaling_efficiency(
            small.result.total_time, 128, big.result.total_time, 8192
        )
        assert eff > 0.5

    def test_compute_metrics_consistency(self):
        cfg = get_model("GPT-5B")
        m = compute_metrics(cfg, 64, 512, FRONTIER, batch_time=2.0)
        assert m.pflops == pytest.approx(m.total_flops / 1e15)
        assert m.pct_empirical_peak > m.pct_advertised_peak

    def test_default_global_batch_schedule(self):
        assert default_global_batch(512) == 1024
        assert default_global_batch(4096) == 8192
        assert default_global_batch(32768) == 8192  # capped at 16.8M tokens


class TestVariability:
    """Section VI-B's run-to-run variability, modeled: each submission
    of a job is one ``run_salt`` of the congestion jitter."""

    @staticmethod
    def submissions(runs):
        cfg = get_model("GPT-10B")
        return [
            simulate_iteration(
                cfg, 128, GridConfig(2, 1, 8, 4), FRONTIER, run_salt=salt
            ).total_time
            for salt in range(runs)
        ]

    def test_repeated_runs_vary(self):
        times = self.submissions(8)
        assert max(times) > min(times)  # real spread
        spread_pct = 100.0 * (max(times) - min(times)) / (sum(times) / len(times))
        assert 0 < spread_pct < 15  # a few percent, like the paper

    def test_variability_deterministic(self):
        assert self.submissions(4) == self.submissions(4)


class TestPlacementImpact:
    def test_block_placement_beats_round_robin(self):
        """The Section V-B hierarchy assumption quantified: scattering
        the inner process groups across nodes (round-robin ranks) slows
        the same configuration down substantially."""
        cfg = get_model("GPT-20B")
        c = GridConfig(8, 1, 4, 16)
        block = simulate_iteration(
            cfg, 1024, c, FRONTIER, overlap=OverlapFlags.all(), kernel_tuning=True
        )
        rr = simulate_iteration(
            cfg, 1024, c, FRONTIER, overlap=OverlapFlags.all(),
            kernel_tuning=True, placement_strategy="round_robin",
        )
        assert rr.total_time > block.total_time * 1.3

    def test_unknown_strategy_propagates(self):
        cfg = get_model("GPT-5B")
        with pytest.raises(ValueError):
            simulate_iteration(
                cfg, 32, GridConfig(2, 2, 2, 4), FRONTIER,
                placement_strategy="snake",
            )
