"""Failure model: MTBF math, checkpoint cost, goodput, Young/Daly.

Acceptance property: the expected-goodput curve's empirical optimum
must land within 10% of the Young/Daly closed form ``sqrt(2 C M)`` for
at least two machine specs.
"""

import math

import numpy as np
import pytest

from repro.cluster import ALPS, FRONTIER, PERLMUTTER
from repro.config import get_model
from repro.simulate import (
    FailureModel,
    checkpoint_time,
    expected_goodput,
    goodput_curve,
    optimal_checkpoint_interval,
    simulate_run,
    young_daly_interval,
)


class TestFailureModel:
    def test_job_mtbf_shrinks_with_node_count(self):
        fm = FailureModel(node_mtbf=1000.0)
        assert fm.job_mtbf(1) == pytest.approx(1000.0)
        assert fm.job_mtbf(100) == pytest.approx(10.0)
        assert fm.failure_rate(10) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureModel(node_mtbf=0.0)
        with pytest.raises(ValueError):
            FailureModel(straggler_prob=1.5)
        with pytest.raises(ValueError):
            FailureModel(straggler_slowdown=0.5)
        with pytest.raises(ValueError):
            FailureModel(restart_time=-1.0)


class TestCheckpointTime:
    def test_scales_with_model_size(self):
        small = checkpoint_time(get_model("GPT-20B"), FRONTIER, 1024)
        large = checkpoint_time(get_model("GPT-80B"), FRONTIER, 1024)
        assert large > small * 2

    def test_filesystem_caps_aggregate_bandwidth(self):
        cfg = get_model("GPT-20B")
        slow_fs = FailureModel(fs_bandwidth=1e9)
        fast_fs = FailureModel(fs_bandwidth=1e15)
        assert checkpoint_time(cfg, FRONTIER, 4096, slow_fs) > checkpoint_time(
            cfg, FRONTIER, 4096, fast_fs
        )
        # With an effectively infinite filesystem, more nodes write faster.
        assert checkpoint_time(cfg, FRONTIER, 4096, fast_fs) < checkpoint_time(
            cfg, FRONTIER, 512, fast_fs
        )


class TestYoungDaly:
    def test_closed_form(self):
        # sqrt(2 * 50 * 10000) = 1000
        assert young_daly_interval(50.0, 10000.0) == pytest.approx(1000.0)

    @pytest.mark.parametrize(
        "machine,num_gpus", [(PERLMUTTER, 512), (FRONTIER, 1024), (ALPS, 1024)]
    )
    def test_curve_optimum_matches_young_daly(self, machine, num_gpus):
        """The acceptance criterion: empirical argmax of the goodput
        curve within 10% of sqrt(2 C M) on multiple machine specs."""
        fm = FailureModel()
        cfg = get_model("GPT-20B")
        ckpt = checkpoint_time(cfg, machine, num_gpus, fm)
        nodes = num_gpus // machine.gpus_per_node
        mtbf = fm.job_mtbf(nodes)
        yd = young_daly_interval(ckpt, mtbf)
        emp = optimal_checkpoint_interval(ckpt, fm.restart_time, mtbf)
        assert abs(emp - yd) / yd < 0.10

    def test_goodput_decreases_away_from_optimum(self):
        ckpt, restart, mtbf = 30.0, 120.0, 3600.0
        yd = young_daly_interval(ckpt, mtbf)
        at_opt = expected_goodput(yd, ckpt, restart, mtbf)
        assert expected_goodput(yd / 10, ckpt, restart, mtbf) < at_opt
        assert expected_goodput(yd * 10, ckpt, restart, mtbf) < at_opt
        assert 0.0 < at_opt < 1.0

    def test_goodput_curve_matches_pointwise_eval(self):
        taus = [10.0, 100.0, 1000.0]
        curve = goodput_curve(taus, 30.0, 120.0, 3600.0)
        assert curve == [
            expected_goodput(t, 30.0, 120.0, 3600.0) for t in taus
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_goodput(0.0, 30.0, 120.0, 3600.0)
        with pytest.raises(ValueError):
            expected_goodput(10.0, 30.0, 120.0, 0.0)
        with pytest.raises(ValueError):
            young_daly_interval(0.0, 3600.0)


class TestStochasticRun:
    def test_seed_determinism(self):
        fm = FailureModel(node_mtbf=100 * 3600.0)
        a = simulate_run(10.0, 200, 10, 30.0, fm, num_nodes=64, seed=11)
        b = simulate_run(10.0, 200, 10, 30.0, fm, num_nodes=64, seed=11)
        assert a == b

    def test_no_failures_without_risk(self):
        fm = FailureModel(node_mtbf=1e15)  # effectively failure-free
        out = simulate_run(10.0, 100, 10, 30.0, fm, num_nodes=1, seed=0)
        assert out.failures == 0
        assert out.work_time == pytest.approx(1000.0)
        # Wall = work + 9 interior checkpoints (none after the last step).
        assert out.wall_time == pytest.approx(1000.0 + 9 * 30.0)

    def test_failures_cost_goodput(self):
        safe = FailureModel(node_mtbf=1e15)
        risky = FailureModel(node_mtbf=50 * 3600.0)
        a = simulate_run(10.0, 500, 10, 30.0, safe, num_nodes=256, seed=4)
        b = simulate_run(10.0, 500, 10, 30.0, risky, num_nodes=256, seed=4)
        assert b.failures > 0
        assert b.goodput < a.goodput
        assert b.work_time == pytest.approx(a.work_time)  # same committed work

    def test_stragglers_stretch_wall_time(self):
        calm = FailureModel(node_mtbf=1e15)
        stormy = FailureModel(
            node_mtbf=1e15, straggler_prob=0.5, straggler_slowdown=4.0
        )
        a = simulate_run(10.0, 100, 10, 0.001, calm, num_nodes=8, seed=2)
        b = simulate_run(10.0, 100, 10, 0.001, stormy, num_nodes=8, seed=2)
        assert b.straggler_hits > 0
        assert b.wall_time > a.wall_time

    def test_stochastic_goodput_near_expectation(self):
        """Long seeded replay lands in the neighbourhood of the renewal
        expectation (loose 15% band: one sample path, finite horizon)."""
        fm = FailureModel(node_mtbf=2000 * 3600.0, restart_time=120.0)
        nodes = 256
        mtbf = fm.job_mtbf(nodes)
        ckpt = 30.0
        tau = young_daly_interval(ckpt, mtbf)
        iters = max(1, round(tau / 10.0))
        out = simulate_run(
            10.0, 400 * iters, iters, ckpt, fm, num_nodes=nodes, seed=9
        )
        expect = expected_goodput(iters * 10.0, ckpt, fm.restart_time, mtbf)
        assert out.goodput == pytest.approx(expect, rel=0.15)


class TestGoodputReportCLI:
    def test_report_runs_and_mentions_young_daly(self, capsys):
        from repro.tools.goodput_report import main

        assert main(["GPT-20B", "512", "perlmutter", "frontier",
                     "--iter-time", "10"]) == 0
        out = capsys.readouterr().out
        assert "Young/Daly" in out
        assert "perlmutter" in out
        assert "frontier" in out
        assert "E[goodput]" in out


class TestElasticGoodput:
    """The elastic-continuation vs restart-and-wait strategy model."""

    def test_shrunken_throughput_properties(self):
        from repro.simulate import shrunken_throughput

        assert shrunken_throughput(256) == pytest.approx(255 / 256)
        assert shrunken_throughput(8, comm_penalty=0.25) == pytest.approx(
            0.875 * 0.75
        )
        with pytest.raises(ValueError):
            shrunken_throughput(1)
        with pytest.raises(ValueError):
            shrunken_throughput(8, comm_penalty=1.0)

    def test_elastic_goodput_monotone_in_replacement_wait(self):
        """Longer waits hurt both strategies, but elastic degrades
        gracefully (bounded by the shrunken-fraction loss) while
        restart-and-wait collapses."""
        from repro.simulate import (
            expected_elastic_goodput,
            expected_restart_goodput,
        )

        mtbf = 4 * 3600.0
        waits = [60.0, 600.0, 3600.0, 4 * 3600.0]
        elastic = [
            expected_elastic_goodput(600.0, 30.0, 120.0, mtbf, w, 0.9)
            for w in waits
        ]
        restart = [
            expected_restart_goodput(600.0, 30.0, 120.0, mtbf, w)
            for w in waits
        ]
        assert elastic == sorted(elastic, reverse=True)
        assert restart == sorted(restart, reverse=True)
        # Elastic can lose at most (1 - f) of the window to degradation.
        assert elastic[-1] > 0.8 * elastic[0]
        assert restart[-1] < 0.5 * restart[0]

    def test_zero_wait_elastic_still_pays_reshard(self):
        from repro.simulate import expected_elastic_goodput

        mtbf = 3600.0
        bound = 600.0 / 630.0  # checkpoint overhead alone
        el = expected_elastic_goodput(600.0, 30.0, 120.0, mtbf, 0.0, 0.9)
        assert el < bound  # the two reshard transitions are not free
        free = expected_elastic_goodput(600.0, 30.0, 0.0, mtbf, 0.0, 0.9)
        assert free == pytest.approx(bound)  # and they are the only cost

    def test_winner_flips_with_reshard_cost(self):
        """Elastic wins whenever resharding is cheap (buddy restores
        mean no rollback at all); only a prohibitively expensive
        reshard — rivaling the MTBF itself — hands the win back to
        restart-and-wait.  The simulator must express both regimes."""
        from repro.simulate import compare_recovery_strategies

        mtbf = 2 * 3600.0
        cheap = compare_recovery_strategies(
            600.0, 30.0, 120.0, mtbf, replacement_wait=3600.0,
            num_nodes=256, comm_penalty=0.0,
        )
        expensive = compare_recovery_strategies(
            600.0, 30.0, 120.0, mtbf, replacement_wait=0.0,
            num_nodes=16, comm_penalty=0.3, reshard_time=0.4 * mtbf,
        )
        assert cheap.winner == "elastic"
        assert cheap.advantage > 0.0
        assert expensive.winner == "restart"

    def test_validation(self):
        from repro.simulate import expected_elastic_goodput

        with pytest.raises(ValueError):
            expected_elastic_goodput(0.0, 30.0, 120.0, 3600.0)
        with pytest.raises(ValueError):
            expected_elastic_goodput(600.0, 30.0, 120.0, 3600.0,
                                     shrink_fraction=0.0)
        with pytest.raises(ValueError):
            expected_elastic_goodput(600.0, 30.0, -1.0, 3600.0)

    def test_report_cli_prints_strategy_comparison(self, capsys):
        from repro.tools.goodput_report import main

        assert main([
            "GPT-20B", "512", "perlmutter", "--iter-time", "10",
            "--node-mtbf-hours", "100", "--replacement-wait", "3600",
        ]) == 0
        out = capsys.readouterr().out
        assert "elastic" in out
        assert "restart-and-wait" in out
        assert "wins by" in out
