"""Serving simulator tests: analytic costs, the virtual-time loop, the
offered-load frontier, and the serve-report CLI."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.cluster import FRONTIER, PERLMUTTER
from repro.config import get_model
from repro.nn.generation import _TILE_QUERIES
from repro.perfmodel.hierarchical import choose_algorithm, clear_choice_cache
from repro.serving import BatchingConfig, Request, poisson_trace
from repro.simulate import serving as serving_sim
from repro.simulate.serving import (
    ServingModel,
    chaos_sweep,
    simulate_serving,
    sweep_offered_load,
)


def small_model(tp=4, algo="flat"):
    return ServingModel(get_model("GPT-5B"), FRONTIER, tp=tp,
                        collective_algo=algo)


class TestServingModelCosts:
    def test_costs_are_positive_and_scale(self):
        m = small_model()
        assert m.prefill_time(64) > 0
        assert m.prefill_time(128) > m.prefill_time(64)
        assert m.decode_step_time(1, 100) > 0
        # Longer context reads more KV.
        assert m.decode_step_time(1, 4000) > m.decode_step_time(1, 100)

    def test_decode_batching_amortizes_the_weight_stream(self):
        """8 sequences in one step must be far cheaper than 8 steps of
        1 — the roofline argument for continuous batching."""
        m = small_model()
        together = m.decode_step_time(8, 800)
        alone = 8 * m.decode_step_time(1, 100)
        assert together < alone / 2

    def test_tp_divides_memory_time(self):
        t1 = ServingModel(get_model("GPT-5B"), FRONTIER, tp=1)
        t8 = ServingModel(get_model("GPT-5B"), FRONTIER, tp=8)
        # More devices stream the weights faster, even after paying
        # the all-reduce the tp=1 instance avoids entirely.
        assert t8.decode_step_time(1, 100) < t1.decode_step_time(1, 100)

    def test_collective_algo_never_slows_the_step(self):
        """"auto" takes min(flat, hierarchical): it can only help."""
        cfg = get_model("GPT-20B")
        flat = ServingModel(cfg, PERLMUTTER, tp=8, collective_algo="flat")
        auto = ServingModel(cfg, PERLMUTTER, tp=8, collective_algo="auto")
        for batch in (1, 16, 64):
            assert auto.decode_step_time(batch, 100) <= (
                flat.decode_step_time(batch, 100)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingModel(get_model("GPT-5B"), FRONTIER, tp=0)
        with pytest.raises(ValueError):
            # GPT-5B has 32 heads; 5 does not divide them.
            ServingModel(get_model("GPT-5B"), FRONTIER, tp=5)


class TestSimulateServing:
    def _trace(self, rate, n=24, seed=0):
        return poisson_trace(rate, n, seed=seed, vocab_size=64,
                             prompt_lens=(16, 64), max_new_tokens=(8, 32))

    def test_deterministic(self):
        m = small_model()
        cfgb = BatchingConfig(max_batch=8, num_blocks=2048)
        a = simulate_serving(self._trace(2.0), m, cfgb)
        b = simulate_serving(self._trace(2.0), m, cfgb)
        assert a == b

    def test_memoized_selector_does_not_move_the_report(self, monkeypatch):
        """``_ar_time`` asks the memoized selector the same question
        every step.  On the bench probe's trace the report is field for
        field the same with the memo cold, warm and cleared — and with
        the unmemoized selector it replaced."""
        cfg = get_model("GPT-5B")
        trace = poisson_trace(4.0, 64, vocab_size=cfg.vocab_size)
        model = ServingModel(cfg, FRONTIER, tp=4)
        batching = BatchingConfig(max_batch=16)
        clear_choice_cache()
        cold = simulate_serving(trace, model, batching)
        warm = simulate_serving(trace, model, batching)
        clear_choice_cache()
        cleared = simulate_serving(trace, model, batching)
        monkeypatch.setattr(
            serving_sim, "cached_choose_algorithm", choose_algorithm
        )
        plain = simulate_serving(trace, model, batching)
        assert asdict(cold) == asdict(warm) == asdict(cleared) == asdict(plain)

    def test_all_requests_finish(self):
        m = small_model()
        res = simulate_serving(self._trace(4.0), m,
                               BatchingConfig(max_batch=8, num_blocks=2048))
        assert res.num_requests == 24
        assert res.generated_tokens == sum(
            r.max_new_tokens for r in self._trace(4.0)
        )
        assert res.makespan > 0
        assert res.p50_e2e <= res.p99_e2e
        assert res.p50_ttft <= res.p99_ttft
        assert 0.0 <= res.slo_attainment <= 1.0

    def test_load_raises_latency_and_throughput(self):
        """The frontier's defining shape: more offered load, more
        tokens/s, worse tail latency."""
        m = small_model()
        cfgb = BatchingConfig(max_batch=8, num_blocks=2048)
        lo, hi = sweep_offered_load(
            [0.2, 50.0], 24, m, cfgb, seed=0,
            prompt_lens=(16, 64), max_new_tokens=(8, 32),
        )
        assert hi.tokens_per_s > lo.tokens_per_s
        assert hi.p99_e2e > lo.p99_e2e
        assert hi.mean_batch > lo.mean_batch

    def test_saturation_breaks_the_slo(self):
        """A single-slot instance under heavy load must queue requests
        past the slowdown SLO."""
        m = small_model()
        res = simulate_serving(
            self._trace(200.0), m,
            BatchingConfig(max_batch=1, num_blocks=2048),
            slo_multiplier=2.0,
        )
        assert res.slo_attainment < 1.0
        assert res.mean_batch <= 1.0

    def test_sweep_holds_request_mix_fixed(self):
        m = small_model()
        cfgb = BatchingConfig(max_batch=8, num_blocks=2048)
        res = sweep_offered_load([0.5, 8.0], 12, m, cfgb, seed=3)
        assert res[0].generated_tokens == res[1].generated_tokens
        assert res[0].offered_load < res[1].offered_load

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            simulate_serving([], small_model())

    def test_head_of_line_semantics_match_engine(self):
        """The sim admits through the same ContinuousBatcher: a huge
        head request blocks later small ones even when they fit."""
        m = small_model()
        big = Request(0, np.ones(400, dtype=np.int64), 100, 0.0)
        small = Request(1, np.ones(4, dtype=np.int64), 4, 0.0)
        cfgb = BatchingConfig(max_batch=4, block_size=16, num_blocks=40)
        res = simulate_serving([big, small], m, cfgb)
        assert res.num_requests == 2
        # The small request cannot overtake: it finishes after the big
        # one started decoding, so its e2e includes the blocked wait.
        assert res.p99_e2e > res.p50_ttft


class TestOverloadSim:
    """Typed non-completions in the simulator: the satellite regression
    (nothing finishing must not crash) plus the shed/deadline paths."""

    def test_nothing_finishes_returns_zero_result(self):
        """Regression: a trace where every request is rejected used to
        die with ZeroDivisionError (slo_attainment) / ValueError
        (makespan max() over an empty finished list)."""
        m = small_model()
        reqs = [
            Request(i, np.ones(400, dtype=np.int64), 100, float(i))
            for i in range(3)
        ]
        res = simulate_serving(
            reqs, m, BatchingConfig(max_batch=4, block_size=16, num_blocks=8)
        )
        assert res.num_requests == 0
        assert res.rejected == 3
        assert res.generated_tokens == 0
        assert res.makespan == 0.0
        assert res.tokens_per_s == 0.0
        assert res.slo_attainment == 0.0
        assert res.p50_ttft == res.p99_e2e == 0.0

    def test_bounded_queue_sheds(self):
        m = small_model()
        reqs = [Request(i, np.ones(8, dtype=np.int64), 4, 0.0)
                for i in range(4)]
        res = simulate_serving(
            reqs, m,
            BatchingConfig(max_batch=1, block_size=16, num_blocks=64,
                           max_waiting=1),
        )
        assert res.num_requests == 1
        assert res.shed == 3

    def test_ttft_deadline_expires_queued_request(self):
        m = small_model()
        big = Request(0, np.ones(64, dtype=np.int64), 200, 0.0)
        late = Request(1, np.ones(8, dtype=np.int64), 4, 0.0)
        res = simulate_serving(
            [big, late], m,
            BatchingConfig(max_batch=1, block_size=16, num_blocks=64,
                           ttft_deadline=1e-6),
        )
        assert res.num_requests == 1
        assert res.deadline_exceeded == 1


class TestChaosSim:
    """MTBF-driven instance failures: graceful degradation, priced
    recompute, and determinism."""

    def _surface(self, mtbfs):
        m = small_model()
        cfgb = BatchingConfig(max_batch=8, num_blocks=2048)
        return chaos_sweep(
            [2.0], mtbfs, 24, m, cfgb,
            prompt_lens=(16, 64), max_new_tokens=(8, 32),
            restart_time=30.0,
        )

    def test_slo_degrades_monotonically_with_fault_rate(self):
        rows = self._surface([None, 10.0, 3.0])
        slo = [row[0].slo_attainment for row in rows]
        assert slo[0] == 1.0
        assert slo[0] >= slo[1] >= slo[2]
        assert slo[2] < 1.0

    def test_failures_preempt_and_charge_recompute(self):
        (row,) = self._surface([3.0])
        res = row[0]
        # Every request still completes — failures cost time, not
        # requests — and the lost KV is recomputed, not conjured.
        assert res.num_requests == 24
        assert res.instance_failures > 0
        assert res.preemptions >= res.instance_failures
        assert res.recompute_tokens > 0

    def test_fault_free_row_matches_plain_sweep(self):
        m = small_model()
        cfgb = BatchingConfig(max_batch=8, num_blocks=2048)
        (row,) = chaos_sweep(
            [2.0], [None], 24, m, cfgb,
            prompt_lens=(16, 64), max_new_tokens=(8, 32),
        )
        plain = sweep_offered_load(
            [2.0], 24, m, cfgb,
            prompt_lens=(16, 64), max_new_tokens=(8, 32),
        )
        assert row[0] == plain[0]

    def test_chaos_deterministic(self):
        a = self._surface([3.0])
        b = self._surface([3.0])
        assert a[0][0] == b[0][0]


class TestServeReportCLI:
    def test_end_to_end(self, tmp_path, capsys):
        from repro.tools.serve_report import main

        rc = main([
            "GPT-5B", "4", "frontier",
            "--rates", "0.5,4",
            "--num-requests", "12",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Serving frontier" in out
        assert "0 mismatches" in out
        doc = json.loads((tmp_path / "BENCH_serving_frontier.json").read_text())
        metrics = doc["metrics"]
        assert len(metrics["frontier"]) == 2
        assert metrics["tokens_per_s_max"] > 0
        assert metrics["engine_smoke"]["token_mismatches_vs_greedy"] == 0
        assert metrics["engine_smoke"]["paged_copied_bytes"] > 0
        # The smoke's prompts run the prefill attention in two tiles.
        assert metrics["engine_smoke"]["longest_prompt"] > _TILE_QUERIES

    def test_chaos_end_to_end(self, tmp_path, capsys):
        from repro.tools.serve_report import main

        rc = main([
            "GPT-5B", "4", "frontier",
            "--rates", "0.5,4",
            "--num-requests", "12",
            "--chaos", "--mtbfs", "inf,5",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Serving chaos surface" in out
        assert "0 mismatches" in out
        doc = json.loads((tmp_path / "BENCH_serving_chaos.json").read_text())
        metrics = doc["metrics"]
        assert len(metrics["surface"]) == 2
        assert metrics["surface"][0]["node_mtbf_s"] is None
        assert len(metrics["surface"][0]["results"]) == 2
        smoke = metrics["chaos_smoke"]
        assert smoke["token_mismatches_vs_greedy"] == 0
        assert smoke["finished"] == smoke["requests"]
        assert smoke["rank_failures"] >= 1
        assert smoke["step_timeouts"] >= 1
        assert smoke["preemptions"] >= 1

    def test_dispatcher_knows_serve_report(self):
        from repro.tools import SUBCOMMANDS

        assert "serve-report" in SUBCOMMANDS
