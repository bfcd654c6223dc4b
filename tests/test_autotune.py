"""Tests for the unified planning / autotuning API (``repro.autotune``).

Covers the PR 9 acceptance criteria: seed-determinism of the search,
the winner never being slower than the pre-PR-9 top-k procedure,
agreement with the paper's hand-tuned weak-scaling shapes, the typed
``NoFeasibleConfigError``, the old positional signatures being gone
(``TypeError``), the facade exports, and the ``plan --optimize`` CLI.
"""

import json
import warnings

import pytest

import repro
from repro.autotune import (
    ALL_OVERLAP_COMBOS,
    AutotuneReport,
    NoFeasibleConfigError,
    PlanRequest,
    SearchSpace,
    TunedJobConfig,
    autotune,
)
from repro.config import get_model
from repro.kernels import clear_tuner_cache
from repro.perfmodel import rank_configurations
from repro.perfmodel.hierarchical import clear_choice_cache
from repro.simulate import best_configuration, clear_caches, run_point
from repro.simulate.executor import OverlapFlags


def _clear_all_caches():
    clear_caches()
    clear_tuner_cache()
    clear_choice_cache()


class TestPlanRequest:
    def test_resolves_names(self):
        req = PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter")
        assert req.resolved_model().name == "GPT-5B"
        assert req.resolved_machine().name == "perlmutter"
        assert req.resolved_batch() > 0
        assert req.resolved_overlap() == OverlapFlags.all()

    def test_accepts_objects(self):
        cfg = get_model("GPT-5B")
        req = PlanRequest(model=cfg, num_gpus=64, machine="frontier",
                          global_batch=128)
        assert req.resolved_model() is cfg
        assert req.resolved_batch() == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanRequest(model="GPT-5B", num_gpus=0, machine="perlmutter")
        with pytest.raises(ValueError):
            PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter",
                        top_k=0)
        with pytest.raises(TypeError, match="engine"):
            PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter",
                        engine="vectorized")
        with pytest.raises(ValueError):
            PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter",
                        collective_algo="ring")

    def test_replace(self):
        req = PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter")
        req2 = req.replace(num_gpus=128)
        assert req2.num_gpus == 128
        assert req2.model == req.model


class TestSearchSpace:
    def test_default_space_covers_all_knobs(self):
        space = SearchSpace()
        assert space.overlap_flags == ALL_OVERLAP_COMBOS
        assert len(ALL_OVERLAP_COMBOS) == 8
        assert set(space.kernel_tuning) == {True, False}
        assert set(space.collective_algos) == {"flat", "hierarchical", "auto"}
        combos = space.combos()
        assert len(combos) == 8 * 2 * 3
        assert len(set(combos)) == len(combos)

    def test_pinned_replicates_request_knobs(self):
        req = PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter",
                          top_k=7, kernel_tuning=False,
                          collective_algo="hierarchical")
        space = SearchSpace.pinned(req)
        assert space.prune_k == 7
        assert space.resolved_validate_k(req) == 7
        assert space.combos() == [
            (req.resolved_overlap(), False, "hierarchical")
        ]

    def test_reference_combo_is_most_optimistic(self):
        req = PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter")
        overlap, tuned, algo = SearchSpace().reference_combo(req)
        assert overlap == OverlapFlags.all()
        assert tuned is True
        assert algo == "auto"


class TestAutotuneDeterminism:
    def test_bitwise_same_winner_across_runs(self):
        req = PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter",
                          global_batch=128, top_k=4, seed=3)
        space = SearchSpace(prune_k=8, validate_k=4)
        _clear_all_caches()
        a = autotune(req, space)
        _clear_all_caches()
        b = autotune(req, space)
        assert a.winner.config == b.winner.config
        assert a.winner.simulated_time == b.winner.simulated_time
        assert a.winner.overlap == b.winner.overlap
        assert a.winner.collective_algo == b.winner.collective_algo
        assert [c.config for c in a.ranked] == [c.config for c in b.ranked]
        assert [c.best_time for c in a.ranked] == [c.best_time for c in b.ranked]

    def test_seed_changes_jitter_not_structure(self):
        req = PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter",
                          global_batch=128, top_k=3)
        a = autotune(req, SearchSpace.pinned(req))
        b = autotune(req.replace(seed=17), SearchSpace.pinned(req))
        assert a.num_feasible == b.num_feasible
        assert a.winner.simulated_time != b.winner.simulated_time


class TestWinnerNeverSlower:
    GOLDEN = [
        ("GPT-5B", 64, "perlmutter", 128),
        ("GPT-5B", 128, "frontier", 256),
        ("GPT-10B", 256, "alps", 512),
    ]

    @pytest.mark.parametrize("model,gpus,machine,batch", GOLDEN)
    def test_full_space_beats_pr6_topk(self, model, gpus, machine, batch):
        req = PlanRequest(model=model, num_gpus=gpus, machine=machine,
                          global_batch=batch, top_k=5)
        _, ref = best_configuration(req)
        report = autotune(req, SearchSpace(prune_k=8, validate_k=5))
        assert report.winner.simulated_time <= ref.total_time

    def test_pinned_space_matches_pr6_bitwise(self):
        req = PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter",
                          global_batch=128, top_k=5)
        cfg, ref = best_configuration(req)
        report = autotune(req, SearchSpace.pinned(req))
        assert report.winner.config == cfg
        assert report.winner.simulated_time == ref.total_time


class TestHandTunedAgreement:
    """The autotuner must agree with the paper's §V-B procedure — the
    hand-tuned weak-scaling shapes — at the paper's own scales: never
    slower, and never claiming more than a modest win over them."""

    POINTS = [
        ("GPT-10B", 1024, "perlmutter"),
        ("GPT-20B", 1024, "frontier"),
        ("GPT-40B", 4096, "perlmutter"),
        ("GPT-40B", 4096, "frontier"),
    ]

    @pytest.mark.parametrize("model,gpus,machine", POINTS)
    def test_agreement_within_tolerance(self, model, gpus, machine):
        req = PlanRequest(model=model, num_gpus=gpus, machine=machine)
        ref = autotune(req, SearchSpace.pinned(req))
        report = autotune(req, SearchSpace(prune_k=16, validate_k=6))
        win = report.winner.simulated_time
        hand = ref.winner.simulated_time
        assert win <= hand
        # Tolerance: the full knob sweep may not beat the paper's
        # hand-tuned pick by more than 35% — a bigger gap would mean the
        # analytic model and the simulator disagree about the space.
        assert hand <= 1.35 * win
        # And the winning grid must be feasible at the paper's scale.
        assert report.winner.config.total == gpus


class TestNoFeasibleConfigError:
    def test_raises_with_reasons(self):
        req = PlanRequest(model="GPT-640B", num_gpus=8, machine="perlmutter",
                          global_batch=8)
        with pytest.raises(NoFeasibleConfigError) as exc:
            autotune(req)
        err = exc.value
        assert isinstance(err, ValueError)  # old handlers keep working
        assert err.reasons
        assert all(isinstance(v, str) and v for v in err.reasons.values())
        assert any("fit" in v for v in err.reasons.values())
        assert "no feasible" in str(err)

    def test_cli_prints_reasons(self, capsys):
        from repro.tools import plan

        rc = plan.main(["GPT-640B", "8", "perlmutter", "--batch", "8"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "no feasible configuration" in out
        assert "fit" in out

    def test_old_library_path_raises_same_error(self):
        with pytest.raises(NoFeasibleConfigError):
            best_configuration(
                PlanRequest(model=get_model("GPT-640B"), num_gpus=8,
                            machine="perlmutter", global_batch=8)
            )


class TestDeprecationShims:
    """The pre-PR-9 positional signatures are deleted, not deprecated."""

    def test_best_configuration_positional_raises(self):
        with pytest.raises(TypeError):
            best_configuration(get_model("GPT-5B"), 128, 64, "perlmutter")
        with pytest.raises(TypeError):
            best_configuration(get_model("GPT-5B"), num_gpus=64)

    def test_run_point_positional_raises(self):
        with pytest.raises(TypeError):
            run_point("GPT-5B", 64, "perlmutter")
        with pytest.raises(TypeError):
            run_point("GPT-5B", 64, "perlmutter", global_batch=128)

    def test_rank_configurations_positional_extras_raise(self):
        cfg = get_model("GPT-5B")
        with pytest.raises(TypeError):
            rank_configurations(cfg, 128, 64, "perlmutter", None, 5)
        assert len(
            rank_configurations(cfg, 128, 64, "perlmutter", max_configs=5)
        ) == 5

    def test_new_paths_do_not_warn(self):
        req = PlanRequest(model="GPT-5B", num_gpus=64, machine="perlmutter",
                          global_batch=128, top_k=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            best_configuration(req)
            run_point(req)
            rank_configurations(req)
            rank_configurations(get_model("GPT-5B"), 128, 64, "perlmutter")


class TestFacadeExports:
    def test_all_new_symbols_in_repro_all(self):
        for name in ("autotune", "PlanRequest", "SearchSpace",
                     "TunedJobConfig", "AutotuneReport",
                     "NoFeasibleConfigError"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_blessed_entry_point(self):
        report = repro.autotune(
            repro.PlanRequest(model="GPT-5B", num_gpus=64,
                              machine="perlmutter", global_batch=128,
                              top_k=3)
        )
        assert isinstance(report, AutotuneReport)
        assert isinstance(report.winner, TunedJobConfig)
        assert report.winner.simulated_time > 0

    def test_autotune_rejects_non_request(self):
        with pytest.raises(TypeError):
            autotune("GPT-5B")


class TestPlanOptimizeCLI:
    def test_optimize_end_to_end(self, capsys, tmp_path):
        from repro.tools import plan

        rc = plan.main([
            "GPT-5B", "64", "perlmutter", "--batch", "128",
            "--optimize", "--top", "4", "--prune-k", "8",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "configs/s" in out
        bench = json.loads((tmp_path / "BENCH_autotune.json").read_text())
        m = bench["metrics"]
        assert m["autotune.winner_time_s"] <= m["autotune.rank1_sim_time_s"]
        assert m["autotune.num_simulations"] > 0
        assert m["autotune.configs_per_second"] > 0

    def test_optimize_deterministic_output(self, capsys):
        from repro.tools import plan

        argv = ["GPT-5B", "64", "perlmutter", "--batch", "128",
                "--optimize", "--top", "3", "--prune-k", "6"]
        _clear_all_caches()
        plan.main(argv)
        first = capsys.readouterr().out
        _clear_all_caches()
        plan.main(argv)
        second = capsys.readouterr().out
        # Identical modulo the wall-clock/rate line.
        strip = lambda s: [l for l in s.splitlines() if "configs/s" not in l]
        assert strip(first) == strip(second)


class TestSharedCLIFlags:
    CLIS = [
        ("plan", ["GPT-5B", "64", "perlmutter"]),
        ("sweep", ["strong", "GPT-5B", "perlmutter", "64"]),
        ("goodput_report", ["GPT-5B", "64"]),
        ("serve_report", ["GPT-5B", "4"]),
    ]

    @pytest.mark.parametrize("mod,_", CLIS)
    def test_help_lists_shared_flags(self, mod, _, capsys):
        import importlib

        main = importlib.import_module(f"repro.tools.{mod}").main
        argv = ["strong", "--help"] if mod == "sweep" else ["--help"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--collective-algo", "--seed", "--out"):
            assert flag in out, f"{mod} missing {flag}"
        assert "--engine" not in out

    @pytest.mark.parametrize("mod,argv", CLIS)
    def test_engine_flag_rejected(self, mod, argv, capsys):
        """``--engine`` is gone from all four CLIs (``serve-report`` used
        to accept and ignore it): argparse's usage error, rc 2."""
        import importlib

        main = importlib.import_module(f"repro.tools.{mod}").main
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--engine", "scalar"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err
