"""Tests for the unified planning / autotuning API (``repro.autotune``).

Covers the PR 9 acceptance criteria: seed-determinism of the search,
the winner never being slower than the pre-PR-9 top-k procedure,
agreement with the paper's hand-tuned weak-scaling shapes, the typed
``NoFeasibleConfigError``, the old positional signatures being gone
(``TypeError``), the facade exports, and the ``plan --optimize`` CLI.
"""

import dataclasses
import importlib
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
from repro.autotune.api import CandidateReport
from repro.config import get_model
from repro.core.grid import GridConfig, enumerate_grid_configs
from repro.kernels import clear_tuner_cache
from repro.perfmodel import (
    CommBreakdown,
    effective_bandwidths,
    gpt_layer_shapes,
    infeasibility_reason,
    layer_comm_time,
    model_comm_time,
    rank_configurations,
)
from repro.perfmodel.hierarchical import clear_choice_cache
from repro.perfmodel.seq_parallel import ring_kv_payload_bytes, seq_ring_time
from repro.simulate import (
    best_configuration,
    clear_caches,
    run_point,
    simulate_iteration,
)
from repro.simulate.engine import num_cached_timings
from repro.simulate.executor import OverlapFlags
from repro.telemetry import Tracer, telemetry_scope

from .test_sim_differential import FUZZED, GOLDEN_POINTS


def _clear_all_caches():
    clear_caches()
    clear_tuner_cache()
    clear_choice_cache()


def _reference_model_comm_time(cfg, global_batch, config, machine, db=None,
                               include_head=True):
    """``model_comm_time`` as it was before it priced each distinct layer
    shape once: Eqs. 1-5 evaluated for every layer of the stack."""
    betas = effective_bandwidths(config, machine, db)
    per_group = global_batch // config.gdata
    total = CommBreakdown()
    for layer in gpt_layer_shapes(cfg, per_group, include_head=include_head):
        total = total + layer_comm_time(layer, config, betas)
    if config.gs > 1:
        payload = ring_kv_payload_bytes(cfg, config, per_group, 2)
        total = total + CommBreakdown(
            ring_seq=cfg.num_layers
            * seq_ring_time(payload, config.gs, betas["seq"])
        )
    return total


def _reference_autotune(request, space):
    """The four stages of ``autotune`` driven the slow way — the oracle of
    the staged sweep: one ``simulate_iteration`` per (grid, knob combo),
    one ``_reference_model_comm_time`` per feasible grid.  Returns the
    same :class:`AutotuneReport` (``num_pricings`` and ``num_walks``
    aside: every simulation here prices and walks)."""
    cfg, machine = request.resolved_model(), request.resolved_machine()
    batch, db = request.resolved_batch(), request.resolved_db()
    all_configs = enumerate_grid_configs(
        request.num_gpus, max_gz=space.max_gz, max_gs=space.max_gs
    )
    infeasible, ranked = [], []
    for config in all_configs:
        why = infeasibility_reason(cfg, config, batch, machine)
        if why is not None:
            infeasible.append((config, why))
            continue
        bd = _reference_model_comm_time(cfg, batch, config, machine, db)
        ranked.append((config, bd.total))
    num_feasible = len(ranked)
    ranked.sort(key=lambda r: r[1])
    ranked = ranked[: space.prune_k]

    sim_memo = {}

    def simulate(config, overlap, kernel_tuning, algo):
        key = (config.full_dims, overlap, kernel_tuning, algo)
        if key not in sim_memo:
            sim_memo[key] = simulate_iteration(
                cfg, batch, config, machine,
                overlap=overlap, kernel_tuning=kernel_tuning,
                collective_algo=algo, run_salt=request.seed, timing_only=True,
            )
        return sim_memo[key]

    reference = space.reference_combo(request)
    screened = [
        (rank, simulate(config, *reference).total_time, config, predicted)
        for rank, (config, predicted) in enumerate(ranked, start=1)
    ]
    survivors = sorted(screened, key=lambda s: (s[1], s[0]))
    survivors = survivors[: space.resolved_validate_k(request)]

    candidates, best = [], None
    for rank, screen_time, config, predicted in survivors:
        cand_best = None
        for combo in space.combos():
            res = simulate(config, *combo)
            if cand_best is None or res.total_time < cand_best[0]:
                cand_best = (res.total_time, combo, res)
        best_time, (b_ov, b_kt, b_algo), b_res = cand_best
        report = CandidateReport(
            config=config, analytic_rank=rank, predicted_comm_time=predicted,
            screen_time=screen_time, best_time=best_time, best_overlap=b_ov,
            best_kernel_tuning=b_kt, best_collective_algo=b_algo,
            algo_choices=dict(b_res.algo_choices),
        )
        candidates.append(report)
        if best is None or best_time < best[0]:
            best = (best_time, report, b_res)
    _, win, win_res = best
    candidates.sort(key=lambda c: (c.best_time, c.analytic_rank))
    winner = TunedJobConfig(
        model=cfg.name, machine=machine.name, num_gpus=request.num_gpus,
        global_batch=batch,
        config=GridConfig(
            *win.config.full_dims,
            collective_algo=win.best_collective_algo or "flat",
        ),
        overlap=win.best_overlap, kernel_tuning=win.best_kernel_tuning,
        collective_algo=win.best_collective_algo,
        predicted_comm_time=win.predicted_comm_time,
        simulated_time=win.best_time, tuning_speedup=win_res.tuning_speedup,
        algo_choices=dict(win_res.algo_choices),
    )
    return AutotuneReport(
        request=request, space=space, winner=winner, winner_result=win_res,
        ranked=candidates, rank1_sim_time=screened[0][1],
        infeasible=infeasible, num_enumerated=len(all_configs),
        num_feasible=num_feasible, num_simulations=len(sim_memo),
    )


def _untimed(report):
    doc = report.to_json()
    for key in ("elapsed_s", "configs_per_second", "num_pricings",
                "num_walks", "stage_s"):
        del doc[key]
    return doc


class TestStagedSweepOracle:
    """``autotune`` composes the simulator's stages itself; the report
    must be the one the per-(grid, combo) ``simulate_iteration`` driver
    builds — every float by ``==``."""

    _5B_64 = dict(model="GPT-5B", num_gpus=64, machine="perlmutter",
                  global_batch=128)
    PAIRS = {
        "default": (PlanRequest(**_5B_64), SearchSpace()),
        "default-frontier-seed": (
            PlanRequest("GPT-5B", 128, "frontier", 256, seed=5),
            SearchSpace(),
        ),
        # ``collective_algo=None`` defers to each grid's own algorithm:
        # pricing is keyed on the resolved one.
        "pinned-algo-none": (PlanRequest(**_5B_64, top_k=5), "pinned"),
        "algo-none-beside-hierarchical": (
            PlanRequest(**_5B_64),
            SearchSpace(prune_k=6, validate_k=3,
                        collective_algos=(None, "hierarchical")),
        ),
        "max_gs": (
            PlanRequest("GPT-5B", 64, "frontier", 128, seed=2),
            SearchSpace(prune_k=12, validate_k=4, max_gs=4),
        ),
        "max_gz": (
            PlanRequest("GPT-5B", 256, "frontier"),
            SearchSpace(prune_k=8, validate_k=3, max_gz=2),
        ),
        "prune_k": (PlanRequest(**_5B_64), SearchSpace(prune_k=3)),
        "one-overlap": (
            PlanRequest("GPT-10B", 256, "alps", 512),
            SearchSpace(prune_k=8, validate_k=4,
                        overlap_flags=(OverlapFlags(ors=True),)),
        ),
        "validate_k": (
            PlanRequest(**_5B_64, seed=11), SearchSpace(validate_k=1)
        ),
        # The two that catch a price set outliving its key: untuned
        # before tuned (stale tuned prices only ever tie), and one kernel
        # mode (with two, the mode flips at every algorithm boundary).
        "untuned-first": (
            PlanRequest("GPT-5B", 128, "frontier", 256),
            SearchSpace(prune_k=8, validate_k=4, kernel_tuning=(False, True)),
        ),
        "one-kernel-mode": (
            PlanRequest(**_5B_64),
            SearchSpace(prune_k=8, validate_k=4, kernel_tuning=(True,)),
        ),
        # The bound is the walk of the union of the space's subsets: here
        # OAR alone, a member, and never all-on.
        "no-all-on-subset": (
            PlanRequest(**_5B_64),
            SearchSpace(
                prune_k=8, validate_k=4,
                overlap_flags=(OverlapFlags(), OverlapFlags(oar=True)),
            ),
        ),
        # All-on first: every group the bound does not rule out stops
        # after its first subset.
        "all-on-first": (
            PlanRequest("GPT-5B", 128, "frontier", 256, seed=3),
            SearchSpace(prune_k=8, validate_k=4,
                        overlap_flags=ALL_OVERLAP_COMBOS[::-1]),
        ),
    }

    @pytest.mark.parametrize("name", PAIRS)
    def test_report_equals_reference_driver(self, name):
        request, space = self.PAIRS[name]
        if space == "pinned":
            space = SearchSpace.pinned(request)
            assert space.collective_algos == (None,)
        got, ref = autotune(request, space), _reference_autotune(request, space)
        assert _untimed(got) == _untimed(ref)
        assert got.winner_result == ref.winner_result
        assert got.winner == ref.winner
        assert got.ranked == ref.ranked
        assert got.infeasible == ref.infeasible
        assert got.num_simulations == ref.num_simulations
        assert 1 <= got.num_walks <= got.num_simulations

    def test_num_pricings_counts_price_stage_runs(self):
        """Default space, GPT-5B on 512 GPUs.  494 (grid, combo) results
        decided: 24 screenings, then 10 survivors x 48 combos less the
        screened one.

        70 pricings: the 24 screenings, then 46 over the survivors.  3 of
        them have no two-level timing, so the algorithm is moot and their
        6 (algorithm x kernel mode) groups share 2 price sets.  The other
        7 price each group they reach, 40 of 42: on two of them the
        screen's walk rules the tuned ``auto`` group out unpriced.

        142 walks: the 24 screenings, then 118.  41 are the groups'
        all-on bound walks, one per price set less the 5 whose all-on
        result the screen holds.  77 are subsets walked in order in the
        17 groups the bound does not rule out (43 of the 60 are), each
        stopping at the first subset that ties all-on."""
        request = PlanRequest("GPT-5B", 512, "perlmutter")
        tracer = Tracer()
        with telemetry_scope(tracer):
            report = autotune(request)
        (sweep,) = [s for s in tracer.spans if s.name == "autotune.sweep"]
        assert len(report.ranked) == 10
        assert report.num_simulations == 24 + 10 * 48 - 10 == 494
        assert report.num_pricings == 24 + 3 * 2 + 40 == 70
        assert report.num_walks == 24 + 41 + 77 == 142
        assert sweep.args["groups_bounded"] == 10 * 6 - 17 == 43
        doc = report.to_json()
        assert (doc["num_pricings"], doc["num_walks"]) == (70, 142)
        pinned = autotune(request, SearchSpace.pinned(request))
        assert pinned.num_simulations == 10
        assert pinned.num_pricings == pinned.num_walks == 10

    @pytest.mark.parametrize("include_head", [True, False])
    def test_model_comm_time_equals_per_layer_loop(self, include_head):
        """Each distinct layer shape is priced once and its fields are
        summed in six float accumulators; every field of the breakdown
        equals the per-layer loop's, bit for bit (``float.hex``, so a
        ``-0.0`` would show), over the differential corpus' grids and
        sequence-parallel ones."""
        points = {
            (machine, GridConfig(*dims), model, batch)
            for machine, dims, _, _, model, batch, *_ in FUZZED
        }
        model = FUZZED[0][4]
        points |= {(m, c, model, 4 * c.gdata) for m, c, _ in GOLDEN_POINTS}
        gpt = get_model("GPT-5B")
        points |= {
            (GOLDEN_POINTS[0][0], GridConfig(*dims), gpt, 64)
            for dims in [(2, 2, 2, 2, 2), (4, 1, 2, 1, 4), (1, 2, 1, 4, 8)]
        }
        assert len({c for _, c, _, _ in points if c.gs > 1}) >= 2
        for machine, config, model, batch in points:
            got = model_comm_time(
                model, batch, config, machine, include_head=include_head
            )
            ref = _reference_model_comm_time(
                model, batch, config, machine, include_head=include_head
            )
            assert [f.hex() for f in dataclasses.astuple(got)] == [
                f.hex() for f in dataclasses.astuple(ref)
            ]


#: The autotune funnel's stages, in order.
STAGES = ("enumerate", "rank", "screen", "sweep")


class TestStageTimers:
    """The funnel's four stages are timed into ``stage_s`` and, under a
    tracer, recorded as ``autotune.<stage>`` spans."""

    def test_four_spans_per_call_with_report_counts(self):
        request = PlanRequest("GPT-5B", 64, "perlmutter", 128)
        tracer = Tracer()
        clear_caches()
        with telemetry_scope(tracer):
            reports = [autotune(request)]
            measured = num_cached_timings()
            reports.append(autotune(request.replace(seed=1)))
        spans = [s for s in tracer.spans if s.cat == "autotune"]
        assert [s.name for s in spans] == [
            f"autotune.{k}" for k in STAGES
        ] * 2
        # Price groups the sweep's bound rules out, per seed.
        bounded = (43, 45)
        for report, (enum, rank, screen, sweep), groups_bounded in zip(
            reports, (spans[:4], spans[4:]), bounded
        ):
            assert enum.args == {"candidates_in": report.num_enumerated,
                                 "candidates_out": report.num_feasible}
            pruned = min(report.num_feasible, SearchSpace().prune_k)
            assert rank.args == {"candidates_in": report.num_feasible,
                                 "candidates_out": pruned}
            # Every screened grid and every survivor assembles its job
            # inputs once; the link timings are measured by the first
            # call's stages and all read back by the second's.
            links = (screen.args.pop("link_timings_measured"),
                     sweep.args.pop("link_timings_measured"))
            if report is reports[0]:
                assert links[0] > 0 and sum(links) == measured
            else:
                assert links == (0, 0)
            assert screen.args == {"candidates_in": pruned,
                                   "candidates_out": len(report.ranked),
                                   "inputs_assembled": pruned}
            assert sweep.args == {
                "candidates_in": len(report.ranked), "candidates_out": 1,
                "num_simulations": report.num_simulations,
                "num_pricings": report.num_pricings,
                "num_walks": report.num_walks,
                "groups_bounded": groups_bounded,
                "inputs_assembled": len(report.ranked),
            }
            assert list(report.stage_s) == list(STAGES)
            assert sum(report.stage_s.values()) <= report.elapsed_s
            assert report.to_json()["stage_s"] == report.stage_s

    def test_untraced_call_still_times_every_stage(self, monkeypatch):
        # Without a tracer the memo hit rates are not even read.
        search = importlib.import_module("repro.autotune.search")
        monkeypatch.setattr(search, "num_cached_timings", lambda: 1 / 0)
        report = autotune(PlanRequest("GPT-5B", 64, "perlmutter", 128))
        assert all(v > 0 for v in report.stage_s.values())
        assert list(report.stage_s) == list(STAGES)


class TestMaxGz:
    """``SearchSpace.max_gz`` bounds the ranking stage too (it used to
    bound only the enumerated / infeasible counts)."""

    def test_ranked_and_winner_respect_max_gz(self):
        request = PlanRequest("GPT-5B", 256, "frontier")
        report = autotune(request, SearchSpace(max_gz=2))
        assert report.winner.config.gz <= 2
        assert report.ranked and all(c.config.gz <= 2 for c in report.ranked)
        restricted = enumerate_grid_configs(256, max_gz=2)
        assert report.num_enumerated == len(restricted) == 81
        assert report.num_feasible == sum(
            infeasibility_reason(
                request.resolved_model(), c, request.resolved_batch(),
                request.resolved_machine(),
            ) is None
            for c in restricted
        ) == 71
        # Without the bound the same job does pick a deeper Z.
        assert autotune(request).winner.config.gz > 2


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
        assert 0 < 4 * m["autotune.num_pricings"] <= m["autotune.num_simulations"]
        assert 1 <= m["autotune.num_walks"] <= m["autotune.num_simulations"]
        assert m["autotune.configs_per_second"] > 0
        stages = [m[f"autotune.stage_s.{k}"] for k in STAGES]
        assert 0 < sum(stages) <= m["autotune.elapsed_s"]
        assert "stage wall time: enumerate" in out

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
        # Identical modulo the wall-clock/rate lines.
        strip = lambda s: [
            l for l in s.splitlines()
            if "configs/s" not in l and "stage wall time" not in l
        ]
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
