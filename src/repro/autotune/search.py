"""The end-to-end configuration autotuner (ROADMAP item 3).

Composes the subsystems that until now were driven by hand, the way the
paper's §VI methodology hand-tunes each headline run:

1. **Enumerate** every 4-factorization of the GPU count
   (:func:`repro.core.grid.enumerate_grid_configs`) and reject infeasible
   grids with the divisibility + memory model, keeping the reason each
   candidate died (:func:`repro.perfmodel.infeasibility_reason`).
2. **Prune** the survivors with the analytic communication model
   (Eqs. 1-7 via :func:`repro.perfmodel.rank_grids`) to the space's
   ``prune_k`` best-predicted grids.
3. **Screen** each pruned survivor with one ``timing_only``
   simulation under the space's reference knobs, keeping ``validate_k``.
4. **Sweep** the full (overlap subset x GEMM kernel-mode tuning x
   flat/hierarchical/auto collective routing) knob cross-product over the
   screened grids, again with ``timing_only`` simulation, and emit the
   winning :class:`~repro.autotune.api.TunedJobConfig` plus the ranked
   :class:`~repro.autotune.api.AutotuneReport`.

Stages 3-4 compose the simulator's own stages
(:mod:`repro.simulate.executor`) rather than calling
``simulate_iteration`` per combination: per grid the job inputs are
assembled once, per (kernel mode, resolved collective algorithm) the
iteration is priced at most once, and only the stream walk and the
jitter run per overlap subset.  One grid's inputs, price sets, walks
and results are held at a time; the screened result of each grid is
the only one that outlives its stage.

The sweep is branch-and-bound.  ``schedule_iteration`` is monotone in
every overlap flag (a flag only drops a ``max()`` wait, and IEEE add,
``max`` and multiplication by a positive factor are monotone), so the
walk of the union of the space's overlap subsets — all-on by default —
is a lower bound on every subset priced alike, after the jitter and
the compute floor too.  Per grid, each (kernel mode, algorithm) group
of ``combos()`` walks that bound first.  A group whose bound is not
strictly below the grid's best so far is skipped (the best moves only
on a strict ``<``); any other walks its subsets in order and stops at
the first that ties the bound.  The report is the exhaustive sweep's,
bit for bit.

Observability: the four stages (``enumerate``, ``rank``, ``screen``,
``sweep``) are timed into :attr:`AutotuneReport.stage_s`, and under an
active tracer each is an ``autotune.<stage>`` span (``cat="autotune"``)
with its candidates in and out.  The screen and sweep spans add the
stage's ``inputs_assembled`` (grids whose job inputs it built) and
``link_timings_measured`` (per-axis link timings the engine had not
memoized yet); the sweep span also carries the run's
``num_simulations``, ``num_pricings`` and ``num_walks``, and
``groups_bounded`` (knob groups the bound skipped).

Determinism: the whole pipeline is a pure function of the request and
space — enumeration order, stable sorts, and strict-``<`` winner updates
fix every tie-break, and the simulator's jitter is a seeded sha256
hash.  Same inputs, bitwise-same winner.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from contextlib import contextmanager
from itertools import groupby

from ..core.grid import GridConfig, enumerate_grid_configs, infeasibility_reason
from ..perfmodel.configs import rank_grids
from ..simulate.engine import num_cached_timings
from ..simulate.executor import (
    DEFAULT_NOISE,
    IterationPrices,
    IterationResult,
    OverlapFlags,
    job_inputs,
    price_iteration,
    schedule_iteration,
    summarise_iteration,
)
from ..telemetry.spans import get_tracer
from .api import (
    AutotuneReport,
    CandidateReport,
    NoFeasibleConfigError,
    PlanRequest,
    SearchSpace,
    TunedJobConfig,
)

__all__ = ["autotune"]

#: One knob setting: (overlap subset, kernel tuning, collective algo).
Combo = tuple[OverlapFlags, bool, str | None]


@contextmanager
def _stage(stage_s: dict[str, float], name: str):
    """Time one funnel stage into ``stage_s[name]`` (wall seconds).

    Under an active tracer the stage is also an ``autotune.<name>`` span
    (``cat="autotune"``) and the body fills its args through the yielded
    dict; without one the body gets ``None`` and the only telemetry cost
    is the :func:`get_tracer` read."""
    tracer = get_tracer()
    t0 = time.perf_counter()
    if tracer is None:
        yield None
    else:
        args: dict = {}
        with tracer.span(f"autotune.{name}", cat="autotune", args=args):
            yield args
    stage_s[name] = time.perf_counter() - t0


def autotune(
    request: PlanRequest, space: SearchSpace | None = None
) -> AutotuneReport:
    """Search the (grid x algorithm x kernel x overlap) space for the
    fastest configuration of ``request``'s job.

    Raises :class:`~repro.autotune.api.NoFeasibleConfigError` (with the
    per-candidate infeasibility reasons) when no grid can run the job.
    """
    if not isinstance(request, PlanRequest):
        raise TypeError(
            f"autotune() takes a PlanRequest, got {type(request).__name__}; "
            "build one with repro.PlanRequest(model, num_gpus, machine)"
        )
    if space is None:
        space = SearchSpace()
    t0 = time.perf_counter()
    cfg = request.resolved_model()
    machine = request.resolved_machine()
    batch = request.resolved_batch()
    db = request.resolved_db()
    stage_s: dict[str, float] = {}

    # Stages 1-2: enumerate, one feasibility pass, analytic pruning
    # (Eqs. 1-7) of the grids that can run.
    with _stage(stage_s, "enumerate") as span_args:
        all_configs = enumerate_grid_configs(
            request.num_gpus, max_gz=space.max_gz, max_gs=space.max_gs
        )
        runnable: list[GridConfig] = []
        infeasible: list[tuple[GridConfig, str]] = []
        for config in all_configs:
            why = infeasibility_reason(cfg, config, batch, machine)
            if why is None:
                runnable.append(config)
            else:
                infeasible.append((config, why))
        if span_args is not None:
            span_args.update(
                candidates_in=len(all_configs), candidates_out=len(runnable)
            )
    if not runnable:
        raise NoFeasibleConfigError(
            f"no feasible configuration for {cfg.name} on "
            f"{request.num_gpus} devices of {machine.name} "
            f"(batch {batch}; {len(infeasible)} candidates rejected)",
            reasons={str(c): why for c, why in infeasible},
        )
    with _stage(stage_s, "rank") as span_args:
        ranked = rank_grids(cfg, batch, runnable, machine, db)[: space.prune_k]
        if span_args is not None:
            span_args.update(
                candidates_in=len(runnable), candidates_out=len(ranked)
            )

    num_sims = num_pricings = num_walks = num_inputs = 0

    def knob_results(
        config: GridConfig,
        combos: list[Combo],
        known: dict[Combo, IterationResult],
    ) -> Callable[[Combo], IterationResult]:
        """The timing-only result of any of ``combos`` on one grid, as a
        function; ``known`` holds results already decided.

        What ``simulate_iteration(..., timing_only=True)`` returns for
        each under its defaults (block placement, checkpointing on, no
        straggler slowdown, default noise), from the same stages.  The
        grid's job inputs are assembled at the first miss.  A price set
        is keyed by the knobs pricing can see: the algorithm is moot
        without a two-level timing, the kernel mode when every shape's
        tuned GEMM times equal its default ones.  A walk is keyed by the
        overlap flags it reads: a flag whose stream carries no positive
        duration never is.
        """
        inputs = None
        tuned_differs = two_level = False
        price_sets: dict[tuple, tuple[IterationPrices, tuple, dict]] = {}

        def result(combo: Combo) -> IterationResult:
            nonlocal num_pricings, num_walks, num_inputs
            nonlocal inputs, tuned_differs, two_level
            res = known.get(combo)
            if res is not None:
                return res
            overlap, kernel_tuning, algo = combo
            if inputs is None:
                num_inputs += 1
                inputs = job_inputs(
                    cfg, batch, config, machine,
                    placement_strategy="block",
                    hierarchical=any(
                        (a or config.collective_algo) != "flat"
                        for _, _, a in combos
                    ),
                )
                tuned_differs = any(
                    d != t for d, t in inputs.plan.times.values()
                )
                two_level = any(
                    h is not None for h in inputs.hier_timings.values()
                )
            key = (
                kernel_tuning and tuned_differs,
                (algo or config.collective_algo) if two_level else "flat",
            )
            held = price_sets.get(key)
            if held is None:
                num_pricings += 1
                prices = price_iteration(
                    cfg, batch, config, machine, *inputs,
                    algo=key[1], kernel_tuning=key[0],
                    activation_checkpointing=True,
                    compute_slowdown=1.0, comm_slowdown=1.0,
                )
                streams = (
                    any(lp.ar_bwd > 0 for lp in prices.layers),
                    any(lp.rs_z > 0 for lp in prices.layers),
                    any(lp.ag_z > 0 for lp in prices.layers),
                )
                held = price_sets[key] = (prices, streams, {})
            prices, (has_ar_bwd, has_rs_z, has_ag_z), walks = held
            flags = (
                overlap.oar and has_ar_bwd,
                overlap.ors and has_rs_z,
                overlap.oag and has_ag_z,
            )
            res = walks.get(flags)
            if res is None:
                num_walks += 1
                total, num_events = schedule_iteration(
                    prices, overlap, trace=None
                )
                res = walks[flags] = summarise_iteration(
                    prices, total, num_events,
                    noise=DEFAULT_NOISE, run_salt=request.seed,
                )
            return res

        return result

    # Stage 3: screen the analytic survivors by simulated time.
    with _stage(stage_s, "screen") as span_args:
        if span_args is not None:
            inputs0, links0 = num_inputs, num_cached_timings()
        reference = space.reference_combo(request)
        screened: list[
            tuple[int, float, GridConfig, float, IterationResult]
        ] = []
        for rank, cand in enumerate(ranked, start=1):
            res = knob_results(cand.config, [reference], {})(reference)
            screened.append(
                (rank, res.total_time, cand.config, cand.predicted_time, res)
            )
        num_sims += len(screened)
        rank1_sim_time = screened[0][1]
        # Stable sort on screened time; analytic rank breaks ties.
        validate_k = space.resolved_validate_k(request)
        survivors = sorted(screened, key=lambda s: (s[1], s[0]))[:validate_k]
        if span_args is not None:
            span_args.update(
                candidates_in=len(ranked), candidates_out=len(survivors),
                inputs_assembled=num_inputs - inputs0,
                link_timings_measured=num_cached_timings() - links0,
            )

    # Stage 4: full knob sweep over the screened survivors.
    with _stage(stage_s, "sweep") as span_args:
        if span_args is not None:
            inputs0, links0 = num_inputs, num_cached_timings()
        combos = space.combos()
        # Every subset's walk is no faster than its flags' union's.
        flags = space.overlap_flags
        top = OverlapFlags(
            oar=any(f.oar for f in flags),
            ors=any(f.ors for f in flags),
            oag=any(f.oag for f in flags),
        )
        groups_bounded = 0
        candidates: list[CandidateReport] = []
        best: tuple[float, CandidateReport, IterationResult] | None = None
        for rank, screen_time, config, predicted, screen_res in survivors:
            result = knob_results(config, combos, {reference: screen_res})
            # The screen decided the reference combo.
            num_sims += len(set(combos)) - 1
            cand_best: tuple[float, tuple, IterationResult] | None = None
            for (kernel_tuning, algo), group in groupby(
                combos, key=lambda c: c[1:]
            ):
                bound = result((top, kernel_tuning, algo)).total_time
                if cand_best is not None and bound >= cand_best[0]:
                    groups_bounded += 1
                    continue
                for combo in group:
                    res = result(combo)
                    if cand_best is None or res.total_time < cand_best[0]:
                        cand_best = (res.total_time, combo, res)
                    if res.total_time == bound:
                        break  # no later subset is strictly faster
            assert cand_best is not None
            best_time, (b_ov, b_kt, b_algo), b_res = cand_best
            report = CandidateReport(
                config=config,
                analytic_rank=rank,
                predicted_comm_time=predicted,
                screen_time=screen_time,
                best_time=best_time,
                best_overlap=b_ov,
                best_kernel_tuning=b_kt,
                best_collective_algo=b_algo,
                algo_choices=dict(b_res.algo_choices),
            )
            candidates.append(report)
            if best is None or best_time < best[0]:
                best = (best_time, report, b_res)
        if span_args is not None:
            # The run's totals, the screen's simulations, pricings and
            # walks included.
            span_args.update(
                candidates_in=len(survivors), candidates_out=1,
                inputs_assembled=num_inputs - inputs0,
                link_timings_measured=num_cached_timings() - links0,
                num_simulations=num_sims, num_pricings=num_pricings,
                num_walks=num_walks, groups_bounded=groups_bounded,
            )
    assert best is not None
    _, win, win_res = best
    # The ranked report lists validated candidates best-first; equal
    # times keep analytic order (sort is stable over the survivor list).
    candidates.sort(key=lambda c: (c.best_time, c.analytic_rank))

    winner = TunedJobConfig(
        model=cfg.name,
        machine=machine.name,
        num_gpus=request.num_gpus,
        global_batch=batch,
        config=GridConfig(
            *win.config.full_dims,
            collective_algo=win.best_collective_algo or "flat",
        ),
        overlap=win.best_overlap,
        kernel_tuning=win.best_kernel_tuning,
        collective_algo=win.best_collective_algo,
        predicted_comm_time=win.predicted_comm_time,
        simulated_time=win.best_time,
        tuning_speedup=win_res.tuning_speedup,
        algo_choices=dict(win_res.algo_choices),
    )
    return AutotuneReport(
        request=request,
        space=space,
        winner=winner,
        winner_result=win_res,
        ranked=candidates,
        rank1_sim_time=rank1_sim_time,
        infeasible=infeasible,
        num_enumerated=len(all_configs),
        num_feasible=len(runnable),
        num_simulations=num_sims,
        num_pricings=num_pricings,
        num_walks=num_walks,
        elapsed_s=time.perf_counter() - t0,
        stage_s=stage_s,
    )
