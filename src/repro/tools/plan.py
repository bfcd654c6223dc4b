"""Command-line configuration planner and autotuner.

Usage::

    python -m repro.tools plan MODEL NUM_GPUS MACHINE [--batch N] [--top K]
        [--optimize] [--prune-k K] [--collective-algo A] [--seed N]
        [--out DIR]

Examples::

    python -m repro.tools plan GPT-20B 1024 frontier --top 5
    python -m repro.tools plan GPT-20B 1024 frontier --optimize

Without ``--optimize``: prints the performance model's top configurations
with predicted communication time, simulated batch time, per-device
memory, and the resulting training throughput — everything needed to
pick a grid for a job, the way Section V-B describes.

With ``--optimize``: runs the end-to-end autotuner
(:func:`repro.autotune.autotune`) — the analytic top candidates are
screened by simulation, the survivors sweep the full (overlap x kernel
tuning x flat/hierarchical/auto) knob space, and the winning
:class:`~repro.autotune.TunedJobConfig` is printed with the ranked
evidence table and the wall time of each search stage.  ``--out``
writes ``BENCH_autotune.json`` (configs/s searched, wall-clock per run
and per stage, winner).
"""

from __future__ import annotations

import argparse

from ..autotune import (
    NoFeasibleConfigError,
    PlanRequest,
    SearchSpace,
    autotune,
)
from ..kernels import sustained_flops
from ..simulate import default_global_batch, estimate_memory
from .common import planner_parent_parser

__all__ = ["main"]

_ALGO_SHORT = {"flat": "flat", "hierarchical": "hier", "mixed": "mixed", "n/a": "-"}


def _print_infeasible(err: NoFeasibleConfigError) -> None:
    print(f"no feasible configuration: {err.args[0]}")
    for cfg, why in list(err.reasons.items())[:8]:
        print(f"  {cfg}: {why}")
    if len(err.reasons) > 8:
        print(f"  ... and {len(err.reasons) - 8} more")


def _axis_algos(choices: dict[str, str]) -> str:
    return "/".join(
        _ALGO_SHORT[choices.get(ax, "n/a")]
        for ax in ("x", "y", "z", "data", "seq")
    )


def _overlap_str(flags) -> str:
    on = [n for n in ("oar", "ors", "oag") if getattr(flags, n)]
    return "+".join(on) if on else "none"


def _rank_table(report, request, num_gpus: int) -> None:
    """The classic §V-B planning table, in analytic-rank order."""
    cfg = request.resolved_model()
    batch = request.resolved_batch()
    header = (
        f"{'#':<4}{'config':<37}{'pred comm':<12}{'batch time':<12}"
        f"{'mem/GPU':<10}{'Tflop/s/GPU':<12}{'algo x/y/z/d/s':<18}"
    )
    print(header)
    print("-" * len(header))
    for i, cand in enumerate(
        sorted(report.ranked, key=lambda c: c.analytic_rank), start=1
    ):
        mem = estimate_memory(cfg, cand.config, batch // cand.config.gdata)
        per_gpu = sustained_flops(cfg, batch, cand.best_time) / num_gpus
        print(
            f"{i:<4}{str(cand.config):<37}"
            f"{cand.predicted_comm_time:<12.4f}{cand.best_time:<12.4f}"
            f"{mem.total / 1e9:<10.1f}{per_gpu / 1e12:<12.1f}"
            f"{_axis_algos(cand.algo_choices):<18}"
        )


def _optimize_table(report) -> None:
    """The autotuner's ranked evidence table, best simulated time first."""
    header = (
        f"{'#':<4}{'config':<37}{'best time':<12}{'screened':<12}"
        f"{'pred comm':<12}{'overlap':<14}{'tuned':<7}{'algo':<6}"
    )
    print(header)
    print("-" * len(header))
    for i, cand in enumerate(report.ranked, start=1):
        print(
            f"{i:<4}{str(cand.config):<37}"
            f"{cand.best_time:<12.4f}{cand.screen_time:<12.4f}"
            f"{cand.predicted_comm_time:<12.4f}"
            f"{_overlap_str(cand.best_overlap):<14}"
            f"{str(cand.best_kernel_tuning):<7}"
            f"{(cand.best_collective_algo or 'flat'):<6}"
        )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools plan",
        description=__doc__.splitlines()[0],
        parents=[
            planner_parent_parser(
                seed_help="simulator jitter salt (repeated-submission "
                "variability; default: 0)",
                out_help="directory for BENCH_plan.json / "
                "BENCH_autotune.json (--optimize)",
            )
        ],
    )
    parser.add_argument("model", help="model name, e.g. GPT-20B")
    parser.add_argument("num_gpus", type=int, help="devices in the job")
    parser.add_argument("machine", help="perlmutter | frontier | alps")
    parser.add_argument("--batch", type=int, default=None, help="global batch (sequences)")
    parser.add_argument("--top", type=int, default=10, help="configurations to show")
    parser.add_argument(
        "--optimize", action="store_true",
        help="run the end-to-end autotuner (grid x algorithm x kernel x "
        "overlap search) and print the winning job config",
    )
    parser.add_argument(
        "--prune-k", type=_positive_int, default=24,
        help="analytic survivors screened by simulation in --optimize "
        "(default: 24)",
    )
    parser.add_argument(
        "--max-gs", type=int, default=None,
        help="largest sequence-parallel (ring attention) degree the "
        "enumerator may try (default: 1, i.e. classic 4D grids only)",
    )
    args = parser.parse_args(argv)

    request = PlanRequest(
        model=args.model,
        num_gpus=args.num_gpus,
        machine=args.machine,
        global_batch=args.batch,
        top_k=args.top,
        collective_algo=args.collective_algo,
        seed=args.seed,
    )
    cfg = request.resolved_model()
    machine = request.resolved_machine()
    batch = args.batch or default_global_batch(args.num_gpus)

    print(
        f"planning {cfg.name} on {args.num_gpus} x {machine.gpu.name} "
        f"({machine.name}), batch {batch} sequences\n"
    )
    try:
        if args.optimize:
            space = SearchSpace(
                prune_k=max(args.prune_k, args.top), max_gs=args.max_gs
            )
            report = autotune(request, space)
        else:
            import dataclasses

            space = dataclasses.replace(
                SearchSpace.pinned(request), max_gs=args.max_gs
            )
            report = autotune(request, space)
    except NoFeasibleConfigError as err:
        _print_infeasible(err)
        return 1

    if not args.optimize:
        _rank_table(report, request, args.num_gpus)
        if args.out:
            from ..telemetry import write_bench_json

            path = write_bench_json(
                args.out, "plan",
                {
                    "plan.best_time_s": report.winner.simulated_time,
                    "plan.rank1_sim_time_s": report.rank1_sim_time,
                    "plan.num_enumerated": report.num_enumerated,
                    "plan.num_feasible": report.num_feasible,
                },
                meta=report.winner.to_json(),
            )
            print(f"\nwrote {path}")
        return 0

    _optimize_table(report)
    win = report.winner
    print()
    print(
        f"winner: {win.config} collective_algo={win.collective_algo or 'flat'}"
        f" overlap={_overlap_str(win.overlap)} kernel_tuning={win.kernel_tuning}"
    )
    print(
        f"  simulated batch time {win.simulated_time:.4f}s "
        f"(analytic rank-1 screened at {report.rank1_sim_time:.4f}s, "
        f"{report.rank1_sim_time / win.simulated_time:.2f}x), "
        f"tuning speedup {win.tuning_speedup:.2f}x, "
        f"algos {_axis_algos(win.algo_choices)}"
    )
    print(
        f"  searched {report.num_enumerated} grids "
        f"({report.num_feasible} feasible, {len(report.infeasible)} pruned) "
        f"with {report.num_simulations} simulations "
        f"({report.num_pricings} pricings, {report.num_walks} walks) in "
        f"{report.elapsed_s:.1f}s — {report.configs_per_second:.0f} configs/s"
    )
    print(
        "  stage wall time: "
        + ", ".join(f"{k} {v:.3f}s" for k, v in report.stage_s.items())
    )
    if args.out:
        from ..telemetry import write_bench_json

        path = write_bench_json(
            args.out, "autotune",
            {
                "autotune.winner_time_s": win.simulated_time,
                "autotune.rank1_sim_time_s": report.rank1_sim_time,
                "autotune.num_enumerated": report.num_enumerated,
                "autotune.num_feasible": report.num_feasible,
                "autotune.num_simulations": report.num_simulations,
                "autotune.num_pricings": report.num_pricings,
                "autotune.num_walks": report.num_walks,
                "autotune.elapsed_s": report.elapsed_s,
                "autotune.configs_per_second": report.configs_per_second,
                **{
                    f"autotune.stage_s.{k}": v
                    for k, v in report.stage_s.items()
                },
            },
            meta={
                "winner": win.to_json(),
                "ranked": [c.to_json() for c in report.ranked],
                "seed": args.seed,
            },
        )
        print(f"wrote {path}")
    return 0
