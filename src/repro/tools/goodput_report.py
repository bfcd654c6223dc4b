"""Goodput vs. checkpoint interval: how often should a job checkpoint?

For each machine the report computes the cost of writing one full
training-state checkpoint (16 bytes/parameter through the injection
and filesystem bandwidth), sweeps the checkpoint interval through the
renewal-theory expected-goodput formula, and marks both the empirical
optimum and Young/Daly's closed form ``sqrt(2 C M)`` — which the curve
must reproduce.  A seeded stochastic replay cross-checks the
expectation.

Usage::

    python -m repro.tools goodput MODEL GPUS [MACHINE ...]
        [--node-mtbf-hours H] [--restart S] [--iter-time S] [--seed N]
        [--simulate-iter-time] [--replacement-wait S] [--reshard-time S]
        [--comm-penalty F] [--out DIR]

Besides the checkpoint-interval sweep, the report compares the two
recovery strategies at the optimal interval: **elastic continuation**
(shrink onto survivors, keep training at reduced throughput, grow back
when the replacement arrives) vs **restart-and-wait** (block until a
replacement node shows up, re-form the full grid from the checkpoint).

Examples::

    python -m repro.tools goodput GPT-20B 1024
    python -m repro.tools goodput GPT-80B 4096 frontier alps \\
        --node-mtbf-hours 1000
"""

from __future__ import annotations

import argparse

import numpy as np

from ..cluster import get_machine
from ..config import get_model
from ..simulate import (
    FailureModel,
    checkpoint_time,
    compare_recovery_strategies,
    expected_goodput,
    goodput_curve,
    optimal_checkpoint_interval,
    simulate_run,
    young_daly_interval,
)
from .ascii_plot import line_chart

__all__ = ["main"]


def _report(
    model_name: str,
    num_gpus: int,
    machine_name: str,
    fm: FailureModel,
    iter_time: float,
    seed: int,
    replacement_wait: float,
    reshard_time: float | None,
    comm_penalty: float,
) -> dict[str, float]:
    machine = get_machine(machine_name)
    cfg = get_model(model_name)
    nodes = max(1, num_gpus // machine.gpus_per_node)
    ckpt = checkpoint_time(cfg, machine, num_gpus, fm)
    mtbf = fm.job_mtbf(nodes)
    yd = young_daly_interval(ckpt, mtbf)
    emp = optimal_checkpoint_interval(ckpt, fm.restart_time, mtbf)

    print(
        f"{cfg.name} on {machine.name}: {num_gpus} GPUs / {nodes} nodes, "
        f"checkpoint {ckpt:.1f}s, job MTBF {mtbf / 3600:.1f}h"
    )
    print(
        f"  optimal interval: Young/Daly {yd:.0f}s, "
        f"curve argmax {emp:.0f}s "
        f"(goodput {expected_goodput(emp, ckpt, fm.restart_time, mtbf):.3f})"
    )

    taus = [float(t) for t in np.geomspace(yd / 20.0, yd * 20.0, 48)]
    curve = goodput_curve(taus, ckpt, fm.restart_time, mtbf)
    print()
    print(
        line_chart(
            [float(np.log10(t)) for t in taus],
            {f"{machine.name} E[goodput]": curve},
            x_label="log10(checkpoint interval, s)",
        )
    )

    # Stochastic cross-check at the optimum.
    iters_per_ckpt = max(1, round(emp / iter_time))
    out = simulate_run(
        iter_time,
        num_iterations=20 * iters_per_ckpt,
        checkpoint_interval_iters=iters_per_ckpt,
        ckpt_time=ckpt,
        model=fm,
        num_nodes=nodes,
        seed=seed,
    )
    print(
        f"  stochastic replay @ optimum (seed {seed}): "
        f"goodput {out.goodput:.3f}, {out.failures} failure(s), "
        f"{out.checkpoints} checkpoint(s), "
        f"{out.straggler_hits} straggler hit(s)"
    )

    # Elastic continuation vs restart-and-wait at the optimal interval.
    cmp = compare_recovery_strategies(
        emp,
        ckpt,
        fm.restart_time,
        mtbf,
        replacement_wait,
        nodes,
        comm_penalty=comm_penalty,
        reshard_time=reshard_time,
    )
    print(
        f"  recovery strategy (replacement wait "
        f"{replacement_wait / 60:.0f}min, shrunk throughput "
        f"{cmp.shrink_fraction:.3f}): elastic {cmp.elastic_goodput:.3f} "
        f"vs restart-and-wait {cmp.restart_goodput:.3f} "
        f"-> {cmp.winner} wins by {cmp.advantage:.3f}"
    )
    print()
    return {
        "goodput.ckpt_time_s": ckpt,
        "goodput.job_mtbf_s": mtbf,
        "goodput.young_daly_interval_s": yd,
        "goodput.optimal_interval_s": emp,
        "goodput.expected_at_optimum": expected_goodput(
            emp, ckpt, fm.restart_time, mtbf
        ),
        "goodput.replay": out.goodput,
        "goodput.replay_failures": out.failures,
        "goodput.replay_checkpoints": out.checkpoints,
        "goodput.elastic": cmp.elastic_goodput,
        "goodput.restart_and_wait": cmp.restart_goodput,
    }


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def main(argv: list[str] | None = None) -> int:
    from .common import planner_parent_parser

    parser = argparse.ArgumentParser(
        prog="repro.tools.goodput_report",
        description=__doc__.splitlines()[0],
        parents=[
            planner_parent_parser(
                seed_help="seed of the stochastic failure replay "
                "(default: 0)",
                out_help="also write BENCH_goodput_<machine>.json to "
                "this directory",
            )
        ],
    )
    parser.add_argument("model")
    parser.add_argument("gpus", type=int)
    parser.add_argument(
        "machines",
        nargs="*",
        default=["perlmutter", "frontier"],
        help="machine specs to compare (default: perlmutter frontier)",
    )
    parser.add_argument("--node-mtbf-hours", type=float, default=4380.0)
    parser.add_argument("--restart", type=float, default=120.0)
    parser.add_argument(
        "--straggler-prob", type=float, default=0.02,
        help="per-iteration straggler probability in the replay",
    )
    parser.add_argument("--straggler-slowdown", type=float, default=2.0)
    parser.add_argument(
        "--iter-time", type=_positive_float, default=15.0,
        help="seconds per training iteration in the stochastic replay",
    )
    parser.add_argument(
        "--simulate-iter-time", action="store_true",
        help="derive --iter-time per machine by simulating the best "
        "configuration (planned via the unified autotune API under the "
        "selected --collective-algo) instead of the fixed default",
    )
    parser.add_argument(
        "--replacement-wait", type=float, default=1800.0,
        help="seconds until a replacement node arrives (elastic model)",
    )
    parser.add_argument(
        "--reshard-time", type=float, default=None,
        help="seconds per in-memory shrink/grow (default: --restart)",
    )
    parser.add_argument(
        "--comm-penalty", type=float, default=0.05,
        help="extra efficiency loss of the shrunken grid, in [0, 1)",
    )
    args = parser.parse_args(argv)

    fm = FailureModel(
        node_mtbf=args.node_mtbf_hours * 3600.0,
        restart_time=args.restart,
        straggler_prob=args.straggler_prob,
        straggler_slowdown=args.straggler_slowdown,
    )
    for machine_name in args.machines:
        iter_time = args.iter_time
        if args.simulate_iter_time:
            from ..autotune import PlanRequest
            from ..simulate import best_configuration

            _, sim = best_configuration(
                PlanRequest(
                    model=args.model,
                    num_gpus=args.gpus,
                    machine=machine_name,
                    collective_algo=args.collective_algo,
                )
            )
            iter_time = sim.total_time
            print(
                f"simulated iteration time on {machine_name}: "
                f"{iter_time:.2f}s (config {sim.config})\n"
            )
        metrics = _report(
            args.model,
            args.gpus,
            machine_name,
            fm,
            iter_time,
            args.seed,
            args.replacement_wait,
            args.reshard_time,
            args.comm_penalty,
        )
        if args.out:
            from ..telemetry import write_bench_json

            path = write_bench_json(
                args.out,
                f"goodput_{machine_name}",
                metrics,
                meta={
                    "model": args.model,
                    "gpus": args.gpus,
                    "machine": machine_name,
                    "seed": args.seed,
                },
            )
            print(f"  wrote {path}\n")
    return 0
