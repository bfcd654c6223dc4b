"""Command-line scaling sweeps with terminal charts.

Usage::

    python -m repro.tools sweep weak MACHINE                # Fig. 6/8 style
    python -m repro.tools sweep strong MODEL MACHINE GPUS[,GPUS...]
        [--batch N]                                         # Fig. 9 style

Shared planner flags (``--collective-algo``, ``--seed``, ``--out``)
apply to both kinds; every point routes through the unified
planning API (:class:`repro.autotune.PlanRequest` ->
:func:`repro.simulate.run_point`).

Examples::

    python -m repro.tools sweep weak frontier
    python -m repro.tools sweep strong GPT-80B frontier 512,1024,2048,4096
"""

from __future__ import annotations

import argparse

from ..cluster import get_machine
from ..config import get_model
from ..simulate import (
    strong_scaling_sweep,
    time_to_solution_days,
    weak_scaling_sweep,
)
from .ascii_plot import line_chart
from .common import planner_parent_parser

__all__ = ["main"]


def _point_kwargs(args) -> dict:
    return {
        "collective_algo": args.collective_algo,
        "seed": args.seed,
    }


def _write_bench(args, name: str, points) -> None:
    if not args.out:
        return
    from ..telemetry import write_bench_json

    metrics = {
        f"sweep.{p.model}.{p.num_gpus}.batch_time_s": p.result.total_time
        for p in points
    }
    metrics[f"sweep.{name}.points"] = len(points)
    path = write_bench_json(
        args.out, f"sweep_{name}", metrics,
        meta={
            "kind": name,
            "seed": args.seed,
            "collective_algo": args.collective_algo,
            "points": [
                {
                    "model": p.model,
                    "num_gpus": p.num_gpus,
                    "grid": list(p.config.full_dims),
                    "batch_time_s": p.result.total_time,
                    "pflops": p.metrics.pflops,
                }
                for p in points
            ],
        },
    )
    print(f"\nwrote {path}")


def _weak(args) -> int:
    machine = get_machine(args.machine)
    points = weak_scaling_sweep(machine, **_point_kwargs(args))
    print(f"weak scaling on {machine.name}\n")
    for p in points:
        print(
            f"  {p.model:<10}{p.num_gpus:<8}{str(p.config):<34}"
            f"{p.result.total_time:>8.2f}s  {p.metrics.pflops:>8.1f} Pflop/s  "
            f"{p.metrics.pct_advertised_peak:>5.1f}%"
        )
    xs = [float(i) for i in range(len(points))]
    print()
    print(
        line_chart(
            xs,
            {
                "Pflop/s": [p.metrics.pflops for p in points],
                "%peak": [p.metrics.pct_advertised_peak for p in points],
            },
            x_label="scale step (see table)",
        )
    )
    _write_bench(args, "weak", points)
    return 0


def _strong(args) -> int:
    machine = get_machine(args.machine)
    cfg = get_model(args.model)
    gpus = [int(g) for g in args.gpus.split(",")]
    points = strong_scaling_sweep(
        args.model, gpus, machine, global_batch=args.batch,
        **_point_kwargs(args),
    )
    print(f"strong scaling: {cfg.name} on {machine.name}, batch {args.batch}\n")
    days = []
    for p in points:
        d = time_to_solution_days(cfg, args.batch, p.result.total_time, 2e12)
        days.append(d)
        print(
            f"  {p.num_gpus:<8}{str(p.config):<34}"
            f"{p.result.total_time:>9.2f}s   {d:>8.1f} days to 2T tokens"
        )
    print()
    print(
        line_chart(
            [float(g) for g in gpus],
            {"days to 2T tokens": days},
            x_label="devices",
        )
    )
    _write_bench(args, "strong", points)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools sweep", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    common = dict(
        parents=[
            planner_parent_parser(
                seed_help="simulator jitter salt shared by every point "
                "(default: 0)",
                out_help="directory for BENCH_sweep_<kind>.json",
            )
        ],
    )
    w = sub.add_parser("weak", help="the machine's Fig. 6/8 schedule", **common)
    w.add_argument("machine")
    s = sub.add_parser(
        "strong", help="fixed model, growing device counts", **common
    )
    s.add_argument("model")
    s.add_argument("machine")
    s.add_argument("gpus", help="comma-separated device counts")
    s.add_argument("--batch", type=int, default=8192)
    args = parser.parse_args(argv)

    if args.kind == "weak":
        return _weak(args)
    return _strong(args)
