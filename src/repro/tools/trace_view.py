"""Command-line timeline viewer for simulated iterations.

Usage::

    python -m repro.tools trace MODEL GX,GY,GZ,GDATA MACHINE
        [--batch N] [--no-overlap] [--no-tuning] [--width W] [--out PATH]

Example::

    python -m repro.tools trace GPT-20B 2,1,8,8 frontier --batch 256

With ``--out`` the simulated timeline is also written as Chrome
``trace_event`` JSON (via :mod:`repro.telemetry`), loadable in
``chrome://tracing`` / Perfetto.

Renders the simulated iteration as a text Gantt chart (one row per
compute/communication stream) plus the timing breakdown — the
simulator-side analogue of a profiler timeline, showing exactly what the
OAR/ORS/OAG overlaps hide.
"""

from __future__ import annotations

import argparse

from ..cluster import get_machine
from ..config import get_model
from ..core.grid import infeasibility_reason
from ..simulate import OverlapFlags, Timeline, simulate_iteration
from .common import _parse_grid

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools trace", description=__doc__.splitlines()[0]
    )
    parser.add_argument("model")
    parser.add_argument("grid", type=_parse_grid)
    parser.add_argument("machine")
    parser.add_argument("--batch", type=int, default=None)
    parser.add_argument("--no-overlap", action="store_true")
    parser.add_argument("--no-tuning", action="store_true")
    parser.add_argument("--width", type=int, default=72)
    parser.add_argument(
        "--out", default=None,
        help="also write the timeline as Chrome trace JSON to this path",
    )
    args = parser.parse_args(argv)

    cfg = get_model(args.model)
    reason = infeasibility_reason(cfg, args.grid)
    if reason:
        parser.error(reason)
    machine = get_machine(args.machine)
    batch = args.batch or 2 * args.grid.total
    overlap = OverlapFlags.none() if args.no_overlap else OverlapFlags.all()

    timeline = Timeline()
    result = simulate_iteration(
        cfg, batch, args.grid, machine,
        overlap=overlap, kernel_tuning=not args.no_tuning,
        trace=timeline, noise=0.0,
    )

    print(
        f"{cfg.name} on {args.grid} of {machine.name}, batch {batch} "
        f"sequences, overlap {'ON' if not args.no_overlap else 'OFF'}, "
        f"tuning {'ON' if not args.no_tuning else 'OFF'}\n"
    )
    print(timeline.render(width=args.width))
    print()
    print(f"  total           {result.total_time:9.4f} s")
    print(f"  compute         {result.compute_time:9.4f} s")
    print(f"  exposed comm    {result.exposed_comm_time:9.4f} s")
    print(f"  raw comm        {result.raw_comm_time:9.4f} s")
    print(f"  hidden comm     {timeline.overlap_seconds():9.4f} s")
    if args.out:
        from ..telemetry import write_chrome_trace

        path = write_chrome_trace(
            args.out,
            timeline.to_trace_events(),
            metadata={
                "model": cfg.name,
                "grid": list(args.grid.dims),
                "machine": machine.name,
                "batch": batch,
            },
        )
        print(f"\n  wrote {path}")
    return 0
