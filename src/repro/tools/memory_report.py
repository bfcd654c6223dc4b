"""Command-line per-device memory report.

Usage::

    python -m repro.tools memory MODEL GX,GY,GZ,GDATA MACHINE
        [--batch N] [--no-checkpointing] [--out DIR]

Example::

    python -m repro.tools memory GPT-80B 2,1,128,32 frontier

Prints the per-device memory breakdown (weights, gradients, optimizer
state, activations, workspace) for training a model on a 4D grid, and
the largest per-replica batch that fits.
"""

from __future__ import annotations

import argparse

from ..cluster import get_machine
from ..config import get_model
from ..core.grid import infeasibility_reason
from ..simulate import estimate_memory, max_batch_per_replica
from .common import _parse_grid

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.memory_report", description=__doc__.splitlines()[0]
    )
    parser.add_argument("model")
    parser.add_argument("grid", type=_parse_grid)
    parser.add_argument("machine")
    parser.add_argument("--batch", type=int, default=None)
    parser.add_argument("--no-checkpointing", action="store_true")
    parser.add_argument(
        "--out", default=None,
        help="also write the breakdown as BENCH_memory.json to this directory",
    )
    args = parser.parse_args(argv)

    cfg = get_model(args.model)
    reason = infeasibility_reason(cfg, args.grid)
    if reason:
        parser.error(reason)
    machine = get_machine(args.machine)
    ck = not args.no_checkpointing
    batch = args.batch or max(args.grid.gz, 1)

    m = estimate_memory(cfg, args.grid, batch, checkpointing=ck)
    print(
        f"{cfg.name} on grid {args.grid} of {machine.name} "
        f"(batch/replica {batch}, checkpointing {'on' if ck else 'off'}):\n"
    )
    rows = [
        ("weights (bf16)", m.weights),
        ("gradients (bf16)", m.gradients),
        ("master + Adam (fp32)", m.master_and_optimizer),
        ("activations", m.activations),
        ("workspace (gathered W)", m.workspace),
        ("total", m.total),
    ]
    for label, val in rows:
        print(f"  {label:<24}{val / 1e9:>10.2f} GB")
    cap = machine.gpu.memory_bytes / 1e9
    verdict = "FITS" if m.fits(machine) else "DOES NOT FIT"
    print(f"\n  device capacity: {cap:.0f} GB -> {verdict}")
    best = max_batch_per_replica(cfg, args.grid, machine, checkpointing=ck)
    print(f"  largest per-replica batch that fits: {best}")
    if args.out:
        from ..telemetry import write_bench_json

        path = write_bench_json(
            args.out,
            "memory",
            {f"mem.bytes.{label.split(' ')[0]}": val for label, val in rows},
            meta={
                "model": cfg.name,
                "grid": list(args.grid.dims),
                "machine": machine.name,
                "batch": batch,
                "checkpointing": ck,
                "fits": m.fits(machine),
                "max_batch_per_replica": best,
            },
        )
        print(f"  wrote {path}")
    return 0 if m.fits(machine) else 1
