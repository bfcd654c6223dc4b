"""Shared argparse plumbing for the planning-family CLIs.

``plan``, ``sweep``, ``goodput``, and ``serve-report`` all accept the
same three cross-cutting flags, declared once here and inherited via an
argparse *parent* parser:

* ``--collective-algo {flat,hierarchical,auto}`` — collective routing
  policy priced by the simulator;
* ``--seed N`` — deterministic seed (simulator jitter salt, arrival
  traces, stochastic replays — each command documents its use);
* ``--out DIR`` — directory for the command's ``BENCH_*.json`` artifact.

``memory`` and ``trace`` read their ``GX,GY,GZ,GDATA[,GSEQ]`` grid
argument through one parser.
"""

from __future__ import annotations

import argparse

from ..core.grid import GridConfig

__all__ = ["planner_parent_parser"]


def planner_parent_parser(
    *,
    seed_help: str = "deterministic seed (default: 0)",
    out_help: str = "directory to write the command's BENCH_*.json artifact",
) -> argparse.ArgumentParser:
    """The ``parents=[...]`` parser carrying the three shared flags.

    Each call returns a fresh parser (argparse parents are consumed per
    child), with per-command help text where the flag's meaning differs.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--collective-algo",
        choices=("flat", "hierarchical", "auto"),
        default="auto",
        help="collective algorithm policy priced by the simulator "
        "(default: auto)",
    )
    parent.add_argument("--seed", type=int, default=0, help=seed_help)
    parent.add_argument("--out", default=None, help=out_help)
    return parent


def _parse_grid(text: str) -> GridConfig:
    try:
        parts = [int(p) for p in text.split(",")]
        if len(parts) not in (4, 5):
            raise ValueError(
                "grid must be four or five comma-separated integers: "
                "GX,GY,GZ,GDATA[,GSEQ]"
            )
        return GridConfig(*parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
