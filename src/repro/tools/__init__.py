"""Command-line tools behind one dispatcher.

Every tool is a subcommand of ``python -m repro.tools``::

    python -m repro.tools plan GPT-20B 1024 frontier
    python -m repro.tools memory GPT-80B 2,1,128,32 frontier
    python -m repro.tools trace GPT-20B 2,1,8,8 frontier --out trace.json
    python -m repro.tools goodput GPT-20B 1024 --seed 0
    python -m repro.tools profile run --config tiny --out bench_out
    python -m repro.tools sweep GPT-20B 1024 frontier
    python -m repro.tools reproduce
    python -m repro.tools gen-api-docs --out docs/API.md
    python -m repro.tools regen-goldens

The modules under this package define ``main(argv)`` only; this
dispatcher is the one way to run them.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

__all__ = ["main", "SUBCOMMANDS"]

#: subcommand -> (module under repro.tools, one-line help)
SUBCOMMANDS = {
    "plan": ("plan", "rank 4D grid configurations for a model/machine"),
    "memory": ("memory_report", "per-device memory breakdown for a grid"),
    "trace": ("trace_view", "text Gantt chart of a simulated iteration"),
    "goodput": ("goodput_report", "checkpoint-interval & recovery report"),
    "profile": ("profile_run", "profile a small run under telemetry"),
    "sweep": ("sweep", "sweep grids through the simulator"),
    "serve-report": ("serve_report", "serving latency/throughput frontier"),
    "reproduce": ("reproduce", "regenerate the paper's headline tables"),
    "gen-api-docs": ("gen_api_docs", "regenerate docs/API.md"),
    "regen-goldens": ("regen_goldens", "regenerate golden schedule traces"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="subcommands:\n" + "\n".join(
            f"  {name:<14}{help_}" for name, (_, help_) in SUBCOMMANDS.items()
        ),
    )
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="arguments forwarded to the subcommand",
    )
    args = parser.parse_args(argv)
    module_name, _ = SUBCOMMANDS[args.subcommand]
    module = import_module(f".{module_name}", __name__)
    try:
        return module.main(args.rest)
    except (ValueError, KeyError) as exc:
        # Bad input the subcommand's parser cannot see (an unknown model
        # or machine, a count of zero) ends in one line, not a traceback.
        message = exc.args[0] if exc.args else type(exc).__name__
        print(f"repro.tools {args.subcommand}: error: {message}",
              file=sys.stderr)
        return 2

