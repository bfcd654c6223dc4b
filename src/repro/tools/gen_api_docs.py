"""Generate docs/API.md from the package's docstrings.

Usage::

    python -m repro.tools gen-api-docs [output_path | --out PATH]

Walks every public subpackage, lists its ``__all__`` symbols with the
first line of each docstring — a lightweight, always-in-sync API
reference (regenerate after changing any public surface).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
from pathlib import Path

__all__ = ["PACKAGES", "render", "main"]

PACKAGES = [
    "repro",
    "repro.config",
    "repro.cluster",
    "repro.runtime",
    "repro.tensor",
    "repro.nn",
    "repro.core",
    "repro.perfmodel",
    "repro.kernels",
    "repro.simulate",
    "repro.autotune",
    "repro.pipeline",
    "repro.moe",
    "repro.memorization",
    "repro.serving",
    "repro.serving.resilience",
    "repro.telemetry",
    "repro.tools",
]


def _first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


def _kind(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj) or inspect.isbuiltin(obj):
        return "function"
    if inspect.ismodule(obj):
        return "module"
    return "constant"


def render() -> str:
    """Build the full API reference as a markdown string."""
    lines = [
        "# API reference",
        "",
        "Generated by `python -m repro.tools gen-api-docs` — regenerate "
        "after changing any public surface.",
        "",
    ]
    for name in PACKAGES:
        mod = importlib.import_module(name)
        lines.append(f"## `{name}`")
        lines.append("")
        head = (inspect.getdoc(mod) or "").splitlines()
        if head:
            lines.append(head[0])
            lines.append("")
        exported = getattr(mod, "__all__", [])
        if exported:
            lines.append("| symbol | kind | summary |")
            lines.append("|---|---|---|")
            for sym in exported:
                obj = getattr(mod, sym)
                kind = _kind(obj)
                # Builtin-type docstrings on plain constants are noise.
                summary = "" if kind == "constant" else _first_line(obj)
                summary = summary.replace("|", "\\|")
                lines.append(f"| `{sym}` | {kind} | {summary} |")
            lines.append("")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools gen-api-docs", description=__doc__.splitlines()[0]
    )
    parser.add_argument("output", nargs="?", default=None)
    parser.add_argument("--out", default=None, help="output path")
    args = parser.parse_args(argv)
    default = Path(__file__).resolve().parents[3] / "docs" / "API.md"
    out = Path(args.out or args.output or default)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render())
    print(f"wrote {out}")
    return 0
