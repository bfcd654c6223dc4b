"""Shared infrastructure for the paper-reproduction benchmarks.

Every ``bench_*`` module regenerates one table or figure of the paper.
Each benchmark prints its rows (visible with ``pytest -s``) and appends
them to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can cite a
stable artifact.  The ``benchmark`` fixture times the experiment body
(one round — these are experiments, not microbenchmarks).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_collection_modifyitems(items):
    """Every benchmark is a paper experiment, not a tier-1 test."""
    for item in items:
        item.add_marker(pytest.mark.slow)


def full_scale() -> bool:
    """Whether to run the most expensive experiment arms (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "0") == "1"


class Report:
    """Collects printed rows and persists them per benchmark."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: ``BENCH_<bench_name>.json``; a benchmark whose CI artifact has
        #: a stable name of its own sets this instead of writing twice.
        self.bench_name = name
        self.lines: list[str] = []
        self.metrics: dict[str, float] = {}
        self.meta: dict = {}

    def line(self, text: str = "") -> None:
        self.lines.append(text)
        print(text)

    def table(self, headers: list[str], rows: list[list], widths=None) -> None:
        if widths is None:
            widths = [
                max(len(str(h)), *(len(str(r[i])) for r in rows)) + 2
                for i, h in enumerate(headers)
            ] if rows else [len(h) + 2 for h in headers]
        fmt = "".join(f"{{:<{w}}}" for w in widths)
        self.line(fmt.format(*headers))
        self.line("-" * sum(widths))
        for row in rows:
            self.line(fmt.format(*[str(c) for c in row]))

    def metric(self, name: str, value: float) -> None:
        """Record one numeric result for the BENCH_<name>.json summary."""
        self.metrics[name] = float(value)

    def save(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.name}.txt"
        path.write_text("\n".join(self.lines) + "\n")
        if self.metrics:
            from repro.telemetry import write_bench_json

            write_bench_json(
                RESULTS_DIR, self.bench_name, self.metrics, self.meta
            )


@pytest.fixture
def report(request):
    rep = Report(request.node.name.replace("[", "_").replace("]", ""))
    print()
    yield rep
    rep.save()


def run_once(benchmark, fn):
    """Time an experiment body exactly once through pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
