"""Simulator timing-engine throughput — the paper-scale capability gate.

The paper's headline curves (Figs. 6-9) live at 4096-8192+ GPUs, which
is only reachable if one simulated iteration at those rank counts costs
milliseconds.  This benchmark runs a variability-style sweep on a
contention-heavy 4096-rank configuration and locks in the capability as
a CI gate: one complete 4096-rank and one 8192-rank simulated iteration,
caches cold, each under 60 s wall-clock.

How fast the engine is *over time* is tracked by the benchmark spine's
``simulate.iteration_ms.r1024`` / ``.r8192`` / ``simulate.events_per_s``
probes (``bench/``), not by an in-run ratio against a second engine:
there is one engine, and ``tests/test_sim_differential.py`` proves it
bitwise-equal to the scalar definitions.

Publishes ``events_per_s`` and ``t_iter_*`` in ``BENCH_*.json``.
"""

import time

from conftest import full_scale, run_once

from repro.cluster import FRONTIER
from repro.config import get_model
from repro.core import GridConfig
from repro.simulate import (
    OverlapFlags,
    clear_caches,
    events_per_second,
    simulate_iteration,
)

#: Contention-heavy 4096-rank shape: every axis straddles nodes on
#: Frontier (8 GCDs/node), and the 512-wide data axis puts thousands of
#: sibling rings on the same links.
CONFIG_4096 = GridConfig(2, 2, 2, 512)
CONFIG_8192 = GridConfig(2, 2, 2, 1024)

#: Paper-scale iterations must complete within a minute of wall-clock.
ITER_BUDGET_S = 60.0


def _cold_iteration(model, config: GridConfig):
    """(wall seconds, IterationResult) of one iteration, caches cold."""
    clear_caches()
    t0 = time.perf_counter()
    res = simulate_iteration(
        model, 2 * config.total, config, FRONTIER,
        overlap=OverlapFlags.all(), kernel_tuning=True,
        collective_algo="auto", timing_only=True,
    )
    return time.perf_counter() - t0, res


def test_engine_speedup_and_scale(benchmark, report):
    model = get_model("GPT-40B")
    # A variability sweep issues many salted iterations per config, so
    # the wall amortizes the one-time cache fill the way real callers do.
    iters = 24 if full_scale() else 12

    def experiment():
        clear_caches()
        start = time.perf_counter()
        events = 0
        for salt in range(iters):
            events += simulate_iteration(
                model, 2 * CONFIG_4096.total, CONFIG_4096, FRONTIER,
                overlap=OverlapFlags.all(), kernel_tuning=True,
                collective_algo="auto", run_salt=salt, timing_only=True,
            ).num_events
        t_sweep = time.perf_counter() - start
        t_4096, r4096 = _cold_iteration(model, CONFIG_4096)
        t_8192, r8192 = _cold_iteration(get_model("GPT-80B"), CONFIG_8192)
        return t_sweep, events, t_4096, r4096, t_8192, r8192

    t_sweep, events, t_4096, r4096, t_8192, r8192 = run_once(
        benchmark, experiment
    )
    eps = events_per_second(events, t_sweep)

    report.line(
        f"Simulator engine throughput on {CONFIG_4096} (4096 ranks, "
        f"frontier, GPT-40B):"
    )
    report.table(
        ["iters", "events", "wall (s)", "events/s"],
        [[iters, events, f"{t_sweep:.3f}", f"{eps:,.0f}"]],
    )
    report.line()
    report.line(
        f"cold 4096-rank iteration {t_4096 * 1e3:.1f} ms "
        f"({r4096.num_events} events), 8192-rank {t_8192 * 1e3:.1f} ms "
        f"({r8192.num_events} events), budget {ITER_BUDGET_S:.0f} s"
    )
    report.metric("events_per_s", eps)
    report.metric("t_iter_4096_s", t_4096)
    report.metric("t_iter_8192_s", t_8192)
    report.metric("max_ranks_simulated", CONFIG_8192.total)
    report.meta = {
        "machine": "frontier",
        "config_4096": str(CONFIG_4096),
        "config_8192": str(CONFIG_8192),
    }

    # The CI gates (sim-scale-smoke).
    assert t_4096 < ITER_BUDGET_S
    assert t_8192 < ITER_BUDGET_S
    assert r4096.total_time > 0 and r8192.total_time > 0
