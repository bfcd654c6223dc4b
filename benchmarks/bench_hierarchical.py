"""Flat vs. two-level hierarchical collectives — the crossover sweep.

For the full 2-node process groups of Perlmutter (4 GPUs/node) and
Frontier (8 GCDs/node), sweep the message size and price an all-reduce
both ways twice over: with the analytic selector
(:func:`repro.perfmodel.choose_algorithm`, Eq. 7 bandwidths + canonical
latencies) and with the discrete-event simulator's measured link
timings (exact ring contention on the network substrate).  The two
layers must agree on the crossover: hierarchical wins the small,
latency-bound messages (O(p) NIC startup steps collapse to O(Q) inter +
O(L) intra), the flat ring wins the huge bandwidth-bound ones (a lone
ring drives the full NIC aggregate).

Publishes the crossover points and peak speedups as
``BENCH_*.json`` metrics.
"""

import pytest

from conftest import full_scale, run_once

from repro.cluster import FRONTIER, PERLMUTTER, Placement
from repro.core import Grid4D, GridConfig
from repro.perfmodel import choose_algorithm
from repro.perfmodel.hierarchical import flat_time, hierarchical_time
from repro.simulate.engine import group_timings, hierarchical_group_timings

MACHINES = [PERLMUTTER, FRONTIER]


def _sweep_sizes():
    top = 32 if full_scale() else 28  # 4 GiB vs 256 MiB ceiling
    return [float(1 << e) for e in range(10, top)]


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_hierarchical_crossover(benchmark, report, machine):
    p = 2 * machine.gpus_per_node
    placement = Placement(machine, p)
    grid = Grid4D(GridConfig(p, 1, 1, 1), placement=placement)
    lt = group_timings(grid, placement)["x"]
    ht = hierarchical_group_timings(grid, placement)["x"]
    assert ht is not None

    def experiment():
        rows = []
        for nbytes in _sweep_sizes():
            choice = choose_algorithm(
                "all_reduce", nbytes, list(range(p)), placement
            )
            sim_flat = flat_time("all_reduce", nbytes, p, lt.bandwidth, lt.latency)
            sim_hier = hierarchical_time(
                "all_reduce", nbytes, ht.L, ht.Q,
                ht.intra.bandwidth, ht.leaders.bandwidth,
                ht.intra.latency, ht.leaders.latency,
            )
            rows.append((nbytes, choice, sim_flat, sim_hier))
        return rows

    rows = run_once(benchmark, experiment)

    report.line(
        f"Flat vs hierarchical all-reduce on {machine.name}: "
        f"{p} ranks = 2 nodes x {machine.gpus_per_node} "
        f"(L={ht.L}, Q={ht.Q})"
    )
    report.table(
        ["bytes", "model flat (us)", "model hier (us)", "model pick",
         "sim flat (us)", "sim hier (us)", "sim pick"],
        [
            [
                f"{int(n):>11}",
                f"{c.flat_time * 1e6:.1f}",
                f"{c.hier_time * 1e6:.1f}",
                c.algo,
                f"{sf * 1e6:.1f}",
                f"{sh * 1e6:.1f}",
                "hierarchical" if sh < sf else "flat",
            ]
            for n, c, sf, sh in rows
        ],
    )

    # Crossover: the first size where the analytic pick turns flat.
    model_cross = next(
        (n for n, c, _, _ in rows if c.algo == "flat"), float("inf")
    )
    sim_cross = next(
        (n for n, _, sf, sh in rows if sf <= sh), float("inf")
    )
    hier_speedups = [
        c.flat_time / c.hier_time for _, c, _, _ in rows if c.algo == "hierarchical"
    ]
    assert hier_speedups, "hierarchical must win somewhere in the sweep"
    assert model_cross < float("inf"), "flat must win the largest messages"

    report.line()
    report.line(
        f"model crossover at {int(model_cross)} B, simulator at "
        f"{int(sim_cross)} B; peak hierarchical speedup "
        f"{max(hier_speedups):.2f}x"
    )
    report.metric("crossover_bytes_model", model_cross)
    report.metric("crossover_bytes_sim", sim_cross)
    report.metric("peak_hier_speedup", max(hier_speedups))
    # The two layers must land within one size decade of each other.
    assert 0.1 <= model_cross / sim_cross <= 10.0
