"""Property tests for scaling curves and sibling-contention bounds.

Two previously untested edge surfaces of the simulator:

* ``simulate/scaling.py`` — weak scaling must be *monotone*: growing the
  rank count at fixed per-GPU work (batch proportional to devices) can
  only add communication, so noise-free batch time never decreases;
* ``hierarchical_group_timing`` / ``measured_group_bandwidth`` (the
  per-rank walks of ``tests/oracles/network.py``)
  — contention can only *cost*: a group's measured bandwidth under
  sibling contention (and job-scale congestion) must never beat the
  uncontended bottleneck of its lone ring, for the flat ring and for
  both levels of the two-level decomposition.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ALPS,
    FRONTIER,
    PERLMUTTER,
    Placement,
    build_ring,
    ring_bottleneck_bandwidth,
)
from repro.config import GPTConfig
from repro.core import Grid4D, GridConfig
from repro.runtime.hierarchical import decompose_by_node
from repro.simulate import OverlapFlags, simulate_iteration

from tests.oracles.network import (
    hierarchical_group_timing,
    measured_group_bandwidth,
)

TINY = GPTConfig("prop-tiny", num_layers=2, hidden_size=64, num_heads=4,
                 seq_len=32, vocab_size=64)

MACHINES = [PERLMUTTER, FRONTIER, ALPS]


@st.composite
def grid_points(draw):
    """(machine, GridConfig) with total devices in {8..128}."""
    machine = draw(st.sampled_from(MACHINES))
    total = draw(st.sampled_from([8, 16, 32, 64, 128]))
    dims = [1, 1, 1, 1]
    remaining = total
    for i in range(3):
        divisors = [d for d in range(1, remaining + 1) if remaining % d == 0]
        dims[i] = draw(st.sampled_from(divisors))
        remaining //= dims[i]
    dims[3] = remaining
    return machine, GridConfig(*dims)


class TestWeakScalingMonotone:
    """Noise-free batch time is non-decreasing in rank count when the
    per-GPU work is held fixed (two sequences per device)."""

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_data_axis_growth(self, machine):
        times = []
        for gdata in (1, 2, 4, 8, 16, 32):
            config = GridConfig(2, 2, 2, gdata)
            res = simulate_iteration(
                TINY, 2 * config.total, config, machine,
                overlap=OverlapFlags.all(), noise=0.0,
            )
            times.append(res.total_time)
        assert times == sorted(times), (
            f"weak-scaling curve not monotone on {machine.name}: {times}"
        )

    @settings(max_examples=25, deadline=None)
    @given(point=grid_points(), factor=st.sampled_from([2, 4]))
    def test_doubling_ranks_never_speeds_up(self, point, factor):
        machine, config = point
        grown = GridConfig(
            config.gx, config.gy, config.gz, config.gdata * factor
        )
        if grown.total > machine.total_gpus:
            return
        base = simulate_iteration(
            TINY, 2 * config.total, config, machine,
            overlap=OverlapFlags.all(), noise=0.0,
        )
        scaled = simulate_iteration(
            TINY, 2 * grown.total, grown, machine,
            overlap=OverlapFlags.all(), noise=0.0,
        )
        assert scaled.total_time >= base.total_time


class TestContentionBounds:
    """Shared/congested bandwidths never beat the uncontended ring."""

    @settings(max_examples=40, deadline=None)
    @given(point=grid_points(), axis=st.sampled_from(["x", "y", "z", "data"]))
    def test_flat_never_beats_lone_ring(self, point, axis):
        machine, config = point
        placement = Placement(machine, config.total)
        grid = Grid4D(config, placement=placement)
        timing = measured_group_bandwidth(grid, placement, axis)
        rep = grid.group_along(axis, 0)
        if rep.size == 1:
            assert timing.bandwidth == float("inf")
            return
        lone = ring_bottleneck_bandwidth(
            build_ring(list(rep.ranks), placement), placement
        )
        assert timing.bandwidth <= lone

    @settings(max_examples=40, deadline=None)
    @given(point=grid_points(), axis=st.sampled_from(["x", "y", "z", "data"]))
    def test_hierarchical_never_beats_uncontended(self, point, axis):
        machine, config = point
        placement = Placement(machine, config.total)
        grid = Grid4D(config, placement=placement)
        hier = hierarchical_group_timing(grid, placement, axis)
        if hier is None:
            return
        rep = grid.group_along(axis, 0)
        dec = decompose_by_node(rep.ranks, placement)
        assert dec is not None
        intra_bound = min(
            ring_bottleneck_bandwidth(build_ring(list(g.ranks), placement), placement)
            for g in dec.node_groups
        )
        cross_bound = min(
            ring_bottleneck_bandwidth(build_ring(list(g.ranks), placement), placement)
            for g in dec.cross_groups
        )
        assert hier.intra.bandwidth <= intra_bound
        assert hier.leaders.bandwidth <= cross_bound
        # And the decomposition's shape is the one the runtime executes.
        assert hier.L == dec.L and hier.Q == dec.Q

    def test_congestion_charged_at_scale(self):
        """Leaders bandwidth of a node-straddling group includes the
        job-scale congestion division (strictly below the NIC share)."""
        config = GridConfig(16, 1, 1, 8)
        placement = Placement(FRONTIER, config.total)
        grid = Grid4D(config, placement=placement)
        hier = hierarchical_group_timing(grid, placement, "x")
        assert hier is not None
        assert hier.leaders.bandwidth < FRONTIER.inter_node_bw
