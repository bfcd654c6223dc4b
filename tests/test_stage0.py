"""Stage 0's link timings, memoized per axis signature, against a fresh
measurement.

``group_timings`` / ``hierarchical_group_timings`` key each axis by
``(placement, size, stride)``: ranks are laid out ``(gs, gd, gz, gy, gx)``
with x innermost, so an axis's sibling groups depend on its size, its
stride (the product of the inner axis sizes) and the rank count only.
Two grids that share an axis signature must therefore read one cached
timing, and it must be the timing a fresh, uncached
``vectorized_*_group_timing`` call measures for either grid.  Caches stay
warm across generated examples on purpose: most lookups are hits filled
by an earlier, different grid.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FRONTIER, PERLMUTTER, GPUSpec, MachineSpec, Placement
from repro.core import Grid4D, GridConfig
from repro.core.grid import AXES5
from repro.simulate import engine

#: Four GPUs per node on two dies of two, with a faster same-die link.
DIE_TOY = MachineSpec(
    name="die-toy",
    gpu=GPUSpec("toy", 1e15, 5e14, 4e10),
    gpus_per_node=4,
    intra_node_bw=1e11,
    inter_node_bw=2.5e10,
    total_gpus=256,
    die_size=2,
    same_die_bw=3e11,
)

MACHINES = [PERLMUTTER, FRONTIER, DIE_TOY]


@st.composite
def placed_grids(draw):
    """(placement, two grids of its rank count) — the second grid a
    reshuffle of the first's degrees, so the pair often share axes."""
    machine = draw(st.sampled_from(MACHINES))
    gpn = machine.gpus_per_node
    # Whole nodes, or less than one: what a placement accepts.
    dims = draw(
        st.tuples(*[st.sampled_from([1, 1, 2, 3, 4]) for _ in AXES5]).filter(
            lambda d: math.prod(d) <= 128
            and (math.prod(d) < gpn or math.prod(d) % gpn == 0)
        )
    )
    total = math.prod(dims)
    strategy = draw(st.sampled_from(["block", "round_robin"]))
    if strategy == "round_robin" and total % machine.num_nodes(total):
        strategy = "block"
    other = draw(st.permutations(dims))
    placement = Placement(machine, total, strategy=strategy)
    grids = [
        Grid4D(GridConfig(*d), placement=placement) for d in (dims, other)
    ]
    return placement, grids


class TestAxisSignatureMemo:
    @settings(max_examples=150, deadline=None)
    @given(placed_grids())
    def test_keyed_timings_equal_fresh_per_axis(self, case):
        placement, grids = case
        for grid in grids:
            flat = engine.group_timings(grid, placement)
            hier = engine.hierarchical_group_timings(grid, placement)
            assert list(flat) == list(hier) == list(AXES5)
            for axis in AXES5:
                assert flat[axis] == engine.vectorized_group_timing(
                    grid, placement, axis
                )
                assert hier[axis] == engine.vectorized_hierarchical_group_timing(
                    grid, placement, axis
                )

    def test_grids_sharing_an_axis_share_its_entry(self):
        placement = Placement(FRONTIER, 64)
        a = Grid4D(GridConfig(4, 2, 8, 1), placement=placement)
        b = Grid4D(GridConfig(4, 2, 1, 8), placement=placement)
        engine.clear_caches()
        ta = engine.group_timings(a, placement)
        size = len(engine._GROUP_TIMINGS_CACHE)
        tb = engine.group_timings(b, placement)
        # X and Y keep size and stride, a's Z and b's data are both size
        # 8 at stride 8, and the size-1 seq axes sit at stride 64: only
        # b's size-1 Z (stride 8) is new.
        assert ta["x"] is tb["x"] and ta["y"] is tb["y"]
        assert ta["z"] is tb["data"] and ta["seq"] is tb["seq"]
        assert len(engine._GROUP_TIMINGS_CACHE) == size + 1
        engine.clear_caches()


class TestCachedNoneIsAHit:
    def test_flat_only_axes_are_not_remeasured(self, monkeypatch):
        calls = []
        measure = engine.vectorized_hierarchical_group_timing

        def spy(grid, placement, axis):
            calls.append(axis)
            return measure(grid, placement, axis)

        monkeypatch.setattr(engine, "vectorized_hierarchical_group_timing", spy)
        engine.clear_caches()
        # X of size 2 stays inside a Perlmutter node: no two-level
        # decomposition, a cached None.  The four size-1 axes share one
        # signature (size 1, stride 2), also flat only: two measurements.
        placement = Placement(PERLMUTTER, 2)
        grid = Grid4D(GridConfig(2, 1, 1, 1), placement=placement)
        first = engine.hierarchical_group_timings(grid, placement)
        assert first == dict.fromkeys(AXES5)
        assert calls == ["x", "y"]
        for _ in range(3):
            assert engine.hierarchical_group_timings(grid, placement) == first
        assert calls == ["x", "y"]
        assert engine.num_cached_timings() == 2
        engine.clear_caches()

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_each_signature_measured_once(self, monkeypatch, machine):
        calls = []
        measure = engine.vectorized_hierarchical_group_timing

        def spy(grid, placement, axis):
            calls.append(axis)
            return measure(grid, placement, axis)

        monkeypatch.setattr(engine, "vectorized_hierarchical_group_timing", spy)
        engine.clear_caches()
        placement = Placement(machine, 16)
        signatures = set()
        for dims in [(2, 2, 2, 2), (4, 2, 2, 1), (2, 4, 1, 2), (4, 4, 1, 1)]:
            grid = Grid4D(GridConfig(*dims), placement=placement)
            engine.hierarchical_group_timings(grid, placement)
            stride = 1
            for size in grid.config.full_dims:
                signatures.add((size, stride))
                stride *= size
        assert len(calls) == len(signatures)
        engine.clear_caches()
