"""Verification of Algorithm 1: the 3D PMM forward and backward passes
match serial matrix calculus exactly, for all grid shapes, both layer
orientations, and under property-based exploration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Grid4D,
    GridConfig,
    pmm3d_backward,
    pmm3d_forward,
    shard_input,
    shard_weight,
)
from repro.runtime import CommTracer

from tests.oracles.pmm3d import (
    unshard_input_grad,
    unshard_output,
    unshard_weight_grad,
)


def run_pmm(gx, gy, gz, m, k, n, transposed=False, seed=0, tracer=None):
    """Run forward+backward of one FC layer through the 3D PMM and
    return (O, dI, dW) reassembled, plus the serial references."""
    rng = np.random.default_rng(seed)
    I = rng.standard_normal((m, k))
    W = rng.standard_normal((k, n))
    dO = rng.standard_normal((m, n))

    grid = Grid4D(GridConfig(gx, gy, gz), tracer=tracer)
    I_parts = shard_input(I, grid, transposed=transposed)
    W_shards = shard_weight(W, grid, transposed=transposed)
    O_parts, cache = pmm3d_forward(grid, I_parts, W_shards, transposed=transposed)
    dO_parts = shard_dO(dO, grid, transposed)
    dI_parts, dW_parts = pmm3d_backward(
        grid, dO_parts, cache, transposed=transposed
    )

    O = unshard_output(O_parts, grid, transposed=transposed)
    dI = unshard_input_grad(dI_parts, grid, transposed=transposed)
    dW = unshard_weight_grad(dW_parts, grid, transposed=transposed)
    return (O, dI, dW), (I @ W, dO @ W.T, I.T @ dO)


def shard_dO(dO, grid, transposed):
    """dO has the layout of O: rows over Z, cols over the column axis,
    replicated along the contraction axis — i.e. the *input* sharding of
    the opposite orientation."""
    return shard_input(dO, grid, transposed=not transposed)


GRIDS = [
    (1, 1, 1),
    (2, 1, 1),
    (1, 2, 1),
    (1, 1, 2),
    (2, 2, 1),
    (2, 1, 2),
    (1, 2, 2),
    (2, 2, 2),
    (4, 2, 1),
    (1, 4, 2),
    (3, 2, 2),
]


@pytest.mark.parametrize("gx,gy,gz", GRIDS)
@pytest.mark.parametrize("transposed", [False, True])
def test_pmm3d_matches_serial(gx, gy, gz, transposed):
    m = 4 * gz
    k = 6 * gx * gy * gz
    n = 4 * gx * gy
    (O, dI, dW), (O_ref, dI_ref, dW_ref) = run_pmm(
        gx, gy, gz, m, k, n, transposed=transposed
    )
    np.testing.assert_allclose(O, O_ref, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(dI, dI_ref, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(dW, dW_ref, rtol=1e-10, atol=1e-12)


def test_output_replicated_along_contraction_axis():
    """Every Y replica of an output block must be identical (normal
    orientation)."""
    rng = np.random.default_rng(0)
    gx, gy, gz = 2, 3, 2
    m, k, n = 4, 12, 6
    grid = Grid4D(GridConfig(gx, gy, gz))
    I_parts = shard_input(rng.standard_normal((m, k)), grid)
    W_shards = shard_weight(rng.standard_normal((k, n)), grid)
    O_parts, _ = pmm3d_forward(grid, I_parts, W_shards)
    for z in range(gz):
        for x in range(gx):
            base = O_parts[grid.rank_of(x, 0, z)]
            for y in range(1, gy):
                np.testing.assert_array_equal(
                    O_parts[grid.rank_of(x, y, z)], base
                )


def test_weight_shard_shapes():
    """Each rank's W shard is (k/(Gy*Gz), n/Gx) for normal layers."""
    grid = Grid4D(GridConfig(2, 3, 2))
    W = np.zeros((12, 8))
    shards = shard_weight(W, grid)
    for arr in shards.values():
        assert arr.shape == (12 // (3 * 2), 8 // 2)


def test_weight_shard_shapes_transposed():
    grid = Grid4D(GridConfig(2, 3, 2))
    W = np.zeros((8, 12))
    shards = shard_weight(W, grid, transposed=True)
    for arr in shards.values():
        assert arr.shape == (8 // (2 * 2), 12 // 3)


def test_input_replicated_along_x():
    rng = np.random.default_rng(0)
    grid = Grid4D(GridConfig(3, 2, 2))
    parts = shard_input(rng.standard_normal((4, 8)), grid)
    for z in range(2):
        for y in range(2):
            base = parts[grid.rank_of(0, y, z)]
            for x in range(1, 3):
                np.testing.assert_array_equal(parts[grid.rank_of(x, y, z)], base)


def test_indivisible_dimension_rejected():
    grid = Grid4D(GridConfig(2, 2, 1))
    with pytest.raises(ValueError):
        shard_weight(np.zeros((5, 4)), grid)  # 5 rows not divisible by 2


def test_collective_pattern_matches_algorithm1():
    """Forward: AG_z then AR_y; backward: AR_x then RS_z (normal)."""
    tracer = CommTracer()
    run_pmm(2, 2, 2, 4, 8, 4, tracer=tracer)
    tags = [r.tag for r in tracer.records]
    assert tags.count("pmm3d.AG_z") == 4  # one per z-group (gx*gy)
    assert tags.count("pmm3d.AR_y") == 4  # one per y-group (gx*gz)
    assert tags.count("pmm3d.AR_x") == 4
    assert tags.count("pmm3d.RS_z") == 4
    # Issue order: all AGs before ARs (forward), ARs before RSs (backward).
    first_ar = tags.index("pmm3d.AR_y")
    assert all(t == "pmm3d.AG_z" for t in tags[:first_ar])


def test_transposed_layer_swaps_x_and_y_groups():
    tracer = CommTracer()
    run_pmm(2, 2, 1, 4, 8, 4, transposed=True, tracer=tracer)
    tags = [r.tag for r in tracer.records]
    assert "pmm3d.AR_x" in tags  # forward reduce now over X
    assert "pmm3d.AR_y" in tags  # backward input-grad reduce over Y


def test_z_sharding_reduces_weight_memory():
    """The memory optimization: per-rank weight bytes shrink by Gz."""
    W = np.zeros((16, 8))
    small = shard_weight(W, Grid4D(GridConfig(2, 2, 1)))
    big = shard_weight(W, Grid4D(GridConfig(2, 2, 4)))
    assert next(iter(big.values())).size * 4 == next(iter(small.values())).size


@given(
    gx=st.sampled_from([1, 2, 3]),
    gy=st.sampled_from([1, 2, 3]),
    gz=st.sampled_from([1, 2]),
    mm=st.integers(1, 3),
    kk=st.integers(1, 2),
    nn=st.integers(1, 3),
    transposed=st.booleans(),
    seed=st.integers(0, 50),
)
@settings(max_examples=30, deadline=None)
def test_pmm3d_property(gx, gy, gz, mm, kk, nn, transposed, seed):
    """Numerics match serial AND the recorded collective schedule passes
    every static SPMD check, for every sampled grid shape."""
    from repro.runtime import validate_schedule

    m = mm * gz
    k = kk * gx * gy * gz * 2
    n = nn * gx * gy
    tracer = CommTracer()
    (O, dI, dW), (O_ref, dI_ref, dW_ref) = run_pmm(
        gx, gy, gz, m, k, n, transposed=transposed, seed=seed, tracer=tracer
    )
    np.testing.assert_allclose(O, O_ref, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(dI, dI_ref, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(dW, dW_ref, rtol=1e-9, atol=1e-9)
    violations = validate_schedule(tracer)
    assert violations == [], "\n".join(str(v) for v in violations)
