"""Cross-checks between independent parts of the library.

Each test here validates one component against another that was built
separately — the reproduction's internal consistency net.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig, get_model
from repro.core import Grid4D, GridConfig, ParallelGPT, enumerate_grid_configs
from repro.kernels import flops_per_iteration
from repro.nn import GPT
from repro.perfmodel import gpt_layer_shapes
from repro.tensor import to_bf16


def groups_along(grid: Grid4D, axis: str):
    """Distinct groups along ``axis``, in order of their first rank."""
    groups = {}
    for r in range(grid.config.total):
        g = grid.group_along(axis, r)
        groups.setdefault(g.ranks, g)
    return list(groups.values())


class TestFlopsFormulaVsLayerShapes:
    """Narayanan's closed form vs summing our own layer inventory."""

    @pytest.mark.parametrize("name", ["GPT-5B", "GPT-80B", "GPT-320B"])
    def test_formula_matches_shape_sum(self, name):
        cfg = get_model(name)
        b = 8
        # Matmul flops from the layer inventory: forward 2mkn per layer,
        # x4 passes (forward, recompute, dI, dW) with checkpointing.
        fc = sum(l.flops for l in gpt_layer_shapes(cfg, b, include_head=False))
        head = 2.0 * b * cfg.seq_len * cfg.hidden_size * cfg.vocab_size
        # Attention core: QK^T and AV, each 2*B*s^2*h per layer.
        attn = cfg.num_layers * 2 * (2.0 * b * cfg.seq_len**2 * cfg.hidden_size)
        total = 4 * (fc + attn) + 4 * head
        formula = flops_per_iteration(cfg, b, checkpointing=True)
        # The closed form approximates the head term (V/(16lh)) and
        # drops small constants; agreement within 2%.
        assert total == pytest.approx(formula, rel=0.02)

    def test_attention_share_grows_with_seq(self):
        """The s/(6h) term: longer sequences raise flops per token."""
        cfg = get_model("GPT-5B")
        short = flops_per_iteration(cfg.scaled(seq_len=1024), 8) / 1024
        long = flops_per_iteration(cfg.scaled(seq_len=4096), 8) / 4096
        assert long > short


class TestGridProperties:
    @given(
        gx=st.integers(1, 4),
        gy=st.integers(1, 4),
        gz=st.integers(1, 3),
        gd=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_coords_bijection(self, gx, gy, gz, gd):
        grid = Grid4D(GridConfig(gx, gy, gz, gd))
        seen = set()
        for coords in grid.iter_coords():
            r = grid.rank_of(*coords)
            assert grid.coords_of(r) == coords
            seen.add(r)
        assert seen == set(range(gx * gy * gz * gd))

    @given(
        gx=st.integers(1, 3),
        gy=st.integers(1, 3),
        gz=st.integers(1, 3),
        gd=st.integers(1, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_groups_partition_ranks(self, gx, gy, gz, gd):
        """For every axis, the groups tile all ranks exactly once."""
        grid = Grid4D(GridConfig(gx, gy, gz, gd))
        for axis in ("x", "y", "z", "data"):
            covered = []
            for g in groups_along(grid, axis):
                covered.extend(g.ranks)
            assert sorted(covered) == list(range(grid.config.total))

    def test_hierarchy_example_from_paper(self):
        """Section V-B's worked example: 8 GPUs, all dims 2 — X groups
        are (0,1)(2,3)(4,5)(6,7), Y groups (0,2)(1,3)(4,6)(5,7)."""
        grid = Grid4D(GridConfig(2, 2, 2, 1))
        xg = {g.ranks for g in groups_along(grid, "x")}
        yg = {g.ranks for g in groups_along(grid, "y")}
        assert xg == {(0, 1), (2, 3), (4, 5), (6, 7)}
        assert yg == {(0, 2), (1, 3), (4, 6), (5, 7)}

    @given(n=st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    @settings(max_examples=10, deadline=None)
    def test_enumeration_complete_and_exact(self, n):
        configs = enumerate_grid_configs(n)
        # Every config multiplies to n; no duplicates; pure-data and
        # pure-Z always present.
        assert all(c.total == n for c in configs)
        assert len({c.dims for c in configs}) == len(configs)
        assert GridConfig(1, 1, 1, n).dims in {c.dims for c in configs}
        assert GridConfig(1, 1, n, 1).dims in {c.dims for c in configs}

    def test_enumeration_nonpow2(self):
        configs = enumerate_grid_configs(12)
        assert all(c.total == 12 for c in configs)
        assert any(c.gy == 3 for c in configs)


class TestParallelGeneration:
    def test_greedy_decode_matches_serial(self):
        """Inference through the 4D model: identical greedy tokens."""
        cfg = GPTConfig(
            name="gen", num_layers=2, hidden_size=16, num_heads=4,
            seq_len=16, vocab_size=32,
        )
        serial = GPT(cfg, seed=1)
        par = ParallelGPT.from_serial(serial, Grid4D(GridConfig(2, 2, 1)))
        prefix = np.array([[3, 1, 4, 1, 5]])
        s_ids = prefix.copy()
        p_ids = prefix.copy()
        for _ in range(6):
            s_next = int(np.argmax(serial(s_ids).data[0, -1]))
            p_next = int(np.argmax(par(p_ids).data[0, -1]))
            assert s_next == p_next
            s_ids = np.concatenate([s_ids, [[s_next]]], axis=1)
            p_ids = np.concatenate([p_ids, [[p_next]]], axis=1)


class TestBF16Range:
    def test_bf16_shares_fp32_range(self):
        """Why the paper uses bf16 over fp16 (Section VI-A): values that
        overflow fp16 (max ~65504) survive bf16 rounding unharmed."""
        big = np.array([1e10, 3.0e38, -2.5e20], dtype=np.float32)
        out = to_bf16(big)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, big, rtol=0.01)
        # The same values are infinite in fp16.
        with np.errstate(over="ignore"):
            as_fp16 = big.astype(np.float16)
        assert not np.isfinite(as_fp16).all()

    def test_gradient_magnitudes_survive(self):
        """Typical tiny gradient magnitudes underflow fp16's 6e-5 normal
        range but not bf16's fp32-like exponent."""
        tiny = np.array([1e-20, 3e-30], dtype=np.float32)
        out = to_bf16(tiny)
        assert (out > 0).all()
        assert (tiny.astype(np.float16) == 0).all()
