"""Tests for the degenerate-scheme map: FSDP, HSDP, Megatron and pure
data parallelism as special cases of the 4D grid."""

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import (
    DEGENERATE_SCHEMES,
    Grid4D,
    GridConfig,
    ParallelGPT,
    make_degenerate_grid,
)
from repro.runtime import CommTracer


def tiny_config(**kw) -> GPTConfig:
    defaults = dict(
        name="tiny", num_layers=1, hidden_size=16, num_heads=4,
        seq_len=8, vocab_size=24,
    )
    defaults.update(kw)
    return GPTConfig(**defaults)


class TestDegenerateSchemes:
    def test_all_schemes_present(self):
        assert set(DEGENERATE_SCHEMES) == {
            "fsdp", "hsdp", "megatron", "pure_data", "axonn_4d",
        }

    def test_fsdp_grid(self):
        grid = make_degenerate_grid("fsdp", 8)
        assert grid.config.dims == (1, 1, 8, 1)

    def test_megatron_grid(self):
        grid = make_degenerate_grid("megatron", 8)
        assert grid.config.dims == (8, 1, 1, 1)

    def test_pure_data_grid(self):
        grid = make_degenerate_grid("pure_data", 16)
        assert grid.config.dims == (1, 1, 1, 16)

    def test_hsdp_grid_uses_node_size(self):
        from repro.cluster import FRONTIER, Placement

        grid = make_degenerate_grid("hsdp", 32, placement=Placement(FRONTIER, 32))
        assert grid.config.dims == (1, 1, 8, 4)

    def test_hsdp_custom_shard_group(self):
        """Without a placement, hsdp shards over a square-ish group."""
        grid = make_degenerate_grid("hsdp", 16)
        assert grid.config.dims == (1, 1, 4, 4)

    def test_axonn_4d_balanced(self):
        grid = make_degenerate_grid("axonn_4d", 64)
        c = grid.config
        assert c.total == 64
        assert c.gx >= c.gy >= 1

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            make_degenerate_grid("pipeline", 8)

    def test_fsdp_comm_signature(self):
        """FSDP-degenerate: weight all-gathers over Z, no tensor-parallel
        all-reduces of activations."""
        cfg = tiny_config()
        tracer = CommTracer()
        grid = Grid4D(GridConfig(1, 1, 2, 1), tracer=tracer)
        model = ParallelGPT(grid, cfg, seed=0)
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (2, 6))
        model.loss(ids).backward()
        tags = {r.tag for r in tracer.records if r.group.size > 1}
        assert "linear.AG_z" in tags
        assert "linear.AR_x" not in tags
        assert "linear.AR_y" not in tags

    def test_megatron_comm_signature(self):
        """Megatron-degenerate: activation all-reduces over X/Y, and the
        Z all-gathers collapse to size-1 groups (no communication)."""
        cfg = tiny_config()
        tracer = CommTracer()
        grid = Grid4D(GridConfig(2, 1, 1, 1), tracer=tracer)
        model = ParallelGPT(grid, cfg, seed=0)
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (2, 6))
        model.loss(ids).backward()
        meaningful = {r.tag for r in tracer.records if r.group.size > 1}
        assert "linear.AR_x" in meaningful
        assert "linear.AG_z" not in meaningful

    def test_expected_tags_documented(self):
        for scheme in DEGENERATE_SCHEMES.values():
            assert scheme.description
            assert scheme.active_axes <= {"x", "y", "z", "data"}
