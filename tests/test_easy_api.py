"""Tests for the generic drop-in parallelization API (ParallelMLP)."""

import numpy as np
import pytest

from repro.core import ACTIVATIONS, Grid4D, GridConfig, ParallelMLP
from repro.nn import Linear
from repro.tensor import Tensor
from repro.tensor import functional as F
from tests.oracles.optim import SGD


def serial_forward(layers, x, activation):
    t = Tensor(x)
    for i, lin in enumerate(layers):
        t = lin(t)
        if i < len(layers) - 1:
            t = activation(t)
    return t


def make_serial_stack(dims, rng):
    return [
        Linear(dims[i], dims[i + 1], rng=rng) for i in range(len(dims) - 1)
    ]


class TestParallelMLP:
    @pytest.mark.parametrize(
        "gx,gy,gz", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)]
    )
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_matches_serial_stack(self, gx, gy, gz, n_layers):
        rng = np.random.default_rng(0)
        base = 8 * gx * gy * gz
        dims = [base * (i % 2 + 1) for i in range(n_layers + 1)]
        serial = make_serial_stack(dims, rng)
        grid = Grid4D(GridConfig(gx, gy, gz))
        par = ParallelMLP.from_serial_layers(grid, serial, activation="gelu")

        x = rng.standard_normal((4 * gz, dims[0]))
        got = par.forward_full(x)
        expect = serial_forward(serial, x, F.gelu).data
        np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-11)

    def test_gradients_flow_to_all_shards(self):
        rng = np.random.default_rng(1)
        grid = Grid4D(GridConfig(2, 2, 1))
        par = ParallelMLP(grid, [8, 16, 8], activation="relu", rng=rng)
        from repro.core import shard_input

        x_np = shard_input(rng.standard_normal((2, 8)), grid)
        parts = {r: Tensor(v, requires_grad=True) for r, v in x_np.items()}
        out = par.forward(parts)
        total = None
        # Sum each distinct output block once (final layer is transposed:
        # columns over Y, replicated over X -> take x=0 replicas).
        for j in range(2):
            t = out[grid.rank_of(0, j, 0)].sum()
            total = t if total is None else total + t
        total.backward()
        for p in par.parameters():
            assert p.grad is not None

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(2)
        grid = Grid4D(GridConfig(2, 1, 2))
        par = ParallelMLP(grid, [8, 16, 4], activation="tanh", rng=rng)
        opt = SGD(par.parameters(), lr=0.3)
        x = rng.standard_normal((4, 8))
        target = rng.standard_normal((4, 4))
        from repro.core import shard_input

        first = None
        for _ in range(40):
            parts = {
                r: Tensor(v) for r, v in shard_input(x, grid).items()
            }
            out = par.forward(parts)
            # Build the full output once and regress to the target.
            loss = None
            # Output of the 2-layer stack is layout A (cols over Y).
            tgt_sharded = shard_input(target, grid, transposed=False)
            for r, t in out.items():
                xx, yy, zz, _ = grid.coords_of(r)
                if xx != 0:
                    continue  # one replica per block
                diff = t - Tensor(tgt_sharded[r])
                term = (diff * diff).sum() * (1.0 / target.size)
                loss = term if loss is None else loss + term
            if first is None:
                first = loss.item()
            for p in par.parameters():
                p.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.5

    def test_validation(self):
        grid = Grid4D(GridConfig(1, 1, 1))
        with pytest.raises(ValueError):
            ParallelMLP(grid, [8])
        with pytest.raises(ValueError):
            ParallelMLP(grid, [8, 8], activation="swish")
        with pytest.raises(ValueError):
            ParallelMLP.from_serial_layers(grid, [])

    def test_chain_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        grid = Grid4D(GridConfig(1, 1, 1))
        layers = [Linear(8, 16, rng=rng), Linear(8, 4, rng=rng)]  # 16 != 8
        with pytest.raises(ValueError):
            ParallelMLP.from_serial_layers(grid, layers)

    def test_activation_registry(self):
        assert set(ACTIVATIONS) == {"gelu", "relu", "tanh", "identity"}

    def test_orientations_alternate(self):
        grid = Grid4D(GridConfig(2, 2, 1))
        par = ParallelMLP(grid, [8, 8, 8, 8])
        assert [l.transposed for l in par.layers] == [False, True, False]
        assert not par.final_transposed  # 3rd layer (index 2) is normal
        assert ParallelMLP(grid, [8, 8, 8]).final_transposed
