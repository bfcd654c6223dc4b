"""Reassembly of Algorithm 1's distributed output and gradients.

The inverse of :func:`repro.core.pmm3d.shard_input` /
:func:`~repro.core.pmm3d.shard_weight` for the forward and backward
passes' outputs: ``tests/test_pmm3d.py`` compares the gathered blocks
with the serial product and gradients.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import Grid4D
from repro.core.pmm3d import _axes


def unshard_output(
    O_parts: dict[int, np.ndarray], grid: Grid4D, d: int = 0, transposed: bool = False
) -> np.ndarray:
    """Reassemble the full (m, n) output from its distributed blocks.

    Uses the replica at contraction-coordinate 0 of each (Z, col) block.
    """
    c = grid.config
    col_axis, _ = _axes(transposed)
    n_col = c.gx if col_axis == "x" else c.gy
    rows = []
    for z in range(c.gz):
        cols = []
        for i in range(n_col):
            if col_axis == "x":
                rank = grid.rank_of(i, 0, z, d)
            else:
                rank = grid.rank_of(0, i, z, d)
            cols.append(O_parts[rank])
        rows.append(np.concatenate(cols, axis=1))
    return np.concatenate(rows, axis=0)


def unshard_input_grad(
    dI_parts: dict[int, np.ndarray], grid: Grid4D, d: int = 0, transposed: bool = False
) -> np.ndarray:
    """Reassemble the full input gradient (replicated along the column
    axis; blocks over Z rows and contraction-axis columns)."""
    c = grid.config
    _, contract_axis = _axes(transposed)
    n_contract = c.gy if contract_axis == "y" else c.gx
    rows = []
    for z in range(c.gz):
        cols = []
        for j in range(n_contract):
            if contract_axis == "y":
                rank = grid.rank_of(0, j, z, d)
            else:
                rank = grid.rank_of(j, 0, z, d)
            cols.append(dI_parts[rank])
        rows.append(np.concatenate(cols, axis=1))
    return np.concatenate(rows, axis=0)


def unshard_weight_grad(
    dW_parts: dict[int, np.ndarray], grid: Grid4D, d: int = 0, transposed: bool = False
) -> np.ndarray:
    """Reassemble the full (k, n) weight gradient from Z-sharded blocks."""
    c = grid.config
    col_axis, contract_axis = _axes(transposed)
    n_contract = c.gy if contract_axis == "y" else c.gx
    n_col = c.gx if col_axis == "x" else c.gy
    row_blocks = []
    for j in range(n_contract):
        col_blocks = []
        for i in range(n_col):
            shards = []
            for z in range(c.gz):
                if col_axis == "x":
                    rank = grid.rank_of(i, j, z, d)
                else:
                    rank = grid.rank_of(j, i, z, d)
                shards.append(dW_parts[rank])
            col_blocks.append(np.concatenate(shards, axis=0))
        row_blocks.append(np.concatenate(col_blocks, axis=1))
    return np.concatenate(row_blocks, axis=0)
