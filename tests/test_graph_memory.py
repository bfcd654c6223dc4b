"""What a loss graph keeps alive for backward, and what the walk frees.

The census sums the unique array buffers (keyed by their base) that a
graph holds: every node's ``.data`` and every array its backward
closure captured, tensors captured there included.  It is pinned for
the benchmark fixture on a (2, 2, 2, 2) grid and serially, so a change
that makes a node keep more than its backward reads moves the pin.
"""

import tracemalloc

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import Grid4D, GridConfig, ParallelGPT
from repro.nn import GPT
from repro.tensor import Tensor


def bench_config() -> GPTConfig:
    """The benchmark fixture: 4 layers, h=128, 8 heads, vocab 512."""
    return GPTConfig(
        name="bench", num_layers=4, hidden_size=128, num_heads=8,
        seq_len=64, vocab_size=512,
    )


def batch(cfg: GPTConfig, b: int, s: int) -> np.ndarray:
    return np.random.default_rng(0).integers(0, cfg.vocab_size, (b, s))


def graph_nodes(root: Tensor) -> list[Tensor]:
    """Every node backward visits from ``root``."""
    seen, nodes, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def _arrays(obj):
    """The arrays ``obj`` holds: itself, a tensor's data, or the items of
    a list or tuple (a contraction group's closure captures per-rank
    lists)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Tensor):
        yield obj.data
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


def saved_bytes(root: Tensor) -> int:
    """Bytes of the unique buffers the graph under ``root`` keeps alive."""
    buffers: dict[int, int] = {}
    for node in graph_nodes(root):
        held = [node.data]
        for cell in getattr(node._backward, "__closure__", None) or ():
            held.extend(_arrays(cell.cell_contents))
        for a in held:
            while isinstance(a.base, np.ndarray):
                a = a.base
            buffers[id(a)] = a.nbytes
    return sum(buffers.values())


#: What one ``loss`` graph holds after the forward on the fixture,
#: parameters included (8 x 64 tokens).  With a matmul node per rank and
#: ``xhat`` kept by every LayerNorm shard the grid graph held 165,205,305
#: bytes, and with a matmul and an add node per linear the serial one
#: 89,959,529.  With every sibling group's collective its own node the
#: grid graph held 96,048,441 bytes, 15,872,064 more than now:
#:
#: * 9 LayerNorms x 2 replicas x 4 normalizes (the X siblings of each
#:   (y, z) now share one) of 132,056 bytes each — the output and
#:   ``centered`` at 2 x 63 x 64 fp64 (64,512 each), ``inv``,
#:   ``var_eps`` and ``mu`` at 2 x 63 (1,008 each), and ``1/dim`` (8):
#:   9,508,032;
#: * 9 LayerNorms x 2 replicas x 4 moment all-reduces (of the 8, one
#:   Σx and one Σx² per pair of X siblings remain) of 1,008 bytes:
#:   72,576;
#: * replica 1's copy of every gathered weight, 4 layers x 4 (x, y) x
#:   (qkv 64 x 192 + proj 64 x 64 + fc1 64 x 256 + fc2 256 x 64) fp64:
#:   6,291,456.
GRID_BYTES = 80_176_377
SERIAL_BYTES = 71_380_073


class TestSavedForBackwardCensus:
    """The graph holds what backward reads: parameters, activations that
    a later node reads, and nothing that died in the forward."""

    def test_grid_census_is_pinned(self):
        cfg = bench_config()
        model = ParallelGPT(Grid4D(GridConfig(2, 2, 2, 2)), cfg, seed=0)
        assert saved_bytes(model.loss(batch(cfg, 8, 64))) == GRID_BYTES

    def test_serial_census_is_pinned(self):
        cfg = bench_config()
        model = GPT(cfg, seed=0)
        assert saved_bytes(model.loss(batch(cfg, 8, 64))) == SERIAL_BYTES

    @pytest.mark.parametrize(
        "dims", [(1, 1, 1, 1), (2, 2, 2, 2), (2, 1, 2, 1), (1, 2, 1, 2)]
    )
    def test_no_graph_holds_a_matmul_node(self, dims):
        """A contraction group's local products live inside its one
        node, so no per-rank product is a graph tensor.  (With a
        sequence axis the KV ring's attention is built of matmul nodes
        over activations; those grids are not checked.)"""
        cfg = GPTConfig(
            name="t", num_layers=1, hidden_size=24, num_heads=4, seq_len=8,
            vocab_size=24,
        )
        grid = Grid4D(GridConfig(*dims))
        c = grid.config
        loss = ParallelGPT(grid, cfg, seed=0).loss(batch(cfg, 2 * c.gz * c.gdata, 8))
        names = {n.name for n in graph_nodes(loss)}
        assert "linear_group" in names and "matmul" not in names


class TestTheWalkFrees:
    def test_backward_peak_is_within_one_layer_of_the_forward(self):
        """Under ``tracemalloc``, the peak during ``backward()`` exceeds
        what the graph held after the forward by at most one layer's
        gradients: one block's parameters and one residual-stream
        gradient (B·S·h values), 0.23 MB here.  The walk reads 0.14 MB
        over; one that keeps every node until it returns holds each
        layer's gradients on top of every layer's activations and reads
        1.38 MB over."""
        cfg = GPTConfig(
            name="t", num_layers=4, hidden_size=32, num_heads=4, seq_len=32,
            vocab_size=16,
        )
        b, s = 16, 32
        model = ParallelGPT(Grid4D(GridConfig(2, 2, 2, 2)), cfg, seed=0)
        one_layer = sum(p.data.nbytes for p in model.blocks[0].parameters())
        one_layer += b * s * cfg.hidden_size * 8
        ids = batch(cfg, b, s)
        tracemalloc.start()
        try:
            loss = model.loss(ids)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= one_layer

    def test_a_second_backward_raises(self):
        cfg = GPTConfig(
            name="t", num_layers=1, hidden_size=24, num_heads=4, seq_len=8,
            vocab_size=24,
        )
        for model in (
            GPT(cfg, seed=0), ParallelGPT(Grid4D(GridConfig(2, 2, 2, 1)), cfg, seed=0)
        ):
            loss = model.loss(batch(cfg, 4, 8))
            loss.backward()
            value = loss.item()  # the root keeps its data
            with pytest.raises(RuntimeError, match="already walked"):
                loss.backward()
            assert loss.item() == value
