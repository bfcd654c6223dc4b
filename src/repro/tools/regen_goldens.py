"""Regenerate the golden collective-schedule traces.

The golden traces under ``tests/golden/`` pin the exact per-rank
communication schedule (op order, groups, dtypes, element counts, tags)
of representative parallel configurations: full 4D, FSDP/ZeRO-degenerate,
Megatron-1D-degenerate, the GPipe functional pipeline, expert-parallel
MoE, and tensor-parallel serving.  The regression tests replay the same seeded programs and fail with
a structural diff if the schedule drifts — an intentional change to the
communication pattern must be accompanied by regenerated goldens:

    python -m repro.tools regen-goldens

Every scenario is deterministic (fixed seeds, no wall-clock input), so a
regenerated golden is byte-identical unless the schedule truly changed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..cluster import GPUSpec, MachineSpec, Placement
from ..config import GPTConfig
from ..core import Grid4D, GridConfig, ParallelGPT, make_degenerate_grid
from ..moe import MoELayer
from ..moe.expert_parallel import ExpertParallelMoE
from ..pipeline import PipelineGPT, partition_layers
from ..runtime import (
    CommTracer,
    ProcessGroup,
    assert_valid_schedule,
    dump_schedule,
)
from ..tensor import Tensor

__all__ = ["GOLDEN_SCENARIOS", "build_schedule", "golden_dir", "regen_all", "main"]


def _tiny_cfg(num_layers: int = 1) -> GPTConfig:
    return GPTConfig(
        name="golden-tiny",
        num_layers=num_layers,
        hidden_size=24,
        num_heads=4,
        seq_len=10,
        vocab_size=32,
    )


def _gpt_step(grid: Grid4D, batch: int) -> CommTracer:
    """One seeded forward+backward of the tiny parallel GPT on ``grid``."""
    assert grid.tracer is not None
    cfg = _tiny_cfg()
    model = ParallelGPT(grid, cfg, seed=0)
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (batch, 6))
    model.loss(ids).backward()
    return grid.tracer


def _scenario_axonn_4d() -> CommTracer:
    tracer = CommTracer()
    grid = Grid4D(GridConfig(2, 2, 2, 1), tracer=tracer)
    return _gpt_step(grid, batch=4)


def _scenario_axonn_4d_hier() -> CommTracer:
    """The 4D scenario's schedule under two-level collectives.

    A toy 2-GPUs-per-node machine makes the X groups of a
    ``(Gx=4, Gy=1, Gz=2)`` grid straddle two nodes (L=2 members per
    node, Q=2 nodes), so every X all-reduce decomposes into the
    ``|hier.*`` sub-collectives this golden pins.
    """
    machine = MachineSpec(
        name="golden-2pn",
        gpu=GPUSpec("toy", 1e15, 5e14, 4e10),
        gpus_per_node=2,
        intra_node_bw=1e11,
        inter_node_bw=1e11,
        total_gpus=64,
    )
    placement = Placement(machine, 8)
    tracer = CommTracer()
    grid = Grid4D(
        GridConfig(4, 1, 2, 1, collective_algo="hierarchical"),
        placement=placement,
        tracer=tracer,
    )
    with grid.collective_scope():
        return _gpt_step(grid, batch=4)


def _scenario_axonn_seq_ring() -> CommTracer:
    """Sequence-parallel ring attention: a ``(Gx=2, Gseq=2)`` grid whose
    attention cores rotate fused K+V blocks around the sequence rings via
    traced ``send_recv`` (tag ``seq.ring_kv``) — the golden pins the ring
    schedule alongside the usual 4D collectives."""
    tracer = CommTracer()
    grid = Grid4D(GridConfig(2, 1, 1, 1, 2), tracer=tracer)
    return _gpt_step(grid, batch=2)


def _scenario_fsdp() -> CommTracer:
    tracer = CommTracer()
    grid = make_degenerate_grid("fsdp", 4, tracer=tracer)
    return _gpt_step(grid, batch=4)


def _scenario_megatron() -> CommTracer:
    tracer = CommTracer()
    grid = make_degenerate_grid("megatron", 2, tracer=tracer)
    return _gpt_step(grid, batch=2)


def _scenario_pipeline() -> CommTracer:
    from ..nn import GPT

    cfg = _tiny_cfg(num_layers=4)
    model = GPT(cfg, seed=0)
    tracer = CommTracer()
    pipe = PipelineGPT(model, partition_layers(4, 3), comm_tracer=tracer)
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (4, 6))
    pipe.loss(ids, num_microbatches=2)
    return tracer


def _scenario_moe() -> CommTracer:
    rng = np.random.default_rng(0)
    layer = MoELayer(8, 4, k=2, rng=rng)
    group = ProcessGroup((0, 1))
    tracer = CommTracer()
    ep = ExpertParallelMoE(layer, group, tracer=tracer)
    x_parts = {r: Tensor(rng.standard_normal((5, 8))) for r in group.ranks}
    out_parts, aux = ep.forward(x_parts)
    (sum(t.sum() for t in out_parts.values()) + aux).backward()
    return tracer


def _scenario_serve_tp() -> CommTracer:
    """Tensor-parallel serving at ``G_x = 2``: two prefills of different
    lengths, then two batched decode steps.  Pins the per-layer
    ``serve.proj_AR_x`` / ``serve.mlp_AR_x`` all-reduces and the
    ``serve.head_AG_x`` vocabulary all-gather of every forward."""
    from ..nn import GPT
    from ..serving import TensorParallelDecoder

    cfg = _tiny_cfg()
    tracer = CommTracer()
    dec = TensorParallelDecoder(
        GPT(cfg, seed=0), Grid4D(GridConfig(2, 1, 1, 1), tracer=tracer)
    )
    rng = np.random.default_rng(0)
    for seq_id, n in enumerate((3, 5)):
        dec.add_sequence(seq_id, n + 2)
        dec.prefill(seq_id, rng.integers(0, cfg.vocab_size, n))
    for tokens in ((1, 2), (3, 4)):
        dec.decode_step(np.asarray(tokens), [0, 1])
    return tracer


#: Scenario name -> zero-argument builder returning the recorded tracer.
GOLDEN_SCENARIOS = {
    "axonn_4d": _scenario_axonn_4d,
    "axonn_4d_hier": _scenario_axonn_4d_hier,
    "axonn_seq_ring": _scenario_axonn_seq_ring,
    "fsdp": _scenario_fsdp,
    "megatron": _scenario_megatron,
    "pipeline": _scenario_pipeline,
    "moe": _scenario_moe,
    "serve_tp": _scenario_serve_tp,
}


def golden_dir() -> Path:
    """``tests/golden/`` relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def build_schedule(name: str) -> str:
    """Run one scenario and return its canonical schedule JSON.

    The schedule is validated before serialization — a golden that would
    not pass the validator is refused at generation time.
    """
    tracer = GOLDEN_SCENARIOS[name]()
    assert_valid_schedule(tracer)
    return dump_schedule(tracer)


def regen_all(out_dir: Path | None = None, verbose: bool = True) -> list[Path]:
    """Regenerate every golden trace file; returns the written paths."""
    out_dir = golden_dir() if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(GOLDEN_SCENARIOS):
        text = build_schedule(name)
        path = out_dir / f"{name}.json"
        path.write_text(text)
        written.append(path)
        if verbose:
            print(f"wrote {path} ({len(text)} bytes)")
    return written


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.tools regen-goldens", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--out", default=None, help="golden directory (default: tests/golden)"
    )
    args = parser.parse_args(argv)
    regen_all(Path(args.out) if args.out else None)
    return 0
