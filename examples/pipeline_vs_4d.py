#!/usr/bin/env python
"""Pipeline parallelism vs the 4D algorithm, functionally and in time.

Two demonstrations in one script:

1. **Functional**: a GPipe pipeline over virtual stages trains the exact
   same GPT to the exact same weights as serial training — and so does
   the 4D-parallel model.  Three routes, one function.
2. **Performance**: at Frontier scale, the Megatron-style TP x PP x DP
   hybrid is compared with AxoNN's auto-configured 4D grid, showing the
   pipeline bubble and where the 4D configuration wins.

Run:  python examples/pipeline_vs_4d.py
"""

import numpy as np

from repro.autotune import PlanRequest
from repro.cluster import FRONTIER
from repro.config import GPTConfig, get_model
from repro.core import Grid4D, GridConfig, ParallelGPT
from repro.nn import GPT
from repro.runtime import CommTracer
from repro.pipeline import (
    PipelineConfig,
    PipelineGPT,
    partition_layers,
    simulate_pipeline_iteration,
)
from repro.simulate import run_point


def functional_demo() -> None:
    print("=== functional: three routes, one computation ===")
    cfg = GPTConfig(
        name="demo", num_layers=4, hidden_size=16, num_heads=4,
        seq_len=12, vocab_size=32,
    )
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (4, 10))

    serial = GPT(cfg, seed=1)
    ref = serial.loss(ids).item()

    pipe_model = GPT(cfg, seed=1)
    tracer = CommTracer()
    pipe = PipelineGPT(pipe_model, partition_layers(4, 4), tracer=tracer)
    pipe_loss = pipe.loss(ids, num_microbatches=2)

    par = ParallelGPT.from_serial(serial, Grid4D(GridConfig(2, 1, 2)))
    par_loss = par.loss(ids).item()

    print(f"  serial loss            : {ref:.8f}")
    print(f"  GPipe (4 stages, 2 mb) : {pipe_loss:.8f}")
    print(f"  AxoNN 4D (2x1x2 grid)  : {par_loss:.8f}")
    def sends(kind: str) -> int:
        return sum(r.tag.startswith(f"pipeline.{kind}:") for r in tracer.records)

    print(
        f"  pipeline p2p transfers : {sends('activation')} activation"
        f" + {sends('gradient')} gradient sends"
    )
    assert abs(pipe_loss - ref) < 1e-9 and abs(par_loss - ref) < 1e-9


def performance_demo() -> None:
    print("\n=== performance: GPT-80B on 8,192 Frontier GCDs ===")
    cfg = get_model("GPT-80B")
    batch = 8192

    pipe_cfg = PipelineConfig(tp=8, pp=2, dp=512)
    pipe = simulate_pipeline_iteration(
        cfg, batch, pipe_cfg, FRONTIER, num_microbatches=16
    )
    axonn = run_point(
        PlanRequest("GPT-80B", 8192, FRONTIER, global_batch=batch)
    )

    print(f"  Megatron-style {pipe_cfg}:")
    print(
        f"    batch {pipe.total_time:.2f}s  compute {pipe.compute_time:.2f}s  "
        f"bubble {pipe.bubble_time:.2f}s ({pipe.bubble_fraction:.1%})  "
        f"TP comm {pipe.tp_comm_time:.2f}s"
    )
    print(f"  AxoNN 4D {axonn.config}:")
    print(
        f"    batch {axonn.result.total_time:.2f}s  "
        f"compute {axonn.result.compute_time:.2f}s  "
        f"exposed comm {axonn.result.exposed_comm_time:.2f}s"
    )
    gain = 1 - axonn.result.total_time / pipe.total_time
    print(f"  -> 4D configuration is {gain:.1%} faster on this job")


if __name__ == "__main__":
    functional_demo()
    performance_demo()
