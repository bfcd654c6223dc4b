#!/usr/bin/env python
"""Quickstart: train a GPT with the 4D hybrid parallel algorithm.

This walks the core workflow of the library:

1. initialize a 4D grid (the ``axonn.init`` analogue);
2. parallelize a GPT configuration onto it;
3. train a few steps on the virtual SPMD runtime;
4. verify that the parallel model computes exactly what serial training
   would — the paper's central functional claim.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import axonn_init
from repro.config import GPTConfig
from repro.nn import AdamW
from repro.runtime import validate_schedule


def main() -> None:
    # A small model so the demo runs in seconds.  (The Table II zoo —
    # repro.config.MODEL_ZOO — works identically, just slower to verify.)
    cfg = GPTConfig(
        name="demo-GPT",
        num_layers=2,
        hidden_size=32,
        num_heads=4,
        seq_len=16,
        vocab_size=64,
    )

    # 1. A 2 x 1 x 2 x 1 virtual grid: 2-way X tensor parallelism
    #    (attention heads split), 2-way Z sharding (ZeRO-style weights).
    ctx = axonn_init(gx=2, gy=1, gz=2, gdata=1)
    print(f"grid: {ctx.config}  ({ctx.config.total} virtual GPUs)")

    # 2. The 4D-parallel model and its serial twin (same weights).
    parallel = ctx.parallelize(cfg)
    serial = parallel.gather_state_to_serial()
    print(f"model: {cfg.name}, {serial.num_parameters():,} parameters")

    # 3. Train both for a few steps on the same batches.
    rng = np.random.default_rng(0)
    s_opt = AdamW(serial.parameters(), lr=1e-3)
    p_opt = AdamW(parallel.parameters(), lr=1e-3)
    for step in range(5):
        ids = rng.integers(0, cfg.vocab_size, (4, cfg.seq_len))

        s_loss = serial.loss(ids)
        serial.zero_grad()
        s_loss.backward()
        s_opt.step()

        p_loss = parallel.loss(ids)
        parallel.zero_grad()
        p_loss.backward()
        p_opt.step()

        drift = abs(s_loss.item() - p_loss.item())
        print(
            f"step {step}: serial loss {s_loss.item():.6f}  "
            f"parallel loss {p_loss.item():.6f}  |diff| {drift:.2e}"
        )
        assert drift < 1e-9, "parallel training diverged from serial!"

    # 4. Peek at the communication the 4D algorithm issued, and check
    #    that every rank issued the same collectives in the same order.
    tags = {}
    for rec in ctx.tracer.records:
        if rec.group.size > 1:
            tags[rec.tag] = tags.get(rec.tag, 0) + 1
    print("\ncollectives issued (Algorithm 1):")
    for tag, count in sorted(tags.items()):
        print(f"  {tag:20s} x{count}")
    assert validate_schedule(ctx.tracer) == [], "SPMD schedule violation"
    print("\nquickstart OK: 4D-parallel training == serial training")


if __name__ == "__main__":
    main()
