"""Profile a small 4D-parallel training run under telemetry.

Usage::

    python -m repro.tools profile run --config tiny [--out DIR]
        [--seed N] [--steps N] [--name NAME] [--max-overhead-pct F]

Runs ``steps`` training steps of a small :class:`ParallelGPT` through
:class:`repro.nn.MixedPrecisionTrainer` — the step the benchmark spine
times — under an active :class:`repro.telemetry.Tracer`, and emits:

* ``<out>/trace_<name>.json`` — Chrome ``trace_event`` JSON, loadable
  in ``chrome://tracing`` / Perfetto;
* ``<out>/BENCH_<name>.json`` — the flat benchmark summary (span
  timings, byte/call counters, telemetry overhead);
* the split of a step into the trainer's ``loss`` / ``backward`` /
  ``optimizer.step`` spans and an ASCII flamegraph of the span
  hierarchy on stdout.

Four cross-checks back the artifacts:

1. the traced per-tag collective bytes must equal the analytic forward
   volumes from :func:`repro.perfmodel.gpt_forward_backward_volumes`
   (backward and the optimizer issue no collective of their own);
2. the written trace must pass
   :func:`repro.telemetry.validate_chrome_trace`;
3. with ``--max-overhead-pct``, the enabled-vs-disabled wall-clock
   overhead of telemetry must stay under the bound (a gate of the
   bench-spine-smoke CI job);
4. the traced forward flops (``compute.flops.pmm3d``, the grid's local
   matmuls) must equal the analytic ones, ``LayerShape.flops`` summed
   over :func:`repro.perfmodel.gpt_layer_shapes`.

A failed check makes the exit status non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from ..config import GPTConfig
from ..core import Grid4D, GridConfig, ParallelGPT
from ..nn import GPT, AdamW, MixedPrecisionTrainer
from ..perfmodel import gpt_forward_backward_volumes, gpt_layer_shapes
from ..telemetry import (
    Tracer,
    ascii_flamegraph,
    telemetry_scope,
    validate_chrome_trace,
    write_bench_json,
    write_chrome_trace,
)

__all__ = ["main", "profile", "PRESETS"]

#: Named (gx, gy, gz, gdata) grids the profiler knows how to size a
#: model for (:func:`_preset_model` satisfies
#: :func:`repro.core.infeasibility_reason` on each).
PRESETS = {
    "tiny": (2, 1, 1, 1),
    "smoke": (2, 2, 1, 1),
}


def _preset_model(config: str) -> tuple[GPTConfig, GridConfig, int]:
    """A GPT sized to shard cleanly on the preset grid, plus the batch."""
    gx, gy, gz, gdata = PRESETS[config]
    cfg = GPTConfig(
        name=f"profile-{config}",
        num_layers=2,
        hidden_size=8 * gx * gy * gz,
        num_heads=2 * gx,
        seq_len=8,
        vocab_size=16 * gx,
    )
    return cfg, GridConfig(gx, gy, gz, gdata), 2 * gz


#: The trainer's spans of one step, in order, by leaf name (they nest
#: under ``train.step;micro_step``).
STEP_SPANS = ("loss", "backward", "optimizer.step")


def _wall_seconds(
    trainer: MixedPrecisionTrainer, ids: np.ndarray, steps: int
) -> float:
    t0 = time.perf_counter()
    for _ in range(steps):
        trainer.step(ids)
    return time.perf_counter() - t0


def profile(
    config: str,
    *,
    steps: int = 3,
    seed: int = 0,
    out: str = "bench_out",
    name: str | None = None,
    width: int = 72,
    max_overhead_pct: float | None = None,
) -> int:
    """Run the profile; returns a process exit status (0 = all good)."""
    name = name or config
    cfg, grid_cfg, batch = _preset_model(config)
    grid = Grid4D(GridConfig(grid_cfg.gx, grid_cfg.gy, grid_cfg.gz))
    model = ParallelGPT.from_serial(GPT(cfg, seed=seed), grid)
    trainer = MixedPrecisionTrainer(model, AdamW(model.parameters()), bf16=False)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, cfg.vocab_size, (batch, cfg.seq_len - 1))

    # Metrics pass: one tracer owns the spans and counters we export.
    _wall_seconds(trainer, ids, 1)  # warm-up outside the scope
    tracer = Tracer()
    with telemetry_scope(tracer):
        _wall_seconds(trainer, ids, steps)

    # Overhead: best-of-3 wall clock, telemetry off vs on (fresh,
    # throwaway tracers so the metrics pass above stays clean).
    t_off = min(_wall_seconds(trainer, ids, steps) for _ in range(3))
    t_on = []
    for _ in range(3):
        with telemetry_scope(Tracer()):
            t_on.append(_wall_seconds(trainer, ids, steps))
    t_on = min(t_on)
    overhead_pct = (t_on - t_off) / t_off * 100.0 if t_off > 0 else 0.0

    # Cross-check: traced bytes vs the analytic forward volumes.  Each
    # step communicates exactly one forward's worth of bytes: backward
    # is autograd accumulation over the one graph that holds every
    # rank, and the optimizer updates shards in place.
    vol = gpt_forward_backward_volumes(
        cfg, batch, grid.config, dtype_bytes=8, seq_len=ids.shape[1] - 1
    )
    val = tracer.metrics.value
    checks = {
        "ag_z": (val("comm.tag_bytes.linear.AG_z"), steps * vol.ag_z),
        "ar_fwd": (
            val("comm.tag_bytes.linear.AR_x")
            + val("comm.tag_bytes.linear.AR_y"),
            steps * vol.ar_fwd,
        ),
    }
    volume_ok = all(
        math.isclose(traced, analytic, rel_tol=1e-9, abs_tol=1e-6)
        for traced, analytic in checks.values()
    )
    # Cross-check: traced flops vs the analytic GEMM shapes (the forward's
    # FC layers and LM head; backward products are not counted).
    flops = (
        val("compute.flops.pmm3d"),
        steps * sum(
            layer.flops for layer in gpt_layer_shapes(
                cfg.scaled(seq_len=ids.shape[1] - 1), batch
            )
        ),
    )
    flops_ok = flops[0] == flops[1]

    step_ms = dict.fromkeys(STEP_SPANS, 0.0)
    for span in tracer.spans:
        if span.name in step_ms:
            step_ms[span.name] += span.duration / steps * 1e3
    g = tracer.metrics.gauge
    g("profile.steps").set(steps)
    for span_name, ms in step_ms.items():
        g(f"profile.step_ms.{span_name}").set(ms)
    g("profile.time_enabled_s").set(t_on)
    g("profile.time_disabled_s").set(t_off)
    g("profile.overhead_pct").set(overhead_pct)

    meta = {
        "config": config,
        "grid": list(grid_cfg.dims),
        "model": cfg.name,
        "batch": batch,
        "seed": seed,
        "volume_check": {
            k: {"traced": traced, "analytic": analytic}
            for k, (traced, analytic) in checks.items()
        },
        "volume_ok": volume_ok,
        "flops_check": {"traced": flops[0], "analytic": flops[1]},
        "flops_ok": flops_ok,
    }
    trace_path = write_chrome_trace(
        f"{out}/trace_{name}.json", tracer, metadata=meta
    )
    bench_path = write_bench_json(out, name, tracer, meta)
    trace_problems = validate_chrome_trace(json.loads(trace_path.read_text()))

    print(
        f"profiled {cfg.name} on {grid_cfg}: {steps} step(s), "
        f"batch {batch}, seed {seed}"
    )
    print(
        f"  telemetry overhead: {overhead_pct:+.1f}% "
        f"(on {t_on * 1e3:.1f} ms vs off {t_off * 1e3:.1f} ms, "
        "best of 3)"
    )
    total_ms = sum(step_ms.values())
    print(
        f"  one step {total_ms:.1f} ms: "
        + " | ".join(
            f"{span_name} {ms:.1f} ms ({ms / total_ms:.0%})"
            for span_name, ms in step_ms.items()
        )
    )
    for k, (traced, analytic) in checks.items():
        mark = "==" if volume_ok else "!="
        print(f"  bytes[{k}]: traced {traced:.0f} {mark} analytic {analytic:.0f}")
    mark = "==" if flops_ok else "!="
    print(f"  flops: traced {flops[0]:.0f} {mark} analytic {flops[1]:.0f}")
    print(f"  wrote {trace_path}")
    print(f"  wrote {bench_path}")
    print()
    print(ascii_flamegraph(tracer, width=width))

    status = 0
    if not volume_ok:
        print("FAIL: traced bytes disagree with analytic volumes")
        status = 1
    if not flops_ok:
        print("FAIL: traced flops disagree with the analytic GEMM shapes")
        status = 1
    if trace_problems:
        print(f"FAIL: {trace_path} is not a valid Chrome trace:", trace_problems[:3])
        status = 1
    if max_overhead_pct is not None and overhead_pct > max_overhead_pct:
        print(
            f"FAIL: telemetry overhead {overhead_pct:.1f}% exceeds "
            f"--max-overhead-pct {max_overhead_pct:.1f}%"
        )
        status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools profile", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="profile a small 4D-parallel run")
    run.add_argument(
        "--config", choices=sorted(PRESETS), default="tiny",
        help="preset grid/model size (default: tiny)",
    )
    run.add_argument("--out", default="bench_out", help="artifact directory")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--steps", type=int, default=3)
    run.add_argument(
        "--name", default=None,
        help="bench name for BENCH_<name>.json (default: the config name)",
    )
    run.add_argument("--width", type=int, default=72)
    run.add_argument(
        "--max-overhead-pct", type=float, default=None,
        help="fail (exit 1) if telemetry overhead exceeds this percentage",
    )
    args = parser.parse_args(argv)
    return profile(
        args.config,
        steps=args.steps,
        seed=args.seed,
        out=args.out,
        name=args.name,
        width=args.width,
        max_overhead_pct=args.max_overhead_pct,
    )

