"""Serving frontier report: p50/p99 latency and SLO attainment vs load.

Sweeps offered load over a seeded arrival trace through the serving
simulator (:mod:`repro.simulate.serving`) and prints the
throughput/latency frontier of one tensor-parallel serving instance,
plus a small real-engine smoke run (tiny model, actual floats) whose
paged-KV write traffic is reported next to the concat-cache baseline.

With ``--chaos`` the report becomes the SLO-degradation surface: the
same load sweep is rerun under MTBF-driven instance failures
(:func:`repro.simulate.serving.chaos_sweep`) at each ``--mtbfs`` value,
and the real-engine smoke runs the failure-hardened
:class:`~repro.serving.resilience.ResilientTPEngine` under an injected
kill + delayed-collective fault plan, checking every completed request
bitwise against per-request greedy decoding.

Usage::

    python -m repro.tools serve-report MODEL TP [MACHINE]
        [--rates R1,R2,...] [--num-requests N] [--seed N]
        [--trace poisson|bursty] [--max-batch N] [--block-size N]
        [--num-blocks N] [--collective-algo flat|hierarchical|auto]
        [--slo-multiplier F] [--max-waiting N] [--ttft-deadline S]
        [--chaos] [--mtbfs M1,M2,...] [--restart-time S]
        [--chaos-seed N] [--smoke/--no-smoke] [--out DIR]

Examples::

    python -m repro.tools serve-report GPT-20B 8
    python -m repro.tools serve-report GPT-80B 16 alps --rates 1,4,16,64
    python -m repro.tools serve-report GPT-20B 8 --chaos --mtbfs inf,60,10
"""

from __future__ import annotations

import argparse

import numpy as np

from ..cluster import get_machine
from ..config import GPTConfig, get_model
from ..serving import BatchingConfig, bursty_trace, poisson_trace
from ..simulate.serving import (
    ServingModel,
    ServingResult,
    chaos_sweep,
    sweep_offered_load,
)
from ..telemetry.export import write_bench_json
from .ascii_plot import line_chart

__all__ = ["main"]


def _smoke_engine(seed: int) -> dict[str, float]:
    """Tiny real-engine run: actual floats, paged vs concat KV traffic.

    Prompts reach past one prefill attention tile
    (``nn/generation.py::_TILE_QUERIES``), so "0 mismatches" covers the
    tiled prefill as well as decode."""
    from ..nn.generation import generate_greedy
    from ..nn.transformer import GPT
    from ..serving import ServingEngine

    cfg = GPTConfig(
        name="serve-smoke", num_layers=2, hidden_size=32, num_heads=4,
        seq_len=64, vocab_size=64,
    )
    model = GPT(cfg, seed=seed)
    reqs = poisson_trace(
        1.0, 8, seed=seed, vocab_size=cfg.vocab_size,
        prompt_lens=(24, 52), max_new_tokens=(4, 12),
    )
    engine = ServingEngine(
        model, BatchingConfig(max_batch=4, block_size=8, num_blocks=64)
    )
    finished = engine.run(reqs)
    mismatches = 0
    for fin in finished:
        ref = generate_greedy(
            model, fin.request.prompt, fin.request.max_new_tokens
        )
        if not np.array_equal(fin.tokens, ref):
            mismatches += 1
    tokens = sum(f.num_tokens for f in finished)
    return {
        "requests": len(finished),
        "tokens": tokens,
        "longest_prompt": max(r.prompt_len for r in reqs),
        "token_mismatches_vs_greedy": mismatches,
        "paged_copied_bytes": engine.kv.copied_bytes,
        "decode_steps": engine.step_count,
    }


def _chaos_smoke_engine(seed: int) -> dict[str, float]:
    """Tiny chaos run: the resilient TP engine under an injected rank
    kill, one beyond-budget collective delay (forward re-issued), one
    covered delay (absorbed), and a KV pool small enough to force
    preemption — completions checked bitwise against lone greedy runs."""
    from ..core.grid import Grid4D, GridConfig
    from ..nn.generation import generate_greedy
    from ..nn.transformer import GPT
    from ..runtime.faults import (
        FaultInjector,
        FaultPlan,
        FaultSpec,
        RetryPolicy,
    )
    from ..serving import ResilientTPEngine

    cfg = GPTConfig(
        name="chaos-smoke", num_layers=2, hidden_size=32, num_heads=4,
        seq_len=64, vocab_size=64,
    )
    model = GPT(cfg, seed=seed)
    reqs = poisson_trace(
        1.0, 8, seed=seed, vocab_size=cfg.vocab_size,
        prompt_lens=(2, 10), max_new_tokens=(4, 12),
    )
    plan = FaultPlan(faults=(
        FaultSpec(kind="kill", rank=1, step=3),
        FaultSpec(kind="delay_wait", op="all_reduce", match=5, delay=1e9),
        FaultSpec(kind="delay_wait", op="all_reduce", match=9, delay=1.5),
    ))
    injector = FaultInjector(
        plan, retry=RetryPolicy(timeout=2.0, max_retries=2)
    )
    engine = ResilientTPEngine(
        model,
        Grid4D(GridConfig(2, 1, 1, 1)),
        BatchingConfig(max_batch=4, block_size=8, num_blocks=6),
        injector=injector,
    )
    finished = engine.run(reqs)
    mismatches = 0
    for fin in finished:
        ref = generate_greedy(
            model, fin.request.prompt, fin.request.max_new_tokens
        )
        if not np.array_equal(fin.tokens, ref):
            mismatches += 1
    rep = engine.report()
    return {
        "requests": len(reqs),
        "finished": rep.num_finished,
        "token_mismatches_vs_greedy": mismatches,
        "rank_failures": rep.rank_failures,
        "step_timeouts": rep.step_timeouts,
        "preemptions": rep.preemptions,
        "recompute_tokens": rep.recompute_tokens,
        "shrinks": len(rep.shrink_history),
        "rejections": sum(rep.rejected_by_cause.values()),
    }


def _surface_table(
    mtbfs: list[float | None], surface: list[list[ServingResult]]
) -> str:
    """SLO attainment per (node MTBF, offered load) cell, with the
    failure/preemption counts that caused each degradation."""
    rates = [r.offered_load for r in surface[0]]
    head = f"{'node MTBF':>12} " + " ".join(
        f"{f'{x:.2f} r/s':>18}" for x in rates
    )
    rows = [head, "-" * len(head)]
    for mtbf, row in zip(mtbfs, surface):
        label = "fault-free" if mtbf is None else f"{mtbf:.0f} s"
        cells = " ".join(
            "{:>18}".format(
                f"{r.slo_attainment:.2f} "
                f"(f{r.instance_failures}/p{r.preemptions})"
            )
            for r in row
        )
        rows.append(f"{label:>12} {cells}")
    return "\n".join(rows)


def _frontier_table(results: list[ServingResult]) -> str:
    head = (
        f"{'rate r/s':>9} {'tok/s':>9} {'p50 ttft':>9} {'p99 ttft':>9} "
        f"{'p50 e2e':>9} {'p99 e2e':>9} {'SLO':>6} {'batch':>6}"
    )
    rows = [head, "-" * len(head)]
    for r in results:
        rows.append(
            f"{r.offered_load:9.3f} {r.tokens_per_s:9.1f} "
            f"{r.p50_ttft:9.3f} {r.p99_ttft:9.3f} "
            f"{r.p50_e2e:9.3f} {r.p99_e2e:9.3f} "
            f"{r.slo_attainment:6.2f} {r.mean_batch:6.1f}"
        )
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    from .common import planner_parent_parser

    parser = argparse.ArgumentParser(
        prog="repro.tools serve-report",
        description=__doc__.splitlines()[0],
        parents=[
            planner_parent_parser(
                seed_help="arrival-trace / engine-smoke seed (default: 0)",
                out_help="BENCH json directory",
            )
        ],
    )
    parser.add_argument("model", help="model name, e.g. GPT-20B")
    parser.add_argument("tp", type=int, help="tensor-parallel degree")
    parser.add_argument(
        "machine", nargs="?", default="frontier",
        help="machine name (default: frontier)",
    )
    parser.add_argument(
        "--rates", default="0.5,1,2,4,8,16",
        help="comma-separated offered loads (requests/s)",
    )
    parser.add_argument("--num-requests", type=int, default=64)
    parser.add_argument(
        "--trace", choices=("poisson", "bursty"), default="poisson"
    )
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--block-size", type=int, default=16)
    parser.add_argument("--num-blocks", type=int, default=8192)
    parser.add_argument("--slo-multiplier", type=float, default=3.0)
    parser.add_argument(
        "--max-waiting", type=int, default=None,
        help="bound the waiting queue (arrivals beyond it are shed)",
    )
    parser.add_argument(
        "--ttft-deadline", type=float, default=None,
        help="shed requests still queued this many seconds after arrival",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="sweep MTBF-driven instance failures x offered load",
    )
    parser.add_argument(
        "--mtbfs", default="inf,120,30,10",
        help="comma-separated per-node MTBFs in seconds (inf = fault-free)",
    )
    parser.add_argument(
        "--restart-time", type=float, default=5.0,
        help="instance restart charge per failure (seconds)",
    )
    parser.add_argument("--chaos-seed", type=int, default=0)
    parser.add_argument(
        "--no-smoke", action="store_true",
        help="skip the tiny real-engine numerical smoke run",
    )
    args = parser.parse_args(argv)

    cfg = get_model(args.model)
    machine = get_machine(args.machine)
    rates = [float(r) for r in args.rates.split(",") if r]
    model = ServingModel(
        cfg, machine, tp=args.tp, collective_algo=args.collective_algo
    )
    batching = BatchingConfig(
        max_batch=args.max_batch,
        block_size=args.block_size,
        num_blocks=args.num_blocks,
        max_waiting=args.max_waiting,
        ttft_deadline=args.ttft_deadline,
    )
    trace = poisson_trace if args.trace == "poisson" else bursty_trace

    if args.chaos:
        return _chaos_main(args, cfg, machine, model, batching, rates, trace)

    results = sweep_offered_load(
        rates, args.num_requests, model, batching,
        seed=args.seed, slo_multiplier=args.slo_multiplier, trace=trace,
    )

    print(
        f"Serving frontier: {cfg.name} tp={args.tp} on {machine.name} "
        f"({args.trace} trace, {args.num_requests} requests, "
        f"seed {args.seed}, algo {args.collective_algo})"
    )
    print()
    print(_frontier_table(results))
    print()
    print(
        line_chart(
            [r.offered_load for r in results],
            {
                "p99 e2e (s)": [r.p99_e2e for r in results],
                "p50 e2e (s)": [r.p50_e2e for r in results],
            },
            x_label="offered load (requests/s)",
        )
    )

    smoke = None
    if not args.no_smoke:
        smoke = _smoke_engine(args.seed)
        print(
            f"engine smoke: {smoke['requests']} requests, "
            f"{smoke['tokens']} tokens, "
            f"{smoke['token_mismatches_vs_greedy']} mismatches vs "
            f"per-request greedy, paged KV wrote "
            f"{smoke['paged_copied_bytes']:,} bytes"
        )

    if args.out:
        metrics: dict[str, object] = {
            "frontier": [r.to_dict() for r in results],
            "tokens_per_s_max": max(r.tokens_per_s for r in results),
            "p99_e2e_s_max": max(r.p99_e2e for r in results),
        }
        if smoke is not None:
            metrics["engine_smoke"] = smoke
        path = write_bench_json(
            args.out,
            "serving_frontier",
            metrics,
            meta={
                "model": cfg.name,
                "machine": machine.name,
                "tp": args.tp,
                "trace": args.trace,
                "seed": args.seed,
                "algo": args.collective_algo,
                "num_requests": args.num_requests,
            },
        )
        print(f"wrote {path}")
    return 0


def _chaos_main(args, cfg, machine, model, batching, rates, trace) -> int:
    """``--chaos``: SLO degradation surface + resilient-engine smoke."""
    mtbfs: list[float | None] = [
        None if m.strip() in ("inf", "none") else float(m)
        for m in args.mtbfs.split(",")
        if m.strip()
    ]
    surface = chaos_sweep(
        rates, mtbfs, args.num_requests, model, batching,
        seed=args.seed, chaos_seed=args.chaos_seed,
        slo_multiplier=args.slo_multiplier,
        restart_time=args.restart_time, trace=trace,
    )

    print(
        f"Serving chaos surface: {cfg.name} tp={args.tp} on {machine.name} "
        f"({args.trace} trace, {args.num_requests} requests, "
        f"seed {args.seed}/{args.chaos_seed}, restart "
        f"{args.restart_time:g}s)"
    )
    print()
    print("SLO attainment (f = instance failures, p = preemptions):")
    print(_surface_table(mtbfs, surface))
    print()
    print(
        line_chart(
            [r.offered_load for r in surface[0]],
            {
                (
                    "fault-free" if m is None else f"mtbf {m:g}s"
                ): [r.slo_attainment for r in row]
                for m, row in zip(mtbfs, surface)
            },
            x_label="offered load (requests/s)",
        )
    )

    smoke = None
    if not args.no_smoke:
        smoke = _chaos_smoke_engine(args.seed)
        print(
            f"chaos smoke: {smoke['finished']}/{smoke['requests']} finished, "
            f"{smoke['token_mismatches_vs_greedy']} mismatches vs "
            f"per-request greedy; survived {smoke['rank_failures']} rank "
            f"failures ({smoke['shrinks']} shrinks), "
            f"{smoke['step_timeouts']} timeouts, "
            f"{smoke['preemptions']} preemptions "
            f"({smoke['recompute_tokens']} tokens recomputed)"
        )

    if args.out:
        metrics: dict[str, object] = {
            "surface": [
                {
                    "node_mtbf_s": mtbf,
                    "results": [r.to_dict() for r in row],
                }
                for mtbf, row in zip(mtbfs, surface)
            ],
            "slo_attainment_min": min(
                r.slo_attainment for row in surface for r in row
            ),
            "instance_failures_total": sum(
                r.instance_failures for row in surface for r in row
            ),
        }
        if smoke is not None:
            metrics["chaos_smoke"] = smoke
        path = write_bench_json(
            args.out,
            "serving_chaos",
            metrics,
            meta={
                "model": cfg.name,
                "machine": machine.name,
                "tp": args.tp,
                "trace": args.trace,
                "seed": args.seed,
                "chaos_seed": args.chaos_seed,
                "algo": args.collective_algo,
                "num_requests": args.num_requests,
                "mtbfs_s": [m if m is not None else "inf" for m in mtbfs],
                "restart_time_s": args.restart_time,
            },
        )
        print(f"wrote {path}")
    return 0
