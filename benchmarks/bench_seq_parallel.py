"""Sequence-parallel ring attention: the SP-vs-plain-TP crossover.

Long context shifts the balance between the classic 4D grid (whole
sequence per rank, all-reduce-dominated) and the sequence-parallel ring
(S/G_seq per rank, KV rotation p2p): the ring adds hops but shrinks the
live attention score block by ``G_seq^2`` and the per-rank GEMM rows by
``G_seq``.  This benchmark sweeps sequence length for GPT-5B on 32
devices of perlmutter and frontier, simulating the perfmodel's best
classic grid against its best ring grid at every point, and locks in:

* at 2k context the classic grid wins on both machines;
* at 128k context *no* classic grid fits in device memory while ring
  grids still run — the crossover is forced, not marginal;
* perfmodel and simulator agree on the winner at both sweep endpoints.

Publishes per-point batch times, the crossover sequence length, and the
long-context ring throughput in ``BENCH_seq_parallel.json``.
"""

from conftest import RESULTS_DIR, run_once

from repro.cluster import get_machine
from repro.config import get_model
from repro.perfmodel import rank_configurations
from repro.simulate import simulate_iteration
from repro.telemetry import bench_summary

NUM_GPUS = 32
BATCH = 8
MAX_GS = 8
SEQ_LENS = [2048, 8192, 32768, 65536, 131072]
MACHINES = ["perlmutter", "frontier"]


def _best_pair(cfg, machine):
    """(best classic RankedConfig | None, best ring RankedConfig | None)."""
    ranked = rank_configurations(cfg, BATCH, NUM_GPUS, machine, max_gs=MAX_GS)
    plain = next((r for r in ranked if r.config.gs == 1), None)
    sp = next((r for r in ranked if r.config.gs > 1), None)
    return plain, sp


def _simulate(cfg, config, machine) -> float:
    return simulate_iteration(
        cfg, BATCH, config, machine, timing_only=True
    ).total_time


def test_seq_parallel(benchmark, report):
    base = get_model("GPT-5B")

    def experiment():
        points = []
        for mname in MACHINES:
            machine = get_machine(mname)
            for s in SEQ_LENS:
                cfg = base.scaled(seq_len=s, name=f"GPT-5B-{s // 1024}k")
                plain, sp = _best_pair(cfg, machine)
                t_plain = (
                    _simulate(cfg, plain.config, machine) if plain else None
                )
                t_sp = _simulate(cfg, sp.config, machine) if sp else None
                points.append(
                    {
                        "machine": mname,
                        "seq_len": s,
                        "plain_config": str(plain.config) if plain else None,
                        "sp_config": str(sp.config) if sp else None,
                        "plain_time_s": t_plain,
                        "sp_time_s": t_sp,
                        "pm_plain_s": plain.predicted_time if plain else None,
                        "pm_sp_s": sp.predicted_time if sp else None,
                    }
                )
        return points

    points = run_once(benchmark, experiment)

    crossover = {}
    report.line(
        f"SP-vs-plain-TP crossover: GPT-5B, {NUM_GPUS} devices, "
        f"batch {BATCH}, max G_seq {MAX_GS}"
    )
    for mname in MACHINES:
        rows = []
        for p in (q for q in points if q["machine"] == mname):
            s = p["seq_len"]
            t_plain, t_sp = p["plain_time_s"], p["sp_time_s"]
            winner = (
                "sp"
                if t_plain is None or (t_sp is not None and t_sp < t_plain)
                else "plain"
            )
            if winner == "sp" and mname not in crossover:
                crossover[mname] = s
            rows.append(
                [
                    s,
                    p["plain_config"] or "infeasible",
                    f"{t_plain:.3f}" if t_plain is not None else "-",
                    p["sp_config"] or "infeasible",
                    f"{t_sp:.3f}" if t_sp is not None else "-",
                    winner,
                ]
            )
        report.line()
        report.line(f"{mname}:")
        report.table(
            ["seq", "best classic", "t (s)", "best ring", "t (s)", "winner"],
            rows,
        )

    for mname in MACHINES:
        long_pt = next(
            p
            for p in points
            if p["machine"] == mname and p["seq_len"] == SEQ_LENS[-1]
        )
        tok_s = BATCH * long_pt["seq_len"] / long_pt["sp_time_s"]
        report.metric(f"crossover_seq_len_{mname}", crossover[mname])
        report.metric(f"sp_128k_batch_time_s_{mname}", long_pt["sp_time_s"])
        report.metric(f"sp_128k_tokens_per_s_{mname}", tok_s)
        report.line()
        report.line(
            f"{mname}: crossover at S={crossover[mname]}, 128k ring "
            f"throughput {tok_s:,.0f} tokens/s ({long_pt['sp_config']})"
        )
    report.meta = {
        "model": "GPT-5B",
        "num_gpus": NUM_GPUS,
        "batch": BATCH,
        "max_gs": MAX_GS,
        "points": points,
    }
    # The acceptance artifact, under its stable name (written on save).
    report.bench_name = "seq_parallel"
    # Repo-relative, so the committed table does not depend on where the
    # repository is checked out.
    repo = RESULTS_DIR.resolve().parents[1]
    written = (RESULTS_DIR / "BENCH_seq_parallel.json").resolve().relative_to(repo)
    report.line(f"wrote {written.as_posix()}")

    # The CI gates (the tier-1 figure step and hierarchical-smoke).
    for mname in MACHINES:
        short = next(
            p
            for p in points
            if p["machine"] == mname and p["seq_len"] == SEQ_LENS[0]
        )
        long_pt = next(
            p
            for p in points
            if p["machine"] == mname and p["seq_len"] == SEQ_LENS[-1]
        )
        # Short context: classic wins, and perfmodel agrees.
        assert short["plain_time_s"] < short["sp_time_s"]
        assert short["pm_plain_s"] < short["pm_sp_s"]
        # 128k: every classic grid is memory-infeasible; the ring runs.
        assert short["plain_config"] is not None
        assert long_pt["plain_config"] is None
        assert long_pt["sp_time_s"] is not None and long_pt["sp_time_s"] > 0

    # The artifact document (what save() writes): its schema, a
    # crossover no earlier than 8k on both machines, and a running 128k
    # ring.
    doc = bench_summary(report.bench_name, report.metrics, report.meta)
    assert doc["schema"] == "repro.bench/v1", doc["schema"]
    m = doc["metrics"]
    for mname in MACHINES:
        assert m[f"crossover_seq_len_{mname}"] >= 8192, m
        assert m[f"sp_128k_tokens_per_s_{mname}"] > 0, m
