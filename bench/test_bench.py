"""Checks of the benchmark itself: ``python -m pytest bench -q``.

Not collected by tier-1 (``pyproject.toml`` points pytest at ``tests/``).
The suite is run in ``--smoke`` mode (op counts / 10) as a subprocess,
the way a user runs it; the whole module takes a few minutes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run as bench_run  # noqa: E402
from probes import PROBES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def suite(*flags: str) -> tuple[dict, float]:
    """Run the suite; its output document and wall seconds."""
    t = time.time()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", *flags],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    name = "BENCH_spine_trace.json" if "--trace" in flags else "BENCH_spine.json"
    return json.loads((BENCH / "out" / name).read_text()), time.time() - t


@pytest.fixture(scope="module")
def smoke():
    return suite()


@pytest.fixture(scope="module")
def traced():
    return suite("--trace")


def workloads(doc: dict) -> dict:
    return doc["meta"]["workloads"]


def test_spec_is_within_the_contract():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert len(e2e) <= 16 and len(per_layer) <= 128
    names = e2e + per_layer + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(e2e + per_layer)) == len(e2e + per_layer)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOAD_NAMES)


def test_smoke_is_quick_complete_and_finite(smoke):
    doc, seconds = smoke
    assert seconds < 60
    assert sorted(workloads(doc)) == sorted(bench_run.WORKLOAD_NAMES)
    for w, d in workloads(doc).items():
        assert d["failed"] == 0 and d["attempted"] >= 1
        for m in SPEC["end_to_end"]:
            got = d["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["median"]) and got["median"] > 0, (w, m)


def test_counts_repeat_and_follow_the_seed_only_where_they_should(smoke):
    again, _ = suite()
    other, _ = suite("--seed", "1")
    for w, d in workloads(smoke[0]).items():
        # Same seed: same schedule, same outputs.
        assert workloads(again)[w]["counts"] == d["counts"], w
        assert workloads(again)[w]["outputs_crc"] == d["outputs_crc"], w
        # Another seed: other tokens, so other outputs, but the same
        # rounds, tokens, steps and fault counts (the planner's winners
        # follow its jitter salt, which is the seed).
        theirs = dict(workloads(other)[w]["counts"])
        ours = dict(d["counts"])
        theirs.pop("winners", None), ours.pop("winners", None)
        assert theirs == ours, w
        if w != "plan_paper_scale":
            assert workloads(other)[w]["outputs_crc"] != d["outputs_crc"], w
    chaos = workloads(smoke[0])["serve_tp_chaos"]["counts"]
    assert chaos["rank_failures"] == 1 and len(chaos["shrink_history"]) == 1


def test_traced_pass_emits_every_layer_metric_and_repeats(traced):
    doc, _ = traced
    again, _ = suite("--trace")
    # The probes belong to no workload: they run, and are reported, once.
    probes = doc["meta"]["probes"]
    assert set(probes) == set(PROBES)
    seen = set(probes)
    shares = 0
    for w, d in workloads(doc).items():
        assert d["failed"] == 0
        names = set(d["metrics"])
        assert all(NAME.fullmatch(n) for n in names)
        assert all(math.isfinite(m["median"]) for m in d["metrics"].values())
        assert not names & set(probes)
        # The profile split is emitted for the layers on the path only.
        layers = WORKLOADS[w][0]
        assert {n.split(".")[1] for n in names if n.startswith("self_share.")} == set(layers)
        assert {n.split(".")[1] for n in names if n.startswith("calls_per_op.")} == set(layers)
        shares += len(layers)
        assert "telemetry.overhead_share" in names
        seen |= names
        # comm bytes/calls, call counts and chaos counts repeat exactly
        assert workloads(again)[w]["counts"] == d["counts"], w
        assert any(k.startswith("calls_per_op.") for k in d["counts"])
        trace = json.loads((BENCH / "out" / f"trace_{w}.json").read_text())
        assert trace["traceEvents"] and all(
            e["ph"] == "X" and e["dur"] >= 0 for e in trace["traceEvents"])
    assert shares <= 24
    # Every metric BENCHMARK.json lists is read by some workload or probe.
    assert {m["name"] for m in SPEC["per_layer"]} <= seen
    assert len(seen) <= 128
    grid = workloads(doc)["train_grid16"]["metrics"]
    on_path = sum(grid[f"self_share.{x}"]["median"] for x in ("tensor", "nn", "runtime", "core"))
    assert on_path >= 0.9
    assert grid["runtime.comm_bytes"]["median"] > 0
    assert workloads(doc)["train_serial"]["metrics"]["runtime.comm_bytes"]["median"] == 0


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_line_has_exactly_the_listed_metrics(trace, key):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve_prefill",
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(res["metrics"][m["name"]]["value"])


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_wrong_token_or_a_diverged_loss_is_a_failed_op(tmp_path, monkeypatch, capsys):
    kw = dict(seed=0, seconds=0.5, smoke=True, out=tmp_path)
    serve = WORKLOADS["serve_prefill"][1](**kw)
    run = serve.run()
    assert run.failures == [] and serve.check(run) == []
    for fin in run.outputs["engine"].finished:
        fin.tokens[-1] ^= 1  # plant a wrong token in every output
    assert any("tokens differ" in f for f in serve.check(run))

    train = WORKLOADS["train_serial"][1](**kw)
    monkeypatch.setattr(train.trainer, "step", lambda ids: math.nan)
    diverged = train.run()
    assert len(diverged.failures) == len(diverged.op_s)

    # The command fails when a child reports a failed op.
    monkeypatch.setattr(bench_run, "warm_imports", lambda: None)
    monkeypatch.setattr(bench_run, "spawn", lambda w, a: {
        "workload": w, "attempted": 5, "failed": 1, "metrics": {}})
    code = bench_run.main(["--workload", "train_serial", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] == 1


def test_counts_that_differ_between_repeats_fail_the_suite(tmp_path, monkeypatch, capsys):
    rounds = iter(range(100))
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    monkeypatch.setattr(bench_run, "warm_imports", lambda: None)
    monkeypatch.setattr(bench_run, "spawn", lambda w, a: {
        "workload": w, "attempted": 5, "failed": 0, "numpy": "x",
        "metrics": {"op_ms_p50": {"value": 1.0, "unit": "ms"}},
        "counts": {"rounds": next(rounds) if w == "serve_decode" else 7}})
    assert bench_run.main(["--smoke", "--repeat", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAILED serve_decode: exact counts of repeat 2" in out
    assert out.count("FAILED") == 1


def _metric(runs):
    q1, med, q3 = bench_run.quartiles(list(runs))
    return {"unit": "ms", "median": med, "q1": q1, "q3": q3, "runs": list(runs)}


@pytest.mark.parametrize("a, b, label", [
    ([100, 101, 102], [104, 105, 106], "ok"),          # +4% < 10%
    ([100, 101, 102], [120, 121, 122], "worse"),       # +20%
    ([100, 101, 102], [80, 81, 82], "ok"),             # better
    ([90, 100, 130], [95, 118, 125], "unresolved"),    # spread > bound, overlap
    ([90, 100, 130], [140, 150, 190], "worse"),        # noisy, but every run worse
])
def test_compare_verdicts(a, b, label, capsys):
    assert compare.verdict(_metric(a), _metric(b), "lower", 0.10)[1] == label
    doc = lambda runs: {"meta": {"workloads": {"w": {  # noqa: E731
        "metrics": {"op_ms_p50": _metric(runs)}, "counts": {"rounds": 3}}}}}
    # BENCHMARK.json's single-run bound is wider; medians are held to 10%.
    spec = [{"name": "op_ms_p50", "better": "lower", "bound": 0.25}]
    assert compare.compare(doc(a), doc(b), spec) == (1 if label == "worse" else 0)
    assert label in capsys.readouterr().out
