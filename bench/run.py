#!/usr/bin/env python3
"""The benchmark spine: six fixed-work workloads, five end-to-end
metrics each, per-layer probes.

    python bench/run.py                  # all six, untraced: end-to-end numbers
    python bench/run.py --trace          # the separate traced pass: per-layer numbers
    python bench/run.py --repeat 3       # medians and quartiles over 3 suites
    python bench/run.py --workload train_serial --seed 1 --seconds 10 --trace 0

Every workload runs in its own child process with one BLAS thread.  With
``--workload`` the last line of stdout is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``), the form ``BENCHMARK.json``'s
driver reads.  See README.md beside this file.
"""

from __future__ import annotations

import os

# Set before NumPy is imported anywhere, and recorded in the output.
# One BLAS thread: the GEMMs are 128 wide, so a second thread buys ~5%
# and costs the repeatability.  No madvise(MADV_HUGEPAGE): NumPy asks
# for huge pages behind every array of 4 MiB or more (each KV block pool
# is exactly that), the kernel grants them when it happens to have some,
# and the same run then reads 50 or 70 MB of peak RSS.
HOST_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(HOST_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SCHEMA = "repro.bench/v1"
#: The traced pass runs this share of each workload's ops under the
#: tracer (and the same ops untraced, as its baseline), and a further
#: PROFILED share under cProfile.
TRACED, PROFILED = 0.25, 0.125
WORKLOAD_NAMES = (
    "train_serial", "train_grid16", "serve_decode",
    "serve_prefill", "serve_tp_chaos", "plan_paper_scale",
)
CHILD_TIMEOUT_S = 170


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the children: one workload, or the probes, in this process ------------------


def child(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import resource
    import zlib

    import numpy as np
    from workloads import NO_SPANS, WORKLOADS

    OUT.mkdir(exist_ok=True)
    layers, make = WORKLOADS[args.workload]
    wl = make(seed=args.seed, seconds=args.seconds, smoke=args.smoke, out=OUT)
    extra = {}
    if not args.trace:
        setup_s = time.time() - args.t0  # process start -> first timed op
        run = wl.run()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Reference outputs are computed after the timed loop.
        run.failures += wl.check(run)
        ops = np.asarray(run.op_s)
        metrics = {
            "work_per_s": (run.work / run.wall_s, "1/s"),
            "op_ms_p50": (1e3 * float(np.median(ops)), "ms"),
            "op_ms_p75": (1e3 * float(np.percentile(ops, 75)), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        attempted, failures = len(ops), run.failures
        extra["beyond_p75"] = int((ops > np.percentile(ops, 75)).sum())
        extra["timed_s"] = run.wall_s
        extra["outputs_crc"] = zlib.crc32(
            np.asarray(run.outputs["values"], dtype=np.float64).tobytes())
        counts = run.facts
    else:
        import cProfile

        from attribution import profile_shares, span_self_ms, tracer_metrics
        from repro.telemetry import Tracer, write_chrome_trace

        wl.mark()
        # The baseline takes the same driver path with spans that record
        # nothing: the tracer is the only difference between the two.
        base = wl.run(TRACED, tracer=NO_SPANS)
        tracer = Tracer()
        traced = wl.run(TRACED, tracer=tracer)
        n = len(traced.op_s)
        metrics = wl.layer_metrics(base, traced, tracer)
        metrics.update(tracer_metrics(tracer, n))
        metrics["telemetry.overhead_share"] = (
            float(np.median(traced.op_s) / np.median(base.op_s)) - 1.0, "share")
        write_chrome_trace(
            OUT / f"trace_{args.workload}.json", tracer,
            metadata={"workload": args.workload, "seed": args.seed, "ops": n},
        )
        profiler = cProfile.Profile()
        profiled = wl.run(PROFILED, profiler=profiler)
        metrics.update(profile_shares(profiler, len(profiled.op_s), layers))
        attempted = 2 * n + len(profiled.op_s)
        failures = base.failures + traced.failures + profiled.failures
        extra["span_self_ms_per_op"] = span_self_ms(tracer, n)
        counts = {k: v for k, (v, u) in metrics.items() if u in ("count", "bytes")}
    for line in failures[:10]:
        print(f"FAILED {args.workload}: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "counts": counts,
        "numpy": np.__version__,
        **extra,
    }))
    return 0


def child_probes() -> int:
    """The layer probes, which belong to no workload, in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from probes import run_probes

    print(json.dumps({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run_probes().items()},
    }))
    return 0


# -- the parent: spawn, collect, report -------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


def warm_imports() -> None:
    """One untimed throwaway process that imports every ``repro`` module
    (and the benchmark's own), so bytecode compilation and a cold page
    cache never land in a workload's ``setup_s``."""
    code = (
        "import importlib, pkgutil, repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(m.name)\n"
        "import workloads, probes, attribution\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), check=True,
        stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )


def spawn(workload: str | None, args) -> dict:
    """Run one workload (``None``: the layer probes) in a child process."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--child"]
    if workload is None:
        cmd.append("--probes")
    else:
        cmd += [
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--t0", repr(time.time()),
        ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(
        cmd, env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload or 'probes'}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_info(numpy_version: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "env": HOST_ENV,
    }


def print_result(res: dict) -> None:
    if "workload" not in res:
        print("layer probes: median of 15 calls after 3 warm-ups")
    else:
        n = res["attempted"]
        note = (
            f", {res['beyond_p75']} beyond p75, timed loop {res['timed_s']:.1f} s"
            if "beyond_p75" in res else ""
        )
        print(f"{res['workload']}: {n} ops attempted, {res['failed']} failed{note}")
    for name, m in res["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_one(args) -> int:
    """Driver mode: one workload, result as the last line of stdout."""
    warm_imports()
    res = spawn(args.workload, args)
    print_result(res)
    have = res["metrics"]
    if args.trace:
        probes = spawn(None, args)
        print_result(probes)
        have = {**have, **probes["metrics"]}
    listed = spec()["per_layer" if args.trace else "end_to_end"]
    # A listed metric this workload has no reading of belongs to a layer
    # off its path, or counts things that did not happen here (e.g.
    # preemptions while training).
    metrics = {
        m["name"]: have.get(m["name"], {"value": 0.0, "unit": m["unit"]})
        for m in listed
    }
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if res["failed"] == 0 else 1


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over repeated runs."""
    out = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        out[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "runs": values}
    return out


def run_suite(args) -> int:
    warm_imports()
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOAD_NAMES}
    probe_runs = []
    for rep in range(args.repeat):
        # Alternate the order so that no workload always runs on a host
        # warmed (or throttled) by the same predecessor.
        order = WORKLOAD_NAMES if rep % 2 == 0 else WORKLOAD_NAMES[::-1]
        for w in order:
            runs[w].append(spawn(w, args))
            print_result(runs[w][-1])
        if args.trace:  # the probes belong to no workload: once per suite
            probe_runs.append(spawn(None, args))
            print_result(probe_runs[-1])
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    detail = {}
    for w, rs in runs.items():
        detail[w] = {
            "attempted": rs[0]["attempted"],
            "failed": sum(r["failed"] for r in rs),
            "counts": rs[0]["counts"],
            "metrics": summarize(rs),
        }
        for key in ("beyond_p75", "outputs_crc", "span_self_ms_per_op"):
            if key in rs[0]:
                detail[w][key] = rs[0][key]
        for k, r in enumerate(rs[1:], 2):
            if r["counts"] != rs[0]["counts"]:
                print(f"FAILED {w}: exact counts of repeat {k} differ from repeat 1's")
                failed += 1
    tables = {w: d["metrics"] for w, d in detail.items()}
    if probe_runs:
        tables["probes"] = summarize(probe_runs)
    flat = {
        f"{w}.{name}": m["median"]
        for w, table in tables.items() for name, m in table.items()
    }
    if args.repeat > 1:
        print(f"\nmedian [q1, q3] over {args.repeat} repeats")
        for w, table in tables.items():
            for name, m in table.items():
                print(
                    f"  {w + '.' + name:<52} {m['median']:>14.6g} "
                    f"[{m['q1']:.6g}, {m['q3']:.6g}] {m['unit']}"
                )
    doc = {
        "schema": SCHEMA,
        "bench": "spine_trace" if args.trace else "spine",
        "metrics": flat,
        "meta": {
            "host": host_info(next(iter(runs.values()))[0]["numpy"]),
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "repeats": args.repeat,
            "traced": bool(args.trace),
            "workloads": detail,
            "probes": tables.get("probes", {}),
        },
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{doc['bench']}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {os.path.relpath(path, ROOT)}; {failed} failed ops")
    if args.record:
        row = {
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **{k: doc["meta"][k] for k in ("host", "seed", "seconds", "repeats", "traced")},
            "medians": flat,
        }
        with open(BENCH / "history.jsonl", "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        print("appended one row to bench/history.jsonl")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload and print the driver's JSON line")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the generated inputs only (default 0)")
    p.add_argument("--seconds", type=float, default=None,
                   help="sizes the fixed op counts (default 20; 2 with --smoke)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="the traced pass: per-layer metrics")
    p.add_argument("--repeat", type=int, default=1,
                   help="run the whole suite N times; report median and quartiles")
    p.add_argument("--record", action="store_true",
                   help="append this run's medians to bench/history.jsonl")
    p.add_argument("--smoke", action="store_true",
                   help="op counts / 10 and a short warm-up: a < 60 s check")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--probes", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else 20.0
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.child:
        return child_probes() if args.probes else child(args)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
