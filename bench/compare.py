#!/usr/bin/env python3
"""Compare two runs of the spine: ``python bench/compare.py A.json B.json``.

A is the parent, B the change; both are ``bench/out/BENCH_spine.json``
files written by ``run.py --repeat N``.  For every workload x end-to-end
metric this prints both medians, the change in the *worse* direction as
a share of A, the bound, and a verdict:

* ``ok``          B's median is within the bound of A's;
* ``worse``       it is not (the exit status is then non-zero);
* ``unresolved``  the run-to-run spread (distance between the quartiles,
  over the median, of either side) is wider than the bound and the two
  sides' runs overlap, so these runs cannot tell; run more repeats.

Exact counts (rounds, tokens, winners, ...) are compared for identity.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The most a median over repeats may worsen by.  ``BENCHMARK.json``'s
#: bounds gate single runs, which this host moves by up to 15% on
#: identical code, so its timing bounds are 25%; medians over repeats
#: hold 10% (``peak_rss_mb`` keeps its own 5%).
REPEAT_BOUND = 0.10


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """(share of A by which B is worse, label) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(
        (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0 for m in (a, b)
    )
    b_always_better = all(
        sign * (y - x) < 0 for x in a["runs"] for y in b["runs"])
    b_always_worse = all(
        sign * (y - x) > 0 for x in a["runs"] for y in b["runs"])
    if spread > bound and not (b_always_better or b_always_worse):
        return worse_by, "unresolved"
    return worse_by, "worse" if worse_by > bound else "ok"


def compare(doc_a: dict, doc_b: dict, end_to_end: list[dict]) -> int:
    wl_a, wl_b = (d["meta"]["workloads"] for d in (doc_a, doc_b))
    n_worse = 0
    print(f"{'workload.metric':<34}{'A':>12}{'B':>12}{'worse by':>10}{'bound':>8}  verdict")
    for w in wl_a:
        if w not in wl_b:
            print(f"{w}: missing from B")
            n_worse += 1
            continue
        for m in end_to_end:
            a = wl_a[w]["metrics"].get(m["name"])
            b = wl_b[w]["metrics"].get(m["name"])
            if a is None or b is None:
                continue  # a traced file has no end-to-end metrics
            bound = min(m["bound"], REPEAT_BOUND)
            by, label = verdict(a, b, m["better"], bound)
            n_worse += label == "worse"
            print(
                f"{w + '.' + m['name']:<34}{a['median']:>12.5g}{b['median']:>12.5g}"
                f"{by:>+10.1%}{bound:>8.0%}  {label}"
            )
        same = wl_a[w]["counts"] == wl_b[w]["counts"]
        print(f"{w + ' exact counts':<34}{'identical' if same else 'DIFFER':>24}")
        if not same:
            for k in sorted(set(wl_a[w]["counts"]) | set(wl_b[w]["counts"])):
                va, vb = wl_a[w]["counts"].get(k), wl_b[w]["counts"].get(k)
                if va != vb:
                    print(f"    {k}: {va} -> {vb}")
    print(f"{n_worse} worse")
    return 1 if n_worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(doc_a, doc_b, spec["end_to_end"])


if __name__ == "__main__":
    raise SystemExit(main())
