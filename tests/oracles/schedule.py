"""A structural diff between two normalized schedules."""

from __future__ import annotations

import json


def schedule_diff(golden: dict, current: dict, context: int = 2) -> str:
    """Human-readable structural diff between two normalized schedules.

    Reports per-rank length mismatches and the first differing event per
    rank, with a little surrounding context — enough to see *which* rank
    diverged *where* without wading through the full JSON.
    """
    lines: list[str] = []
    g_ranks = set(golden.get("ranks", {}))
    c_ranks = set(current.get("ranks", {}))
    for r in sorted(g_ranks - c_ranks, key=int):
        lines.append(f"rank {r}: present in golden, missing from current")
    for r in sorted(c_ranks - g_ranks, key=int):
        lines.append(f"rank {r}: present in current, missing from golden")
    for r in sorted(g_ranks & c_ranks, key=int):
        ge = golden["ranks"][r]
        ce = current["ranks"][r]
        if ge == ce:
            continue
        if len(ge) != len(ce):
            lines.append(
                f"rank {r}: {len(ge)} events in golden vs {len(ce)} in "
                f"current"
            )
        for i in range(min(len(ge), len(ce))):
            if ge[i] != ce[i]:
                lo = max(0, i - context)
                lines.append(f"rank {r}: first divergence at event {i}:")
                for j in range(lo, i):
                    lines.append(f"    {j}:  {json.dumps(ge[j], sort_keys=True)}")
                lines.append(f"  - {i}:  {json.dumps(ge[i], sort_keys=True)}")
                lines.append(f"  + {i}:  {json.dumps(ce[i], sort_keys=True)}")
                break
    return "\n".join(lines) if lines else "schedules identical"
