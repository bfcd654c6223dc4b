"""Golden-trace regression: collective schedules pinned byte-for-byte.

Each golden file under ``tests/golden/`` is the canonical per-rank
communication schedule of one representative parallel configuration.
The tests replay the identical seeded program and require the canonical
JSON to match the checked-in golden exactly; on mismatch the failure
message carries a structural diff (which rank diverged, at which event)
rather than a JSON blob.  Intentional changes to the communication
pattern are made visible in review by regenerating:

    python -m repro.tools regen-goldens
"""

import json

import pytest

from repro.runtime import normalized_schedule, validate_schedule
from tests.oracles.schedule import schedule_diff
from repro.tools.regen_goldens import (
    GOLDEN_SCENARIOS,
    build_schedule,
    golden_dir,
)

SCENARIOS = sorted(GOLDEN_SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_file_exists(name):
    assert (golden_dir() / f"{name}.json").is_file(), (
        f"missing golden trace for {name!r}; run "
        f"`python -m repro.tools regen-goldens`"
    )


@pytest.mark.parametrize("name", SCENARIOS)
def test_schedule_matches_golden(name):
    current = build_schedule(name)
    golden = (golden_dir() / f"{name}.json").read_text()
    if current != golden:
        diff = schedule_diff(json.loads(golden), json.loads(current))
        pytest.fail(
            f"collective schedule for {name!r} drifted from golden.\n"
            f"{diff}\n"
            f"If intentional, regenerate with "
            f"`python -m repro.tools regen-goldens`."
        )


@pytest.mark.parametrize("name", SCENARIOS)
def test_schedule_byte_stable_across_runs(name):
    assert build_schedule(name) == build_schedule(name)


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_schedule_is_validator_clean(name):
    """The goldens themselves must satisfy the SPMD invariants: the
    events are reconstructible from JSON and pass every check."""
    from repro.runtime import CommEvent

    doc = json.loads((golden_dir() / f"{name}.json").read_text())
    events = []
    for rank_s, evs in doc["ranks"].items():
        for d in evs:
            events.append(
                CommEvent(
                    rank=int(rank_s),
                    op=d["op"],
                    group=tuple(d["group"]),
                    dtype=d["dtype"],
                    count=d["count"],
                    tag=d["tag"],
                    peer=d.get("peer"),
                    root=d.get("root"),
                    splits=tuple(d["splits"]) if "splits" in d else None,
                    handle_id=d.get("handle_id"),
                )
            )
    assert validate_schedule(events) == []
    assert doc["num_events"] == len(events)


def test_normalized_schedule_shape():
    doc = json.loads(build_schedule("moe"))
    assert doc["version"] == 1
    assert set(doc) == {"version", "num_events", "ranks"}
    for evs in doc["ranks"].values():
        for d in evs:
            assert {"op", "group", "dtype", "count", "tag"} <= set(d)


def test_schedule_diff_reports_rank_and_position():
    a = json.loads(build_schedule("moe"))
    b = json.loads(build_schedule("moe"))
    assert schedule_diff(a, b) == "schedules identical"
    b["ranks"]["1"][0]["count"] = 12345
    out = schedule_diff(a, b)
    assert "rank 1" in out and "event 0" in out and "12345" in out
    del b["ranks"]["0"]
    assert "missing from current" in schedule_diff(a, b)
