"""Tests for the simulator's timeline tracing."""

import pytest

from repro.cluster import FRONTIER
from repro.config import GPTConfig
from repro.core import GridConfig
from repro.simulate import OverlapFlags, Timeline, TimelineEvent, simulate_iteration


def small_cfg():
    return GPTConfig(name="tr", num_layers=2, hidden_size=2048, num_heads=16)


def busy_time(tl: Timeline, stream: str) -> float:
    return sum(e.duration for e in tl.on_stream(stream))


def no_stream_overlap(tl: Timeline) -> bool:
    """Each stream executes serially: its events must not overlap."""
    streams = {e.stream for e in tl.events}
    for s in streams:
        evs = sorted(tl.on_stream(s), key=lambda e: e.start)
        for a, b in zip(evs, evs[1:]):
            if b.start < a.end - 1e-12:
                return False
    return True


class TestTimeline:
    def test_event_validation(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.add("compute", "bad", 2.0, 1.0)

    def test_busy_time_and_makespan(self):
        tl = Timeline()
        tl.add("compute", "a", 0.0, 1.0)
        tl.add("compute", "b", 2.0, 3.0)
        tl.add("comm.z", "c", 0.5, 2.5)
        assert busy_time(tl, "compute") == 2.0
        assert tl.makespan() == 3.0
        assert Timeline().makespan() == 0.0

    def test_overlap_seconds(self):
        tl = Timeline()
        tl.add("compute", "a", 0.0, 2.0)
        tl.add("comm.z", "c", 1.0, 3.0)  # 1s hidden
        assert tl.overlap_seconds() == pytest.approx(1.0)

    def test_no_overlap_validator(self):
        tl = Timeline()
        tl.add("compute", "a", 0.0, 2.0)
        tl.add("compute", "b", 1.0, 3.0)
        assert not no_stream_overlap(tl)

    def test_render(self):
        tl = Timeline()
        tl.add("compute", "a", 0.0, 1.0)
        out = tl.render(width=20)
        assert "compute" in out and "#" in out
        assert Timeline().render() == "(empty timeline)"

    def test_event_duration(self):
        e = TimelineEvent("compute", "x", 1.0, 2.5)
        assert e.duration == 1.5


class TestTracedSimulation:
    def test_streams_never_self_overlap(self):
        """Every stream of the simulated GPU executes serially."""
        for flags in (OverlapFlags.none(), OverlapFlags.all()):
            tl = Timeline()
            simulate_iteration(
                small_cfg(), 32, GridConfig(2, 2, 2, 2), FRONTIER,
                overlap=flags, trace=tl,
            )
            assert tl.events
            assert no_stream_overlap(tl)

    def test_trace_accounts_for_total_time(self):
        """The trace's makespan equals the (pre-jitter) iteration time."""
        tl = Timeline()
        r = simulate_iteration(
            small_cfg(), 32, GridConfig(2, 1, 4, 2), FRONTIER,
            overlap=OverlapFlags.all(), trace=tl, noise=0.0,
        )
        assert tl.makespan() == pytest.approx(r.total_time, rel=1e-9)

    def test_compute_busy_matches_compute_time(self):
        tl = Timeline()
        r = simulate_iteration(
            small_cfg(), 32, GridConfig(2, 2, 2, 1), FRONTIER,
            trace=tl, noise=0.0,
        )
        assert busy_time(tl, "compute") == pytest.approx(
            r.compute_time, rel=1e-9
        )

    def test_overlap_flags_increase_hidden_comm(self):
        cfg = small_cfg()
        tl_off = Timeline()
        simulate_iteration(
            cfg, 64, GridConfig(1, 1, 8, 8), FRONTIER,
            overlap=OverlapFlags.none(), trace=tl_off, noise=0.0,
        )
        tl_on = Timeline()
        simulate_iteration(
            cfg, 64, GridConfig(1, 1, 8, 8), FRONTIER,
            overlap=OverlapFlags.all(), trace=tl_on, noise=0.0,
        )
        assert tl_on.overlap_seconds() > tl_off.overlap_seconds()
