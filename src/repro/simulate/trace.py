"""Timeline traces of simulated iterations.

``simulate_iteration(..., trace=Timeline())`` records every compute
kernel and collective as a (stream, name, start, end) event, giving a
Gantt view of how OAR/ORS/OAG reshape the schedule — the simulator-side
analogue of the profiler timelines behind the paper's Fig. 5.

Tracing is for *inspection*; sweeps that only need aggregate iteration
times should pass ``timing_only=True`` instead (the executor still
counts events in ``IterationResult.num_events`` but records none here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TimelineEvent", "Timeline"]


@dataclass(frozen=True)
class TimelineEvent:
    """One interval on one stream of the simulated GPU."""

    #: "compute" | "comm.z" | "comm.ar_fwd" | "comm.ar_bwd" | "comm.seq"
    #: | "comm.data"
    stream: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """Collects :class:`TimelineEvent` records during a simulation."""

    events: list[TimelineEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def add(self, stream: str, name: str, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"event {name} ends before it starts")
        self.events.append(TimelineEvent(stream, name, start, end))

    def on_stream(self, stream: str) -> list[TimelineEvent]:
        return [e for e in self.events if e.stream == stream]

    def makespan(self) -> float:
        if not self.events:
            return 0.0
        return max(e.end for e in self.events)

    def overlap_seconds(self) -> float:
        """Communication time hidden behind compute: total comm busy time
        minus comm time outside compute intervals.  A cheap proxy: sum of
        per-event overlaps with the compute stream."""
        comp = sorted(self.on_stream("compute"), key=lambda e: e.start)
        hidden = 0.0
        for e in self.events:
            if e.stream == "compute":
                continue
            for c in comp:
                lo = max(e.start, c.start)
                hi = min(e.end, c.end)
                if hi > lo:
                    hidden += hi - lo
        return hidden

    def to_trace_events(self) -> list:
        """The timeline in the unified telemetry event schema
        (:class:`repro.telemetry.TraceEvent`): each simulator stream
        becomes a ``tid`` lane, simulated seconds stay seconds."""
        from ..telemetry.export import TraceEvent

        return [
            TraceEvent(
                name=e.name,
                start=e.start,
                duration=e.duration,
                cat="sim",
                tid=e.stream,
                pid="repro.simulate",
            )
            for e in self.events
        ]

    def render(self, width: int = 72) -> str:
        """A text Gantt chart (one row per stream)."""
        span = self.makespan()
        if span == 0:
            return "(empty timeline)"
        lines = []
        for stream in sorted({e.stream for e in self.events}):
            row = [" "] * width
            for e in self.on_stream(stream):
                lo = int(e.start / span * (width - 1))
                hi = max(lo + 1, int(e.end / span * (width - 1)))
                ch = "#" if stream == "compute" else "="
                for i in range(lo, min(hi, width)):
                    row[i] = ch
            lines.append(f"{stream:<12} |{''.join(row)}|")
        lines.append(f"{'':<12}  0{'':<{width - 10}}{span:.3f}s")
        return "\n".join(lines)
