"""The simulator's stream walk against the form it replaced.

DESIGN.md ladder item 13: ``schedule_iteration`` is plain float
arithmetic over five local stream clocks, with no ``emit`` helper.  The
pre-rewrite walk — a ``comm`` dict of clocks, ``max()`` calls and an
``emit`` closure that formats every event name — is kept here, verbatim,
as the oracle.  Over generated ``IterationPrices`` and every overlap
subset the two must return the same ``(total, num_events)`` bit for bit
and trace the same events (stream, name, start and end as ``float.hex``)
in the same order.

The generated durations are chosen to reach the edges of that contract:
zero and subnormal durations, repeated equal values (so ``max`` meets
ties), and ``1e-17`` beside clocks of ``1e3`` (a positive duration whose
event has ``end == start`` and is not counted).  The planner's own sweep
never walks a ``G_seq > 1`` grid, so this corpus is also where the
sequence-ring branches are checked.

The same corpus proves the two facts the autotuner's bounded sweep
rests on: turning an overlap flag on never makes the iteration slower,
before or after ``summarise_iteration``, and a flag whose stream
carries no positive duration is never read.
"""

import dataclasses
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autotune import ALL_OVERLAP_COMBOS
from repro.core.grid import GridConfig
from repro.simulate import Timeline
from repro.simulate.executor import (
    DEFAULT_NOISE,
    IterationPrices,
    LayerPrice,
    OverlapFlags,
    schedule_iteration,
    summarise_iteration,
)

# -- the oracle: the pre-rewrite walk, verbatim -------------------------------


def _reference_schedule_iteration(
    prices: IterationPrices, overlap: OverlapFlags, trace
) -> tuple[float, int]:
    """Stage 2: walk both passes over the priced layers, stream by stream.

    One compute stream plus one communication stream per communicator
    family (as with NCCL/RCCL, collectives over different process
    groups proceed concurrently; collectives over the same group
    serialize).  The Z stream carries weight all-gathers and gradient
    reduce-scatters; the X/Y streams carry activation all-reduces.
    Returns ``(end of the iteration, positive-duration events)``; each
    event is also added to ``trace`` unless that is ``None``.
    """
    layers = prices.layers
    recompute = prices.activation_checkpointing
    seq_exp_fwd, seq_exp_bwd = prices.seq_exposed_fwd, prices.seq_exposed_bwd
    comp_t = 0.0
    comm = {"z": 0.0, "ar_fwd": 0.0, "ar_bwd": 0.0, "seq": 0.0}
    num_events = 0

    def emit(stream, name, start, end):
        nonlocal num_events
        if end > start:
            num_events += 1
            if trace is not None:
                trace.add(stream, name, start, end)

    # Forward pass.  Size-1 groups cost nothing and must not act as
    # stream barriers, so zero-duration collectives are skipped.
    for c in layers:
        name = c.name
        if c.ag_z > 0:
            ag_start = comm["z"] if overlap.oag else max(comm["z"], comp_t)
            comm["z"] = ag_start + c.ag_z
            emit("comm.z", f"{name}.AG_z", ag_start, comm["z"])
            comp_t = max(comp_t, comm["z"])
        emit("compute", f"{name}.fwd", comp_t, comp_t + c.fwd)
        comp_t += c.fwd
        if seq_exp_fwd > 0 and name.endswith(".qkv"):
            # Exposed part of the KV ring rotation (the hidden part ran
            # inside the attention share of the forward compute).
            start = max(comp_t, comm["seq"])
            end = start + seq_exp_fwd
            emit("comm.seq", f"{name}.ring_seq", start, end)
            comp_t = comm["seq"] = end
        if c.ar_fwd > 0:
            # Forward all-reduce: blocking (the output is needed now).
            start = max(comp_t, comm["ar_fwd"])
            end = start + c.ar_fwd
            emit("comm.ar_fwd", f"{name}.AR_fwd", start, end)
            comp_t = comm["ar_fwd"] = end

    # Backward pass (reverse layer order).
    for c in reversed(layers):
        name = c.name
        # Activation checkpointing re-gathers the layer's weights for the
        # recompute; with OAG these gathers prefetch on the Z stream.
        if recompute and c.ag_z > 0:
            ag_start = comm["z"] if overlap.oag else max(comm["z"], comp_t)
            comm["z"] = ag_start + c.ag_z
            emit("comm.z", f"{name}.AG_z(recompute)", ag_start, comm["z"])
            comp_t = max(comp_t, comm["z"])
        # Recompute + dI GEMM (+ attention backward), then AR over the
        # column axis.
        dw_time = c.dw
        pre_dw = c.bwd - dw_time
        emit("compute", f"{name}.bwd", comp_t, comp_t + pre_dw)
        comp_t += pre_dw
        if seq_exp_bwd > 0 and name.endswith(".qkv"):
            start = max(comp_t, comm["seq"])
            end = start + seq_exp_bwd
            emit("comm.seq", f"{name}.ring_seq(bwd)", start, end)
            comp_t = comm["seq"] = end
        if c.ar_bwd > 0:
            if overlap.oar:
                ar_start = max(comm["ar_bwd"], comp_t)
                comm["ar_bwd"] = ar_start + c.ar_bwd
                emit("comm.ar_bwd", f"{name}.AR_bwd", ar_start, comm["ar_bwd"])
                emit("compute", f"{name}.dW", comp_t, comp_t + dw_time)
                comp_t += dw_time
                comp_t = max(comp_t, comm["ar_bwd"])  # wait after dW
            else:
                start = max(comm["ar_bwd"], comp_t)
                end = start + c.ar_bwd
                emit("comm.ar_bwd", f"{name}.AR_bwd", start, end)
                comp_t = comm["ar_bwd"] = end
                emit("compute", f"{name}.dW", comp_t, comp_t + dw_time)
                comp_t += dw_time
        else:
            emit("compute", f"{name}.dW", comp_t, comp_t + dw_time)
            comp_t += dw_time
        if c.rs_z > 0:
            if overlap.ors:
                rs_start = max(comm["z"], comp_t)
                comm["z"] = rs_start + c.rs_z  # async; waited at the end
                emit("comm.z", f"{name}.RS_z", rs_start, comm["z"])
            else:
                start = max(comm["z"], comp_t)
                end = start + c.rs_z
                emit("comm.z", f"{name}.RS_z", start, end)
                comp_t = comm["z"] = end

    # Join streams, then the data-parallel gradient all-reduce and the
    # (memory-bound) optimizer step.
    t = max(comp_t, *comm.values())
    dp_time, optimizer_time = prices.dp_time, prices.optimizer_time
    if dp_time > 0:
        emit("comm.data", "grad.AR_data", t, t + dp_time)
    emit("compute", "optimizer.step", t + dp_time, t + dp_time + optimizer_time)
    return t + dp_time + optimizer_time, num_events


# -- generated prices ---------------------------------------------------------

_KINDS = ("qkv", "proj", "fc1", "fc2")
#: Fixed edge values: zero, the smallest subnormal, a duration that
#: vanishes beside a 1e3 clock, and that clock.
_EDGES = (0.0, 5e-324, 1e-17, 1e3)


def _layer_names(n: int) -> list[str]:
    return [f"block{i // 4}.{_KINDS[i % 4]}" for i in range(n)] + ["lm_head"]


def _iteration_prices(layers, *, recompute=True, seq=(0.0, 0.0), dp=0.0,
                      opt=0.0) -> IterationPrices:
    """Prices of the given per-layer durations; the walk reads no other
    field."""
    names = _layer_names(len(layers) - 1)
    return IterationPrices(
        config=GridConfig(1, 1, 1, 1), job_key="walk-oracle",
        activation_checkpointing=recompute,
        layers=tuple(LayerPrice(n, *d) for n, d in zip(names, layers)),
        compute_total=0.0, layer_comm_total=0.0, attention_fwd=0.0,
        ring_payload_bytes=0.0, seq_hop_fwd=0.0, seq_hop_bwd=0.0,
        seq_exposed_fwd=seq[0], seq_exposed_bwd=seq[1], seq_raw_time=0.0,
        dp_time=dp, optimizer_time=opt, tuning_speedup=1.0, axis_picks={},
    )


@st.composite
def _prices(draw) -> IterationPrices:
    # A few per-example values drawn again and again, so clocks meet
    # exactly and ``max`` sees ties.
    pool = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        min_size=1, max_size=3,
    ))
    dur = st.sampled_from(_EDGES + tuple(pool))
    num_layers = draw(st.integers(1, 40)) + 1  # + lm_head
    layers = [tuple(draw(dur) for _ in range(7)) for _ in range(num_layers)]
    return _iteration_prices(
        layers,
        recompute=draw(st.booleans()),
        seq=(draw(dur), draw(dur)),
        dp=draw(dur),
        opt=draw(dur),
    )


def _hex_events(timeline: Timeline) -> list[tuple[str, str, str, str]]:
    return [
        (e.stream, e.name, e.start.hex(), e.end.hex())
        for e in timeline.events
    ]


#: (fwd, bwd, dw, ag_z, rs_z, ar_fwd, ar_bwd) per layer.
#: A 1e3 clock swallows a 1e-17 all-reduce, forward GEMM and gradient
#: all-reduce: ``end == start``.
_ABSORBED = _iteration_prices(
    [(1e3, 1e3, 1.0, 0.0, 0.0, 1e-17, 1e-17), (1e-17, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0)],
    dp=1e-17, opt=1e-17,
)
#: A backward all-reduce much longer than its dW: OAR must wait after dW.
_OAR_WAIT = _iteration_prices(
    [(1.0, 2.0, 1.0, 0.5, 0.5, 1.0, 8.0), (1.0, 2.0, 1.0, 0.5, 0.5, 1.0, 8.0)],
)
#: Every duration 1.0, sequence ring on: clocks meet at every step.
_TIES = _iteration_prices(
    [(1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0)] * 9, seq=(1.0, 1.0), dp=1.0, opt=1.0
)


class TestWalkEqualsReference:
    @given(_prices())
    @example(_ABSORBED)
    @example(_OAR_WAIT)
    @example(_TIES)
    @settings(max_examples=200, deadline=None)
    def test_same_total_events_and_trace(self, prices):
        for overlap in ALL_OVERLAP_COMBOS:
            got_tl, ref_tl = Timeline(), Timeline()
            got = schedule_iteration(prices, overlap, got_tl)
            ref = _reference_schedule_iteration(prices, overlap, ref_tl)
            assert (got[0].hex(), got[1]) == (ref[0].hex(), ref[1]), overlap
            assert _hex_events(got_tl) == _hex_events(ref_tl), overlap
            assert len(got_tl) == got[1]
            # Tracing records the walk; it never changes it.
            untraced = schedule_iteration(prices, overlap, None)
            assert (untraced[0].hex(), untraced[1]) == (got[0].hex(), got[1])

    def test_absorbed_duration_is_not_an_event(self):
        """A positive duration whose end equals its start is not counted."""
        tl = Timeline()
        _, n = schedule_iteration(_ABSORBED, OverlapFlags.none(), tl)
        names = {e.name for e in tl.events}
        assert not names & {"block0.qkv.AR_fwd", "lm_head.fwd", "grad.AR_data"}
        assert "block0.qkv.fwd" in names
        assert n == len(tl.events)

    def test_oar_waits_for_backward_all_reduce(self):
        flags = OverlapFlags(oar=True)
        tl = Timeline()
        schedule_iteration(_OAR_WAIT, flags, tl)
        by_name = {e.name: e for e in tl.events}
        ar, nxt = by_name["lm_head.AR_bwd"], by_name["block0.qkv.bwd"]
        assert by_name["lm_head.dW"].end < ar.end <= nxt.start

    def test_sequence_ring_events_on_their_own_stream(self):
        tl = Timeline()
        schedule_iteration(_TIES, OverlapFlags.all(), tl)
        ring = tl.on_stream("comm.seq")
        assert [e.name for e in ring] == [
            "block0.qkv.ring_seq", "block1.qkv.ring_seq",
            "block1.qkv.ring_seq(bwd)", "block0.qkv.ring_seq(bwd)",
        ]


# -- the bounded sweep's contract ---------------------------------------------

#: Each overlap flag and the stream whose waits it drops.
_FLAG_STREAMS = {"oar": "ar_bwd", "ors": "rs_z", "oag": "ag_z"}


@st.composite
def _prices_with_idle_streams(draw) -> IterationPrices:
    """Generated prices with some flags' streams emptied."""
    prices = draw(_prices())
    idle = draw(st.sets(st.sampled_from(sorted(_FLAG_STREAMS.values()))))
    return dataclasses.replace(prices, layers=tuple(
        lp._replace(**dict.fromkeys(idle, 0.0)) for lp in prices.layers
    ))


def _subset(a: OverlapFlags, b: OverlapFlags) -> bool:
    return all(getattr(b, f) or not getattr(a, f) for f in _FLAG_STREAMS)


class TestWalkIsMonotoneInOverlap:
    """What lets ``autotune`` walk only the overlap subsets that can
    still win, bit for bit."""

    @given(
        _prices_with_idle_streams(),
        st.sampled_from(_EDGES + (0.5, 2.0)),
        st.integers(0, 3),
    )
    @example(_ABSORBED, 0.0, 0)
    @example(_OAR_WAIT, 1.0, 1)
    @example(_TIES, 1e3, 2)
    @settings(max_examples=200, deadline=None)
    def test_more_flags_never_slower(self, prices, floor, salt):
        """``total(T) <= total(S)`` for every subset ``S`` of ``T``,
        raw and after the jitter and the compute floor."""
        prices = dataclasses.replace(prices, compute_total=floor)
        walked = {ov: schedule_iteration(prices, ov, None)
                  for ov in ALL_OVERLAP_COMBOS}
        summarised = {
            ov: summarise_iteration(prices, total, n, DEFAULT_NOISE, salt)
            for ov, (total, n) in walked.items()
        }
        for s, t in itertools.product(ALL_OVERLAP_COMBOS, repeat=2):
            if _subset(s, t):
                assert walked[t][0] <= walked[s][0], (s, t)
                assert summarised[t].total_time <= summarised[s].total_time

    @given(_prices_with_idle_streams())
    @example(_ABSORBED)
    @settings(max_examples=200, deadline=None)
    def test_flag_of_an_idle_stream_is_never_read(self, prices):
        """A flag whose stream has no positive duration changes neither
        the total nor the event count."""
        for flag, stream in _FLAG_STREAMS.items():
            if any(getattr(lp, stream) > 0 for lp in prices.layers):
                continue
            for ov in ALL_OVERLAP_COMBOS:
                flipped = dataclasses.replace(
                    ov, **{flag: not getattr(ov, flag)}
                )
                total, n = schedule_iteration(prices, ov, None)
                again, m = schedule_iteration(prices, flipped, None)
                assert (total.hex(), n) == (again.hex(), m), (flag, ov)
