"""Telemetry subsystem tests: spans, metrics, exporters, and the wiring
into the runtime, trainer, and simulator.

The load-bearing contracts:

* spans nest (depth + ``root;child`` paths) and cost nothing when no
  tracer is active;
* byte counters mirror ``CommTracer`` semantics exactly, so per-tag
  sums equal the analytic volumes from :mod:`repro.perfmodel`;
* every exporter emits documents a real viewer would accept
  (:func:`validate_chrome_trace` is the stand-in Perfetto).
"""

import json

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import Grid4D, GridConfig, ParallelGPT
from repro.nn import GPT, AdamW, MixedPrecisionTrainer
from repro.perfmodel import gpt_forward_backward_volumes
from repro.runtime import CommTracer, ProcessGroup
from repro.runtime import collectives as rc
from repro.telemetry import (
    BENCH_SCHEMA,
    MetricsRegistry,
    TraceEvent,
    Tracer,
    ascii_flamegraph,
    bench_summary,
    chrome_trace,
    get_tracer,
    set_tracer,
    telemetry_scope,
    traced,
    tracer_events,
    validate_chrome_trace,
    write_bench_json,
    write_chrome_trace,
)


class FakeClock:
    """Deterministic clock: advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestSpans:
    def test_nesting_depth_and_paths(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        with tr.span("root", cat="train"):
            clk.advance(1.0)
            with tr.span("child", cat="comm"):
                clk.advance(0.5)
            clk.advance(0.25)
        child, root = tr.spans  # inner closes first
        assert (child.name, child.depth, child.path) == ("child", 1, "root;child")
        assert child.duration == pytest.approx(0.5)
        assert (root.name, root.depth, root.path) == ("root", 0, "root")
        assert root.duration == pytest.approx(1.75)
        assert root.end == pytest.approx(root.start + 1.75)
        assert tr.by_path() == pytest.approx(
            {"root": 1.75, "root;child": 0.5}
        )
        assert tr.total_time() == pytest.approx(1.75)
        assert tr.total_time(cat="train") == pytest.approx(1.75)
        assert tr.total_time(cat="comm") == 0.0  # child is not a root span

    def test_sibling_spans_share_parent_prefix(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("a"):
            with tr.span("b"):
                pass
            with tr.span("c"):
                pass
        assert [s.path for s in tr.spans] == ["a;b", "a;c", "a"]

    def test_traced_decorator_nests_and_names(self):
        @traced(name="inner", cat="compute")
        def inner():
            return 41

        @traced(name="outer", cat="train")
        def outer():
            return inner() + 1

        # No ambient tracer: plain call, nothing recorded anywhere.
        assert get_tracer() is None
        assert outer() == 42

        tr = Tracer(clock=FakeClock())
        with telemetry_scope(tr):
            assert outer() == 42
        inner_span, outer_span = tr.spans
        assert outer_span.name == "outer" and outer_span.cat == "train"
        assert inner_span.path == "outer;inner"
        assert inner_span.depth == 1

    def test_traced_records_span_when_fn_raises(self):
        @traced
        def boom():
            raise RuntimeError("x")

        tr = Tracer(clock=FakeClock())
        with telemetry_scope(tr):
            with pytest.raises(RuntimeError):
                boom()
        assert len(tr.spans) == 1
        assert tr._stack == []  # stack unwound despite the exception

    def test_disabled_tracer_is_a_no_op(self):
        tr = Tracer(enabled=False)
        with tr.span("x"):
            pass
        tr.count_collective("all_reduce", 64, tag="t")
        assert tr.spans == []
        assert len(tr.metrics) == 0

        @traced
        def f():
            return 7

        with telemetry_scope(tr):
            assert f() == 7
        assert tr.spans == []

    def test_scope_restores_previous_tracer(self):
        outer_tr = Tracer()
        set_tracer(outer_tr)
        try:
            with telemetry_scope(Tracer()) as inner_tr:
                assert get_tracer() is inner_tr
            assert get_tracer() is outer_tr
        finally:
            set_tracer(None)
        assert get_tracer() is None

    def test_clear_resets_everything(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        with tr.span("x"):
            clk.advance(1.0)
        tr.count_collective("all_reduce", 8)
        tr.clear()
        assert tr.spans == [] and len(tr.metrics) == 0
        clk.advance(3.0)
        with tr.span("y"):
            clk.advance(1.0)
        # Origin was re-based at clear() time.
        assert tr.spans[0].start == pytest.approx(3.0)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.counter("c").add(2)
        m.counter("c").add(3)
        m.gauge("g").set(1.5)
        h = m.histogram("h")
        for v in (1, 2, 200):
            h.record(v)
        assert m.value("c") == 5
        assert m.value("g") == 1.5
        assert m.value("missing", default=-1) == -1
        assert h.summary()["count"] == 3
        assert "c" in m and len(m) == 3

    def test_counter_rejects_negative(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            m.counter("c").add(-1)

    def test_kind_mismatch(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_histogram_rejects_non_finite(self, bad):
        """Regression: ``record(nan)`` used to blow up *after* mutating
        count/total/min/max (and ``record(inf)`` raised OverflowError
        from the bucket math), leaving the instrument corrupted."""
        m = MetricsRegistry()
        h = m.histogram("h")
        h.record(2.0)
        with pytest.raises(ValueError):
            h.record(bad)
        # The failed record must leave no trace in any field.
        assert h.count == 1
        assert h.total == 2.0
        assert h.min == 2.0
        assert h.max == 2.0
        assert sum(h.buckets.values()) == 1

    def test_histogram_negative_leaves_state_untouched(self):
        m = MetricsRegistry()
        h = m.histogram("h")
        h.record(3.0)
        with pytest.raises(ValueError):
            h.record(-1.0)
        assert (h.count, h.total, h.min, h.max) == (1, 3.0, 3.0, 3.0)
        assert sum(h.buckets.values()) == 1

    def test_count_collective_accumulates(self):
        tr = Tracer()
        tr.count_collective("all_reduce", 64, tag="t", group_size=4)
        tr.count_collective("all_reduce", 64, tag="t", group_size=4)
        tr.count_collective("all_gather", 16)
        assert tr.metrics.value("comm.calls.all_reduce") == 2
        assert tr.metrics.value("comm.bytes.all_reduce") == 128
        assert tr.metrics.value("comm.tag_bytes.t") == 128
        assert tr.metrics.value("comm.calls.all_gather") == 1


class TestRuntimeWiring:
    def _buffers(self, group, n=8):
        return {r: np.full(n, float(r + 1)) for r in group}

    def test_all_reduce_counts_once_not_per_subcollective(self):
        """all_reduce = reduce_scatter + all_gather internally; the
        byte counters must see ONE all_reduce, zero standalone rs/ag."""
        group = ProcessGroup(tuple(range(4)))
        tr = Tracer()
        with telemetry_scope(tr):
            rc.all_reduce(self._buffers(group), group, tag="t")
        assert tr.metrics.value("comm.calls.all_reduce") == 1
        assert tr.metrics.value("comm.bytes.all_reduce") == 8 * 8
        assert tr.metrics.value("comm.calls.reduce_scatter", default=0) == 0
        assert tr.metrics.value("comm.calls.all_gather", default=0) == 0
        # ... but the internal sub-collectives do appear as nested spans.
        paths = {s.path for s in tr.spans}
        assert "all_reduce" in paths
        assert "all_reduce;reduce_scatter" in paths
        assert "all_reduce;all_gather" in paths

    def test_bytes_match_commtracer_semantics(self):
        """Telemetry bytes == CommTracer.bytes_per_rank for each call."""
        group = ProcessGroup(tuple(range(2)))
        comm = CommTracer()
        tel = Tracer()
        with telemetry_scope(tel):
            rc.all_gather(self._buffers(group, n=4), group, tracer=comm, tag="x")
        rec = comm.records[-1]
        assert tel.metrics.value("comm.bytes.all_gather") == rec.bytes_per_rank
        assert tel.metrics.value("comm.tag_bytes.x") == rec.bytes_per_rank

    def test_parallel_gpt_counters_match_analytic_volume(self):
        """The acceptance criterion: byte counters from a real forward
        agree with repro.perfmodel's analytic volumes."""
        gx, gy, gz = 2, 1, 1
        cfg = GPTConfig(
            name="t", num_layers=2, hidden_size=8 * gx * gy * gz,
            num_heads=2 * gx, seq_len=8, vocab_size=16 * gx,
        )
        grid = Grid4D(GridConfig(gx, gy, gz))
        par = ParallelGPT.from_serial(GPT(cfg, seed=0), grid)
        batch = 2 * gz
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (batch, 7))
        tr = Tracer()
        with telemetry_scope(tr):
            par.loss(ids)
        vol = gpt_forward_backward_volumes(
            cfg, batch, grid.config, dtype_bytes=8, seq_len=6
        )
        val = tr.metrics.value
        assert val("comm.tag_bytes.linear.AG_z") == pytest.approx(vol.ag_z)
        assert val("comm.tag_bytes.linear.AR_x") + val(
            "comm.tag_bytes.linear.AR_y"
        ) == pytest.approx(vol.ar_fwd)

    def test_trainer_counters(self):
        cfg = GPTConfig(
            name="t", num_layers=1, hidden_size=8, num_heads=2,
            seq_len=8, vocab_size=16,
        )
        model = GPT(cfg, seed=0)
        trainer = MixedPrecisionTrainer(
            model, AdamW(model.parameters(), lr=1e-3), accumulation_steps=2
        )
        ids = np.random.default_rng(0).integers(0, 16, (4, 6))
        tr = Tracer()
        with telemetry_scope(tr):
            trainer.step(ids)
        assert tr.metrics.value("train.micro_steps") == 2
        assert tr.metrics.value("train.optimizer_steps") == 1
        assert any(s.name == "train.step" for s in tr.spans)

    def test_no_tracer_no_counters(self):
        """Instrumented code paths run identically with telemetry off."""
        group = ProcessGroup(tuple(range(2)))
        out_quiet = rc.all_reduce(self._buffers(group), group)
        tr = Tracer()
        with telemetry_scope(tr):
            out_traced = rc.all_reduce(self._buffers(group), group)
        for r in group:
            np.testing.assert_array_equal(out_quiet[r], out_traced[r])


class TestChromeTraceExport:
    def _tracer_with_spans(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        with tr.span("step", cat="train"):
            clk.advance(0.002)
            with tr.span("all_reduce", cat="comm"):
                clk.advance(0.001)
        return tr

    def test_chrome_trace_is_valid_and_in_microseconds(self):
        tr = self._tracer_with_spans()
        doc = chrome_trace(tr, metadata={"run": "unit"})
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"] == {"run": "unit"}
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["all_reduce"]["dur"] == pytest.approx(1000.0)
        assert by_name["step"]["dur"] == pytest.approx(3000.0)
        assert by_name["all_reduce"]["args"]["depth"] == 1
        json.dumps(doc)  # serializable

    def test_write_and_reload(self, tmp_path):
        tr = self._tracer_with_spans()
        path = write_chrome_trace(tmp_path / "t.json", tr)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert len(doc["traceEvents"]) == 2

    def test_write_refuses_invalid_events(self, tmp_path):
        bad = [TraceEvent(name="x", start=-5.0, duration=1.0)]
        with pytest.raises(ValueError):
            write_chrome_trace(tmp_path / "bad.json", bad)

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ([], "top level"),
            ({}, "traceEvents"),
            ({"traceEvents": [{"ph": "Z", "ts": 0, "pid": 1, "tid": 1}]},
             "phase"),
            ({"traceEvents": [{"name": "x", "ph": "X", "ts": True, "dur": 1,
                               "pid": 1, "tid": 1}]}, "'ts'"),
            ({"traceEvents": [{"name": "x", "ph": "X", "ts": 0,
                               "pid": 1, "tid": 1}]}, "'dur'"),
        ],
    )
    def test_validator_catches_malformed(self, doc, fragment):
        problems = validate_chrome_trace(doc)
        assert problems and fragment in problems[0]

    def test_simulator_timeline_exports_through_same_path(self):
        from repro.simulate import Timeline

        tl = Timeline()
        tl.add("compute", "gemm", 0.0, 1.0)
        tl.add("comm.z", "all_gather", 0.5, 1.5)
        events = tl.to_trace_events()
        assert all(isinstance(e, TraceEvent) for e in events)
        assert {e.tid for e in events} == {"compute", "comm.z"}
        assert validate_chrome_trace(chrome_trace(events)) == []


class TestBenchJson:
    def test_summary_schema(self):
        tr = Tracer()
        tr.count_collective("all_reduce", 64, tag="t")
        doc = bench_summary("unit", tr, meta={"grid": [2, 1, 1, 1]})
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["bench"] == "unit"
        assert doc["metrics"]["comm.bytes.all_reduce"] == 64
        assert doc["meta"]["grid"] == [2, 1, 1, 1]

    def test_write_bench_json_names_file(self, tmp_path):
        path = write_bench_json(tmp_path, "smoke", {"m": 1.0})
        assert path.name == "BENCH_smoke.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == BENCH_SCHEMA and doc["metrics"] == {"m": 1.0}


class TestFlamegraph:
    def test_ascii_flamegraph_renders_hierarchy(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        with tr.span("step"):
            clk.advance(0.8)
            with tr.span("comm"):
                clk.advance(0.2)
        art = ascii_flamegraph(tr, width=60)
        lines = art.splitlines()
        assert lines[0].startswith("step")
        assert lines[1].startswith("  comm")  # indented by depth
        assert "#" in lines[1] and "%" in lines[1]

    def test_empty_tracer(self):
        assert "no spans" in ascii_flamegraph(Tracer())

    def test_tracer_events_carry_depth(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("a"):
            with tr.span("b"):
                pass
        evs = tracer_events(tr)
        assert [e.args["depth"] for e in evs] == [1, 0]


class TestHistogramQuantile:
    """Bucket-interpolated quantiles: exact on single-bucket
    distributions, clamped to [min, max], monotone in q."""

    def test_constant_distribution_is_exact(self):
        h = MetricsRegistry().histogram("h")
        for _ in range(10):
            h.record(5.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 5.0

    def test_two_points_one_bucket_interpolate_exactly(self):
        # 3.0 and 4.0 share bucket (2, 4]; the [min, max] clamp makes
        # the within-bucket interpolation exact, not just bounded.
        h = MetricsRegistry().histogram("h")
        h.record(3.0)
        h.record(4.0)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(1.0) == 4.0
        assert h.quantile(0.5) == pytest.approx(3.5)

    def test_quantiles_are_monotone_and_bounded(self):
        h = MetricsRegistry().histogram("h")
        rng = np.random.default_rng(0)
        for v in rng.uniform(0.1, 900.0, 200):
            h.record(v)
        qs = [h.quantile(q) for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)
        assert qs[0] >= h.min and qs[-1] <= h.max
        assert h.quantile(0.0) == h.min
        assert h.quantile(1.0) == h.max

    def test_p99_lands_in_top_bucket(self):
        h = MetricsRegistry().histogram("h")
        for _ in range(99):
            h.record(1.0)
        h.record(1000.0)
        # rank 0.99 * 99 = 98.01 sits just inside the tail bucket.
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.99) > 1.0

    def test_errors(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            h.quantile(0.5)  # empty
        h.record(2.0)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_summary_includes_quantiles(self):
        h = MetricsRegistry().histogram("h")
        s = h.summary()
        assert s["p50"] == 0.0 and s["p99"] == 0.0
        for _ in range(4):
            h.record(7.0)
        s = h.summary()
        assert s["p50"] == 7.0 and s["p99"] == 7.0
