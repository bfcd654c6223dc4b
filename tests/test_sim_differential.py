"""Differential harness: the scalar oracle vs. the simulator's one engine.

The simulator prices its links with the vectorized, memoized
``repro.simulate.engine`` and its GEMMs with the per-shape-cached tuner.
Those rewrite the numbers the whole repo is gated on — crossover
frontiers, goodput reports, plan CLI rankings — so their contract is
*bitwise equality* with the readable definitions: the per-rank scalar
walks of ``repro.simulate.network_sim`` and the uncached
``tune_matmuls``.  There is no second engine to select; instead this
suite derives link timings and the GEMM plan the slow way, feeds them to
the *same* ``price_iteration`` -> ``schedule_iteration`` ->
``summarise_iteration`` stages ``simulate_iteration`` composes, and
asserts over fuzzed (machine x grid shape x placement x message size x
flat/hier algorithm) points:

* per-axis link timings and two-level decompositions are identical;
* ``IterationPrices`` compares equal field-for-field;
* every per-op interval of a traced iteration is identical (1-ulp
  criterion, satisfied exactly);
* ``IterationResult`` — totals, details, algorithm choices, event
  counts — compares equal field-for-field (floats bitwise);
* the existing golden configurations are among the checked points.

The fuzz budget defaults to 200 points and honours the
``SIM_DIFF_POINTS`` env var so CI smoke jobs can run a reduced sweep
(see the ``sim-scale-smoke`` workflow job).
"""

import inspect
import os
import random

import pytest

from repro.autotune import ALL_OVERLAP_COMBOS
from repro.cluster import (
    ALPS,
    FRONTIER,
    PERLMUTTER,
    GPUSpec,
    MachineSpec,
    Placement,
)
from repro.config import GPTConfig, get_model
from repro.core import Grid4D, GridConfig
from repro.core.grid import AXES5
from repro.kernels import GemmModel, tune_matmuls, tune_matmuls_cached
from repro.perfmodel import gpt_layer_shapes
from repro.simulate import (
    OverlapFlags,
    Timeline,
    deterministic_jitter,
    local_matmul_ops,
    price_iteration,
    schedule_iteration,
    simulate_iteration,
    summarise_iteration,
)
from repro.simulate import engine as vec_engine
from repro.simulate import executor
from repro.simulate import network_sim as ns

FUZZ_POINTS = int(os.environ.get("SIM_DIFF_POINTS", "200"))

#: The 2-GPUs-per-node toy machine of the ``axonn_4d_hier`` golden
#: scenario (tests/golden/): X groups of the (4,1,2,1) grid straddle
#: two nodes with L=2, exercising the two-level path at tiny scale.
GOLDEN_MACHINE = MachineSpec(
    name="golden-2pn",
    gpu=GPUSpec("toy", 1e15, 5e14, 4e10),
    gpus_per_node=2,
    intra_node_bw=1e11,
    inter_node_bw=1e11,
    total_gpus=64,
)

MACHINES = [PERLMUTTER, FRONTIER, ALPS, GOLDEN_MACHINE]

TINY = GPTConfig("diff-tiny", num_layers=2, hidden_size=64, num_heads=4,
                 seq_len=32, vocab_size=64)
SMALL = GPTConfig("diff-small", num_layers=3, hidden_size=256, num_heads=8,
                  seq_len=128, vocab_size=512)
MODELS = [TINY, SMALL]

#: (machine, config, collective_algo) triples every run of the suite
#: must cover — the golden-trace scenarios plus the hierarchical
#: benchmark's single-axis node-straddling shape.
GOLDEN_POINTS = [
    (PERLMUTTER, GridConfig(2, 2, 2, 1), "flat"),
    (GOLDEN_MACHINE, GridConfig(4, 1, 2, 1, collective_algo="hierarchical"), None),
    (PERLMUTTER, GridConfig(2 * PERLMUTTER.gpus_per_node, 1, 1, 1), "auto"),
    (FRONTIER, GridConfig(2 * FRONTIER.gpus_per_node, 1, 1, 1), "auto"),
]


def _random_dims(rng: random.Random, total: int) -> tuple[int, int, int, int]:
    """A random 4-way factorization of ``total``."""
    dims = [1, 1, 1, 1]
    remaining = total
    for i in range(3):
        divisors = [d for d in range(1, remaining + 1) if remaining % d == 0]
        dims[i] = rng.choice(divisors)
        remaining //= dims[i]
    dims[3] = remaining
    rng.shuffle(dims)
    return tuple(dims)


def _fuzz_points(n: int):
    rng = random.Random(20240807)
    points = []
    while len(points) < n:
        machine = rng.choice(MACHINES)
        num_gpus = rng.choice([4, 8, 8, 16, 16, 32, 32, 64, 128])
        if num_gpus > machine.total_gpus:
            continue
        strategy = rng.choice(["block", "block", "round_robin"])
        if strategy == "round_robin" and num_gpus % machine.num_nodes(num_gpus):
            strategy = "block"
        dims = _random_dims(rng, num_gpus)
        algo = rng.choice(["flat", "hierarchical", "auto", "auto"])
        model = rng.choice(MODELS)
        batch = dims[3] * rng.choice([1, 2, 4])
        overlap = rng.choice([OverlapFlags.none(), OverlapFlags.all(),
                              OverlapFlags(oar=True)])
        kernel_tuning = rng.random() < 0.5
        noise = rng.choice([0.0, 0.03])
        salt = rng.choice([0, 7])
        points.append(
            (machine, dims, strategy, algo, model, batch, overlap,
             kernel_tuning, noise, salt)
        )
    return points


FUZZED = _fuzz_points(FUZZ_POINTS)


def _point_id(p):
    machine, dims, strategy, algo, model, batch, *_ = p
    return f"{machine.name}-{'x'.join(map(str, dims))}-{strategy}-{algo}-{model.name}"


def _scalar_timings(grid, placement):
    """Link and two-level timings by the per-rank Python walks."""
    flat = {
        axis: ns.measured_group_bandwidth(grid, placement, axis)
        for axis in AXES5
    }
    hier = {
        axis: ns.hierarchical_group_timing(grid, placement, axis)
        for axis in AXES5
    }
    return flat, hier


def _prices(model, batch, config, machine, *, oracle, kernel_tuning=False,
            placement_strategy="block", collective_algo=None):
    """``simulate_iteration``'s price stage, fed by the production engine
    or (``oracle=True``) by the scalar walks and the uncached tuner."""
    algo = collective_algo if collective_algo is not None else config.collective_algo
    placement = Placement(machine, config.total, strategy=placement_strategy)
    grid = Grid4D(config, placement=placement)
    if oracle:
        timings, hier = _scalar_timings(grid, placement)
        tune = tune_matmuls
    else:
        timings = vec_engine.group_timings(grid, placement)
        hier = vec_engine.hierarchical_group_timings(grid, placement)
        tune = tune_matmuls_cached
    layers = gpt_layer_shapes(model, batch // config.gdata)
    plan = tune(local_matmul_ops(layers, config), GemmModel(machine))
    return price_iteration(
        model, batch, config, machine, layers, _shape_plan(layers, plan),
        timings, hier if algo != "flat" else {}, algo, kernel_tuning, True,
        1.0, 1.0,
    )


def _shape_plan(layers, plan):
    """The per-op ``TunedPlan`` as the per-shape table stage 1 reads;
    every op of one layer shape must carry the same times."""
    times = {}
    for layer in layers:
        key = (layer.m, layer.k, layer.n, layer.transposed)
        names = [f"{layer.name}.{op}" for op in ("fwd", "dI", "dW")]
        entry = (
            tuple(plan.default_times[n] for n in names),
            tuple(plan.tuned_times[n] for n in names),
        )
        assert times.setdefault(key, entry) == entry
    return executor.ShapePlan(times, plan.speedup)


def _oracle_iteration(model, batch, config, machine, *, overlap=OverlapFlags.none(),
                      noise=executor.DEFAULT_NOISE, run_salt=0, trace=None,
                      **price_kwargs):
    """(prices, result) of one iteration priced by the scalar oracle and
    run through the production schedule and summarise stages."""
    prices = _prices(model, batch, config, machine, oracle=True, **price_kwargs)
    total, num_events = schedule_iteration(prices, overlap, trace)
    return prices, summarise_iteration(prices, total, num_events, noise, run_salt)


class TestFuzzedDifferential:
    """Scalar oracle vs. the production engine over the fuzz corpus."""

    @pytest.mark.parametrize("point", FUZZED, ids=_point_id)
    def test_point_bitwise_identical(self, point):
        (machine, dims, strategy, algo, model, batch, overlap,
         kernel_tuning, noise, salt) = point
        config = GridConfig(*dims)
        placement = Placement(machine, config.total, strategy=strategy)
        grid = Grid4D(config, placement=placement)

        # Per-axis link timings: exact equality, field for field.
        scalar_t, scalar_h = _scalar_timings(grid, placement)
        assert scalar_t == vec_engine.group_timings(grid, placement)
        assert scalar_h == vec_engine.hierarchical_group_timings(grid, placement)

        # The price stage, then the full iteration: every field of
        # IterationPrices and IterationResult, floats bitwise.
        price_kwargs = dict(
            kernel_tuning=kernel_tuning, placement_strategy=strategy,
            collective_algo=algo,
        )
        prices, res_oracle = _oracle_iteration(
            model, batch, config, machine, overlap=overlap, noise=noise,
            run_salt=salt, **price_kwargs
        )
        assert prices == _prices(
            model, batch, config, machine, oracle=False, **price_kwargs
        )
        assert res_oracle == simulate_iteration(
            model, batch, config, machine, overlap=overlap, noise=noise,
            run_salt=salt, **price_kwargs
        )

    def test_budget_met(self):
        """The suite honoured its fuzz budget (>= 200 by default)."""
        assert len(FUZZED) == FUZZ_POINTS


class TestGoldenConfigs:
    """The checked-in golden scenarios are differential points too."""

    @pytest.mark.parametrize(
        "machine,config,algo", GOLDEN_POINTS,
        ids=[f"{m.name}-{'x'.join(map(str, c.dims))}" for m, c, _ in GOLDEN_POINTS],
    )
    def test_golden_bitwise_identical(self, machine, config, algo):
        trace_oracle, trace_engine = Timeline(), Timeline()
        kwargs = dict(
            overlap=OverlapFlags.all(), kernel_tuning=True,
            collective_algo=algo,
        )
        _, res_oracle = _oracle_iteration(
            TINY, 4 * config.gdata, config, machine,
            trace=trace_oracle, **kwargs
        )
        res_engine = simulate_iteration(
            TINY, 4 * config.gdata, config, machine,
            trace=trace_engine, **kwargs
        )
        assert res_oracle == res_engine
        # Per-op check: every traced interval identical (streams, names,
        # starts, ends — frozen dataclasses compare exactly).
        assert trace_oracle.events == trace_engine.events
        assert len(trace_oracle.events) == res_oracle.num_events


class TestPerOpTraces:
    """Per-op interval equality on a traced subset of the fuzz corpus."""

    @pytest.mark.parametrize("point", FUZZED[::10], ids=_point_id)
    def test_traced_events_identical(self, point):
        (machine, dims, strategy, algo, model, batch, overlap,
         kernel_tuning, noise, salt) = point
        config = GridConfig(*dims)
        trace_oracle, trace_engine = Timeline(), Timeline()
        kwargs = dict(
            overlap=overlap, kernel_tuning=kernel_tuning, noise=noise,
            run_salt=salt, placement_strategy=strategy, collective_algo=algo,
        )
        _oracle_iteration(
            model, batch, config, machine, trace=trace_oracle, **kwargs
        )
        simulate_iteration(
            model, batch, config, machine, trace=trace_engine, **kwargs
        )
        assert trace_oracle.events == trace_engine.events


class TestJitterDeterminism:
    """The same seed yields the same perturbation, however priced."""

    def test_single_jitter_source(self):
        # The executor calls the one shared implementation — there is no
        # second hashing path a refactor could let drift.
        assert executor.deterministic_jitter is deterministic_jitter
        assert vec_engine.deterministic_jitter is deterministic_jitter

    def test_variability_reexport(self):
        from repro.simulate import deterministic_jitter as from_package

        assert from_package is deterministic_jitter

    def test_zero_amplitude_is_identity(self):
        assert deterministic_jitter("any-key", 0.0) == 1.0

    def test_keyed_and_bounded(self):
        a = deterministic_jitter("frontier|cfg|GPT-20B|8192", 0.03)
        b = deterministic_jitter("frontier|cfg|GPT-20B|8192|1", 0.03)
        assert a != b
        for v in (a, b):
            assert 0.97 <= v <= 1.03

    @pytest.mark.parametrize("salt", [0, 1, 42])
    def test_salted_runs_agree_across_engines(self, salt):
        config = GridConfig(2, 2, 2, 2)
        kwargs = dict(overlap=OverlapFlags.all(), run_salt=salt)
        _, oracle = _oracle_iteration(TINY, 32, config, FRONTIER, **kwargs)
        engine = simulate_iteration(TINY, 32, config, FRONTIER, **kwargs)
        assert oracle.total_time == engine.total_time


class TestTimingOnly:
    """timing_only=True: identical totals, zero Timeline events."""

    @pytest.mark.parametrize(
        "machine,config,algo", GOLDEN_POINTS,
        ids=[f"{m.name}-{'x'.join(map(str, c.dims))}" for m, c, _ in GOLDEN_POINTS],
    )
    def test_identical_totals_zero_events(self, machine, config, algo):
        full_trace, empty_trace = Timeline(), Timeline()
        kwargs = dict(overlap=OverlapFlags.all(), collective_algo=algo)
        full = simulate_iteration(
            TINY, 4 * config.gdata, config, machine,
            trace=full_trace, **kwargs
        )
        timing = simulate_iteration(
            TINY, 4 * config.gdata, config, machine,
            trace=empty_trace, timing_only=True, **kwargs
        )
        assert timing == full  # every field, totals bitwise
        assert len(empty_trace) == 0
        assert len(full_trace) == full.num_events == timing.num_events
        assert full.num_events > 0

    def test_timing_only_without_trace(self):
        config = GridConfig(2, 2, 2, 1)
        res = simulate_iteration(
            TINY, 4, config, PERLMUTTER, timing_only=True
        )
        assert res.num_events > 0


class TestEngineValidation:
    def test_unknown_engine_rejected(self):
        """There is one engine: no entry point takes ``engine=`` any more."""
        grid = Grid4D(GridConfig(2, 2, 2, 1))
        placement = Placement(PERLMUTTER, 8)
        with pytest.raises(TypeError, match="engine"):
            simulate_iteration(
                TINY, 4, GridConfig(2, 2, 2, 1), PERLMUTTER, engine="scalar"
            )
        with pytest.raises(TypeError, match="engine"):
            vec_engine.group_timings(grid, placement, engine="scalar")
        with pytest.raises(TypeError, match="engine"):
            vec_engine.hierarchical_group_timings(grid, placement, engine="scalar")
        assert not hasattr(vec_engine, "ENGINES")

    def test_clear_caches(self):
        placement = Placement(FRONTIER, 16)
        grid = Grid4D(GridConfig(4, 2, 2, 1), placement=placement)
        before = vec_engine.group_timings(grid, placement)
        assert vec_engine._GROUP_TIMINGS_CACHE
        vec_engine.clear_caches()
        assert not vec_engine._GROUP_TIMINGS_CACHE
        after = vec_engine.group_timings(grid, placement)
        assert before == after


class TestShapePlanSpeedup:
    """Stage 0's per-shape speedup is the per-op plan's, bitwise."""

    @pytest.mark.parametrize("model,machine,dims,batch", [
        (SMALL, FRONTIER, (2, 2, 2, 1, 2), 4),  # a sequence-parallel grid
        (SMALL, PERLMUTTER, (4, 2, 1, 2), 8),
        # ~500 summed GEMM times: where a compensated sum() and a plain
        # left-to-right one part ways.
        (get_model("GPT-80B"), FRONTIER, (8, 4, 8, 32), 8192),
    ], ids=["gs2", "gs1", "gpt80b"])
    def test_speedup_hex_matches_tuned_plan(self, model, machine, dims, batch):
        config = GridConfig(*dims)
        layers = gpt_layer_shapes(model, batch // config.gdata)
        plan = tune_matmuls(local_matmul_ops(layers, config), GemmModel(machine))
        inputs = executor.job_inputs(model, batch, config, machine, "block", False)
        assert inputs.plan.speedup.hex() == plan.speedup.hex()
        assert inputs.plan == _shape_plan(layers, plan)

    def test_speedup_follows_a_compensated_sum(self, monkeypatch):
        # Python 3.12's float sum() is Neumaier-compensated; both sides
        # must go through sum() itself, whichever one the interpreter has.
        def neumaier(values, start=0):
            total, comp = start, 0.0
            for v in values:
                t = total + v
                comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
                total = t
            return total + comp

        from repro.kernels import tuner
        monkeypatch.setattr(tuner, "sum", neumaier, raising=False)
        monkeypatch.setattr(executor, "sum", neumaier, raising=False)
        model, config, batch = get_model("GPT-80B"), GridConfig(8, 4, 8, 32), 8192
        layers = gpt_layer_shapes(model, batch // config.gdata)
        plan = tune_matmuls(local_matmul_ops(layers, config), GemmModel(FRONTIER))
        inputs = executor.job_inputs(model, batch, config, FRONTIER, "block", False)
        assert inputs.plan.speedup.hex() == plan.speedup.hex()
        # The stack is deep enough that a left-to-right sum would differ.
        plain = 0
        for v in plan.default_times.values():
            plain += v
        assert neumaier(plan.default_times.values()) != plain

    def test_zero_tuned_total_reads_one(self, monkeypatch):
        # Every GEMM prices to 0 s on a machine of its own (the tuner's
        # shape memo is per machine).
        zero = MachineSpec(
            name="zero-gemm",
            gpu=GPUSpec("toy", 1e15, 5e14, 4e10),
            gpus_per_node=4,
            intra_node_bw=1e11,
            inter_node_bw=1e11,
            total_gpus=64,
        )
        monkeypatch.setattr(GemmModel, "time", lambda self, m, k, n, mode="NN": 0.0)
        config = GridConfig(2, 2, 2, 1)
        layers = gpt_layer_shapes(TINY, 4)
        plan = tune_matmuls(local_matmul_ops(layers, config), GemmModel(zero))
        assert plan.total_tuned == 0
        inputs = executor.job_inputs(TINY, 4, config, zero, "block", False)
        assert inputs.plan.speedup.hex() == plan.speedup.hex() == (1.0).hex()


class TestPriceStage:
    """``IterationPrices`` is the part of an iteration that ``overlap``,
    ``noise`` and ``run_salt`` cannot move."""

    def test_price_stage_takes_no_schedule_or_noise_input(self):
        params = set(inspect.signature(price_iteration).parameters)
        assert not params & {"overlap", "trace", "noise", "run_salt", "timing_only"}
        for stage in (price_iteration, schedule_iteration, summarise_iteration):
            for p in inspect.signature(stage).parameters.values():
                assert p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD

    @pytest.mark.parametrize(
        "machine,config,algo", GOLDEN_POINTS,
        ids=[f"{m.name}-{'x'.join(map(str, c.dims))}" for m, c, _ in GOLDEN_POINTS],
    )
    def test_one_prices_value_serves_every_overlap_salt_and_noise(
        self, machine, config, algo
    ):
        batch = 4 * config.gdata
        kwargs = dict(kernel_tuning=True, collective_algo=algo)
        prices = _prices(SMALL, batch, config, machine, oracle=False, **kwargs)
        for overlap in ALL_OVERLAP_COMBOS:
            for salt in (0, 5):
                for noise in (0.0, 0.03):
                    total, events = schedule_iteration(prices, overlap, None)
                    assert summarise_iteration(
                        prices, total, events, noise, salt
                    ) == simulate_iteration(
                        SMALL, batch, config, machine, overlap=overlap,
                        run_salt=salt, noise=noise, **kwargs
                    )
        # ... and pricing again gives the same value, memo tables warm.
        assert prices == _prices(
            SMALL, batch, config, machine, oracle=False, **kwargs
        )

    @pytest.mark.parametrize("machine", [PERLMUTTER, FRONTIER, GOLDEN_MACHINE],
                             ids=lambda m: m.name)
    def test_repeated_layers_cannot_change_picks(self, machine):
        """Picks are recorded as sets, once per distinct (op, bytes,
        axis) price: stacking more identical transformer blocks asks the
        same questions again and must report the same per-axis answer."""
        config = GridConfig(2 * machine.gpus_per_node, 1, 2, 1)
        kwargs = dict(oracle=False, collective_algo="auto")
        picks = {}
        for num_layers in (1, 6):
            model = GPTConfig("picks", num_layers=num_layers, hidden_size=256,
                              num_heads=8, seq_len=128, vocab_size=512)
            prices = _prices(model, 8, config, machine, **kwargs)
            assert all(isinstance(v, frozenset) for v in prices.axis_picks.values())
            picks[num_layers] = {
                axis: prices.axis_picks.get(axis) for axis in ("x", "y", "z")
            }
        assert picks[1] == picks[6]
        assert picks[1]["x"]  # the node-straddling X axis did make picks
