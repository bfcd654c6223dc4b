"""One serving loop, three decoders: the differential schedule tests.

The serial engine, the tensor-parallel engine and the simulator are the
same :class:`repro.serving.ServingLoop` over different decoders, so on a
common clock they must take the same scheduling decisions in the same
rounds.  These tests drive all three through the public
``submit()``/``step()`` pair, derive the ``(round, event, request_id)``
log from the public state after every round, and check the allocator and
request-ledger invariants at each step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PERLMUTTER
from repro.core.grid import Grid4D, GridConfig
from repro.nn.transformer import GPT
from repro.serving import (
    BatchingConfig,
    Request,
    ResilientTPEngine,
    ServingEngine,
    ServingLoop,
)
from repro.simulate.serving import AnalyticDecoder, ServingModel, simulate_serving
from repro.telemetry import Tracer, telemetry_scope

from .test_serving_resilience import CFG, trace

PREFIXES = {"serial": "serve.", "tp": "serve.tp.", "analytic": "sim.serve."}

#: A pool this small forces preemption (``num_blocks`` as in the bench's
#: ``_CHAOS`` spec, scaled to this model's 8-slot blocks).
TIGHT = BatchingConfig(max_batch=4, block_size=8, num_blocks=6)
#: Overload: a bounded queue sheds, a deadline expires waiters.
BOUNDED = BatchingConfig(
    max_batch=2, block_size=8, num_blocks=16, max_waiting=2, ttft_deadline=6.0
)


@pytest.fixture(scope="module")
def model():
    return GPT(CFG, seed=0)


def make(kind, model, config):
    if kind == "serial":
        return ServingEngine(model, config)
    if kind == "tp":
        return ResilientTPEngine(model, Grid4D(GridConfig(2, 1, 1, 1)), config)
    decoder = AnalyticDecoder(ServingModel(CFG, PERLMUTTER, tp=2), config)
    return ServingLoop(
        decoder, config, context_len=CFG.seq_len,
        vocab_size=CFG.vocab_size, prefix=PREFIXES[kind],
    )


def pools(loop):
    """(free blocks, {seq_id: held blocks or block ids}) per KV pool."""
    dec = loop.decoder
    if isinstance(dec, AnalyticDecoder):
        return [(dec.num_free_blocks, dec._blocks)]
    kvs = [loop.kv] if isinstance(loop, ServingEngine) else dec.inner.kv
    return [(kv.allocator.num_free, kv._tables) for kv in kvs]


def check_invariants(loop, submitted):
    for free, held in pools(loop):
        counts = [h if isinstance(h, int) else len(h) for h in held.values()]
        assert free + sum(counts) == loop.config.num_blocks
        ids = [b for h in held.values() if not isinstance(h, int) for b in h]
        assert len(ids) == len(set(ids)), "a block sits in two tables"
    groups = [
        [r.request_id for r in loop.batcher._waiting],
        [r.request.request_id for r in loop.running],
        [r.request.request_id for r in loop.preempted],
        [f.request.request_id for f in loop.finished],
        [r.request.request_id for r in loop.rejected],
    ]
    flat = [rid for g in groups for rid in g]
    assert sorted(flat) == sorted(submitted), "ledger is not a partition"


def drive(loop, requests):
    """``loop.run()``'s arrival loop on the unit clock, one observable
    round at a time; returns the ``(round, event, request_id)`` log."""
    pending = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
    log, submitted, admitted = [], [], set()
    preemptions, n_rejected, i = {}, 0, 0

    def busy():
        return loop.batcher.num_waiting or loop.running or loop.preempted

    def note_rejections():
        nonlocal n_rejected
        for rej in loop.rejected[n_rejected:]:
            log.append((loop.step_count, rej.cause, rej.request.request_id))
        n_rejected = len(loop.rejected)

    while i < len(pending) or busy():
        while i < len(pending) and pending[i].arrival_time <= loop.time:
            loop.submit(pending[i])
            submitted.append(pending[i].request_id)
            i += 1
        note_rejections()
        if not busy():
            if i >= len(pending):
                break
            loop.time = pending[i].arrival_time
            continue
        was_preempted = {r.request.request_id for r in loop.preempted}
        done = loop.step()
        k = loop.step_count
        inflight = loop.running + loop.preempted + done
        now_preempted = {r.request.request_id for r in loop.preempted}
        for r in sorted(inflight, key=lambda r: r.request.request_id):
            rid = r.request.request_id
            evicted_again = r.preemptions > preemptions.get(rid, 0)
            if rid in was_preempted and (rid not in now_preempted or evicted_again):
                log.append((k, "resume", rid))
            if rid not in admitted:
                admitted.add(rid)
                log.append((k, "admit", rid))
            if evicted_again:
                preemptions[rid] = r.preemptions
                log.append((k, "preempt", rid))
        log += [(k, "finish", f.request.request_id) for f in done]
        note_rejections()
        check_invariants(loop, submitted)
        loop.time += 1.0
    return log


class TestOneScheduleThreeDecoders:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    @pytest.mark.parametrize("config", [TIGHT, BOUNDED], ids=["tight", "bounded"])
    def test_identical_event_log(self, model, config, seed):
        reqs = trace(n=10, seed=seed, rate=2.0)
        logs = {k: drive(make(k, model, config), reqs) for k in PREFIXES}
        assert logs["serial"] == logs["tp"] == logs["analytic"]
        finishes = sum(1 for _, event, _ in logs["serial"] if event == "finish")
        outcomes = sum(
            1 for _, event, _ in logs["serial"]
            if event in ("rejected", "shed", "deadline")
        )
        assert finishes + outcomes == len(reqs)

    def test_the_fixed_traces_exercise_every_event(self, model):
        """The property above is vacuous unless preemption and overload
        actually occur; pin one trace of each."""
        tight = drive(make("analytic", model, TIGHT), trace())
        assert {"admit", "preempt", "resume", "finish"} <= {e for _, e, _ in tight}
        bounded = drive(make("analytic", model, BOUNDED), trace(n=12, rate=4.0))
        assert {"shed", "deadline"} <= {e for _, e, _ in bounded}

    @pytest.mark.parametrize("kind", list(PREFIXES))
    def test_drive_matches_run(self, model, kind):
        """The observable round-by-round driver above is ``run()``."""
        ours = drive(make(kind, model, TIGHT), trace())
        theirs = make(kind, model, TIGHT).run(trace())
        assert [(k, rid) for k, e, rid in ours if e == "finish"] == [
            (f.finish_step, f.request.request_id) for f in theirs
        ]

    def test_same_counters_modulo_prefix(self, model):
        """Telemetry parity: every backend emits the loop's counter set
        (and, on one schedule, the same values) under its own prefix."""
        seen = {}
        for kind, prefix in PREFIXES.items():
            tracer = Tracer()
            over_context = Request(
                99, np.ones(CFG.seq_len, dtype=np.int64), 4, 0.0
            )
            with telemetry_scope(tracer):
                make(kind, model, TIGHT).run(trace() + [over_context])
            m = tracer.metrics
            seen[kind] = {
                name[len(prefix):]: (
                    m.value(name) if "e2e_steps" not in name
                    else m.histogram(name).count
                )
                for name in m.names()
                if name.startswith(prefix)  # TP also traces collectives
            }
        assert seen["serial"] == seen["tp"] == seen["analytic"]
        assert {
            "requests", "rejected", "admitted", "prefill_tokens",
            "decode_steps", "decode_tokens", "preemptions", "resumes",
            "recompute_tokens", "finished", "e2e_steps",
        } == set(seen["serial"])

    @pytest.mark.parametrize("kind", list(PREFIXES))
    def test_out_of_vocabulary_prompt_is_a_typed_rejection(self, model, kind):
        """Regression: a ``-1`` in a prompt was served as the last row of
        ``wte``, and an id past the vocabulary raised NumPy's raw
        ``IndexError`` out of ``run()``, losing the rest of the trace.
        Both are ``rejected`` at enqueue, as an over-context prompt is."""
        v = CFG.vocab_size
        loop = make(kind, model, TIGHT)
        poison = [
            Request(0, np.asarray([3, -1, 5]), 3, 0.0),
            Request(1, np.asarray([3, v, 5]), 3, 0.0),
        ]
        fins = loop.run(poison + [Request(2, np.asarray([3, v - 1, 5]), 3, 0.0)])
        assert [f.request.request_id for f in fins] == [2]
        assert [(r.request.request_id, r.cause) for r in loop.rejected] == [
            (0, "rejected"), (1, "rejected"),
        ]
        assert loop.stats["rejected"] == 2 and loop.stats["admitted"] == 1


class TestSimulatorRoundSemantics:
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_lone_request_costs_its_unloaded_latency(self, n):
        """Regression: the simulator spent ``N`` rounds on a request the
        engines finish in ``max(N - 1, 1)`` (prefill emits the first
        token), so a lone request took 1.14x (N=8) to 19.7x (N=1) of
        the simulator's own SLO baseline."""
        sim_model = ServingModel(CFG, PERLMUTTER)
        req = Request(0, np.ones(16, dtype=np.int64), n, 0.0)
        res = simulate_serving([req], sim_model)
        assert res.num_requests == 1
        assert res.decode_steps == max(n - 1, 1)
        assert res.mean_e2e == sim_model.unloaded_latency(req)
        assert res.makespan == sim_model.unloaded_latency(req)
        assert res.slo_attainment == 1.0
