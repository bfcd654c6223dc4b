"""One fault timeline: the stochastic replay runs on the one training loop.

:func:`repro.simulate.simulate_run` is ``_train_fault_tolerant`` with the
restart strategy over a virtual-time trainer whose ``step`` only moves a
clock.  Three checks hold it there:

* the loop it replaced (``tests/oracles/failures.py``, verbatim) gives
  the same :class:`RunOutcome`, every float compared as ``float.hex``;
* under a :class:`Tracer` it emits one ``train.recovery`` span per
  failure, like the functional strategies;
* a step-indexed :class:`FaultPlan` through :func:`train_with_recovery`
  on a tiny model and the matching failure times through the virtual
  trainer give the same restart accounting.
"""

import math
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import GPTConfig
from repro.core import Grid4D, GridConfig, ParallelGPT
from repro.nn import AdamW, MixedPrecisionTrainer, train_with_recovery
from repro.runtime import FaultInjector, FaultPlan, FaultSpec
from repro.simulate import FailureModel, simulate_run
from repro.simulate.failures import _VirtualTrainer
from repro.telemetry import Tracer, telemetry_scope
from tests.oracles.failures import simulate_run as oracle_simulate_run


def _hex(outcome):
    return [v.hex() if isinstance(v, float) else v for v in astuple(outcome)]


@st.composite
def _runs(draw):
    """``simulate_run`` positional arguments.  The job MTBF is at least
    half a checkpoint segment (straggled steps plus the save), so every
    segment commits with probability above e^-2 and each replay ends."""
    iteration_time = draw(st.floats(0.1, 10.0))
    interval = draw(st.integers(1, 20))
    ckpt_time = draw(st.floats(0.0, 20.0))
    slowdown = draw(st.floats(1.0, 3.0))
    num_nodes = draw(st.integers(1, 64))
    segment = interval * iteration_time * slowdown + ckpt_time
    model = FailureModel(
        node_mtbf=segment * draw(st.floats(0.5, 50.0)) * num_nodes,
        restart_time=draw(st.floats(0.0, 50.0)),
        straggler_prob=draw(st.sampled_from([0.0, 0.02, 0.3, 1.0])),
        straggler_slowdown=slowdown,
    )
    return (
        iteration_time, draw(st.integers(1, 200)), interval, ckpt_time,
        model, num_nodes, draw(st.integers(0, 2**32 - 1)),
        draw(st.none() | st.floats(0.0, 10.0)),
    )


class TestMatchesTheLoopItReplaced:
    @settings(max_examples=200, deadline=None)
    @given(args=_runs())
    # 9 failures, all mid-step: adding restart and read before the
    # failure time changes this one's bits.
    @example(args=(10.0, 242, 6, 0.001, FailureModel(
        node_mtbf=500.0, restart_time=0.37, straggler_prob=0.02,
        straggler_slowdown=2.0), 1, 290424, None))
    # 5 failures mid-save, 3 mid-step, with a separate read time.
    @example(args=(1.0, 60, 2, 5.0, FailureModel(
        node_mtbf=40.0, restart_time=3.0, straggler_prob=0.3,
        straggler_slowdown=1.5), 2, 7, 0.5))
    # No failures at all: the draw is infinite.
    @example(args=(3.0, 7, 2, 1.0, FailureModel(node_mtbf=math.inf), 4, 0,
                   None))
    def test_same_outcome_bit_for_bit(self, args):
        assert _hex(simulate_run(*args)) == _hex(oracle_simulate_run(*args))

    def test_one_recovery_span_per_failure(self):
        model = FailureModel(
            node_mtbf=40.0, restart_time=3.0, straggler_prob=0.3,
            straggler_slowdown=1.5,
        )
        with telemetry_scope(Tracer()) as tracer:
            out = simulate_run(1.0, 60, 2, 5.0, model, 2, seed=7, read_time=0.5)
        spans = [s for s in tracer.spans if s.name == "train.recovery"]
        causes = Counter(s.args["cause"] for s in spans)
        assert len(spans) == out.failures == 8
        assert causes == {"corruption": 5, "kill": 3}
        assert tracer.metrics.value("train.restarts") == out.restarts


# -- the cross-layer check -----------------------------------------------------

NUM_STEPS = 5


def _kill(rank, step):
    return FaultSpec("kill", rank=rank, step=step)


def _torn(match):
    return FaultSpec("torn_write", match=match)


# The virtual run has unit steps and unit saves and restarts for free,
# so from each (re)start its clock walks unit slots: the steps and the
# charged saves in order (interval 1: step 0, save 1, step 1, save 2,
# ...; interval 3: steps 0-2, save 3, steps 3-4).  A gap of ``k + 0.5``
# fails slot ``k`` counted from the last (re)start; a gap on a whole
# number fails the slot that starts there.  ``torn_write``'s ``match``
# counts periodic saves from the first, across restarts.
CASES = {
    "kill at step 0, interval 1": (1, [_kill(1, 0)], [0.5], [0]),
    "kill at step 0, interval 3": (3, [_kill(1, 0)], [0.5], [0]),
    "kill in the last step, interval 1": (1, [_kill(3, 4)], [8.5], [4]),
    "kill in the last step, interval 3": (3, [_kill(3, 4)], [5.5], [3]),
    "torn first save, interval 1": (1, [_torn(0)], [1.5], [0]),
    "torn first save, interval 3": (3, [_torn(0)], [3.5], [0]),
    "kill then torn save, interval 1": (
        1, [_kill(1, 2), _torn(2)], [4.5, 1.5], [2, 2]
    ),
    "kill then torn save, interval 3": (
        3, [_kill(1, 1), _torn(0)], [1.5, 3.5], [0, 0]
    ),
    "two kills in one interval, interval 1": (
        1, [_kill(1, 2), _kill(3, 2)], [4.5, 0.5], [2, 2]
    ),
    # The second failure lands the instant step 1 ends: it is step 2's.
    "two kills in one interval, interval 3": (
        3, [_kill(1, 1), _kill(3, 2)], [1.5, 2.0], [0, 0]
    ),
    # The failure lands the instant a save completes: it is the next
    # step's, and nothing is lost.
    "kill on an interval boundary, interval 1": (1, [_kill(1, 2)], [4.0], [2]),
    "kill on an interval boundary, interval 3": (3, [_kill(1, 3)], [4.0], [3]),
}


def _accounting(report):
    return (
        report.restarts, dict(report.restart_causes), report.steps_lost,
        report.resumed_from, report.checkpoint_saves, report.steps,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_virtual_and_functional_restarts_agree(name, tmp_path):
    interval, faults, gaps, resumed_from = CASES[name]
    cfg = GPTConfig(
        name="timeline", num_layers=1, hidden_size=16, num_heads=4,
        seq_len=10, vocab_size=32,
    )

    def factory():
        model = ParallelGPT(Grid4D(GridConfig(1, 2, 2)), cfg, seed=0)
        return MixedPrecisionTrainer(model, AdamW(model.parameters(), lr=1e-3))

    rng = np.random.default_rng(0)
    batches = [rng.integers(0, 32, (2, 8)) for _ in range(NUM_STEPS)]
    functional = train_with_recovery(
        factory, batches, tmp_path / "state.npz",
        checkpoint_interval=interval, injector=FaultInjector(FaultPlan(faults)),
        max_restarts=len(faults),
    )
    virtual = _VirtualTrainer(
        1.0, 1.0, 0.0, FailureModel(restart_time=0.0), np.random.default_rng(0),
        iter(gaps + [math.inf]).__next__,
    ).run(NUM_STEPS, interval)
    assert _accounting(virtual) == _accounting(functional)
    assert functional.resumed_from == resumed_from
    assert functional.restarts == len(faults)
