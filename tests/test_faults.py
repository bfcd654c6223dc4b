"""Fault injection: deterministic plans, runtime hooks, retry budgets,
and — critically — proof that every injected fault class leaves a
schedule defect the static validator detects *and attributes to the
right rank and op*.  An injector whose faults the validator cannot see
is testing nothing.
"""

from dataclasses import replace
from typing import Iterable

import numpy as np
import pytest

from repro.runtime import (
    CommEvent,
    CommTracer,
    CommTimeoutError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ProcessGroup,
    RankFailure,
    RetryPolicy,
    all_gather,
    all_reduce,
    all_to_all,
    fault_scope,
    get_active_injector,
    iall_reduce,
    reduce_scatter,
    send_recv,
    validate_schedule,
)


GROUP = ProcessGroup((0, 1, 2, 3))


def bufs(n=8, group=GROUP):
    return {r: np.full(n, float(r)) for r in group}


# -- specs and plans -----------------------------------------------------------


class TestFaultSpec:
    def test_kill_requires_rank(self):
        with pytest.raises(ValueError):
            FaultSpec("kill")

    def test_p2p_faults_require_endpoints(self):
        with pytest.raises(ValueError):
            FaultSpec("drop_p2p", src=0)
        with pytest.raises(ValueError):
            FaultSpec("delay_p2p", src=1, dst=1, delay=1.0)

    def test_delay_needs_positive_delay(self):
        with pytest.raises(ValueError):
            FaultSpec("delay_wait", delay=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor_strike", rank=0)

    def test_random_plans_are_seed_deterministic(self):
        a = FaultPlan.random(seed=7, ranks=16, max_step=5)
        b = FaultPlan.random(seed=7, ranks=16, max_step=5)
        c = FaultPlan.random(seed=8, ranks=16, max_step=5)
        assert a.faults == b.faults
        assert a.faults != c.faults

    def test_random_plan_faults_are_valid(self):
        for seed in range(20):
            plan = FaultPlan.random(seed=seed, ranks=8, max_step=10)
            assert len(plan.faults) == 3


class TestRetryPolicy:
    def test_budget_is_geometric_sum(self):
        rp = RetryPolicy(timeout=1.0, max_retries=3)
        assert rp.budget == pytest.approx(1 + 2 + 4 + 8)

    def test_attempts_to_cover(self):
        rp = RetryPolicy(timeout=1.0, max_retries=3)
        assert rp.attempts_to_cover(0.5) == 1
        assert rp.attempts_to_cover(2.5) == 2
        assert rp.attempts_to_cover(15.0) == 4
        assert rp.attempts_to_cover(15.1) is None
        assert rp.attempts_to_cover(float("inf")) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


# -- runtime hooks -------------------------------------------------------------


class TestKillInjection:
    def test_kill_raises_on_next_collective(self):
        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=2, step=0),)))
        with fault_scope(inj):
            with pytest.raises(RankFailure) as e:
                all_reduce(bufs(), GROUP)
        assert e.value.rank == 2
        assert "all_reduce" in str(e.value)

    def test_kill_waits_for_its_step(self):
        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=1, step=3),)))
        with fault_scope(inj):
            inj.start_step(2)
            all_reduce(bufs(), GROUP)  # must not raise
            inj.start_step(3)
            with pytest.raises(RankFailure):
                all_reduce(bufs(), GROUP)

    def test_dead_rank_stops_recording(self):
        tracer = CommTracer()
        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=1, step=0),)))
        with fault_scope(inj):
            with pytest.raises(RankFailure):
                all_reduce(bufs(), GROUP, tracer=tracer)
        assert 1 in tracer.dead_ranks
        # Fail-stop: the victim records nothing from the failed call on.
        assert not [e for e in tracer.events if e.rank == 1]

    def test_kill_fires_once_but_dead_stays_dead_until_restart(self):
        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=0, step=0),)))
        with fault_scope(inj):
            with pytest.raises(RankFailure):
                all_reduce(bufs(), GROUP)
            # Still dead: later ops with the corpse keep failing.
            with pytest.raises(RankFailure):
                all_gather(bufs(), GROUP)
            inj.restart()
            out = all_reduce(bufs(), GROUP)  # replacement node: works
        assert np.allclose(out[0], 6.0)
        assert inj.stats["kills"] == 1

    def test_kill_hits_p2p_and_rooted_collectives(self):
        for call in (
            lambda: send_recv(np.ones(4), 0, 1),
            lambda: all_to_all(
                {r: [np.ones(2)] * 4 for r in GROUP}, GROUP
            ),
        ):
            inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=0, step=0),)))
            with fault_scope(inj):
                with pytest.raises(RankFailure):
                    call()

    def test_kill_hits_nonblocking_wait(self):
        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=3, step=1),)))
        with fault_scope(inj):
            h = iall_reduce(bufs(), GROUP)
            inj.start_step(1)
            with pytest.raises(RankFailure):
                h.wait()


class TestBitflipInjection:
    def test_bitflip_corrupts_exactly_one_rank_silently(self):
        clean = all_reduce(bufs(), GROUP)
        inj = FaultInjector(
            FaultPlan((FaultSpec("bitflip", rank=2, op="all_reduce"),), seed=5)
        )
        with fault_scope(inj):
            dirty = all_reduce(bufs(), GROUP)
        assert inj.stats["bitflips"] == 1
        # Corruption propagated through the sum without any exception —
        # the silent-data-corruption scenario.
        assert not np.array_equal(dirty[0], clean[0])
        # NCCL invariant still holds: all ranks agree (on the wrong sum).
        for r in GROUP:
            assert np.array_equal(dirty[r], dirty[0])

    def test_bitflip_is_seed_deterministic(self):
        def run(seed):
            inj = FaultInjector(
                FaultPlan((FaultSpec("bitflip", rank=1, op="all_reduce"),), seed=seed)
            )
            with fault_scope(inj):
                return all_reduce(bufs(), GROUP)[0]

        assert np.array_equal(run(3), run(3))

    def test_bitflip_match_selects_nth_call(self):
        # Assert on the fired counter, not the sum: a flip in a low
        # mantissa byte can be numerically invisible after reduction.
        inj = FaultInjector(
            FaultPlan((FaultSpec("bitflip", rank=0, op="all_reduce", match=1),))
        )
        with fault_scope(inj):
            all_reduce(bufs(), GROUP)
            assert inj.stats["bitflips"] == 0
            all_reduce(bufs(), GROUP)
            assert inj.stats["bitflips"] == 1
            all_reduce(bufs(), GROUP)
            assert inj.stats["bitflips"] == 1  # fires once

    def test_bitflip_respects_op_filter(self):
        inj = FaultInjector(
            FaultPlan((FaultSpec("bitflip", rank=0, op="reduce_scatter"),))
        )
        clean = all_reduce(bufs(), GROUP)
        with fault_scope(inj):
            # all_reduce's *internal* reduce-scatter must not be a fault
            # site (the composite op is the user-visible call).
            out = all_reduce(bufs(), GROUP)
        assert np.array_equal(out[0], clean[0])
        with fault_scope(inj):
            rs = reduce_scatter(bufs(8), GROUP)
        assert inj.stats["bitflips"] == 1


class TestP2PInjection:
    def test_drop_exhausts_retry_budget(self):
        inj = FaultInjector(
            FaultPlan((FaultSpec("drop_p2p", src=0, dst=1),)),
            retry=RetryPolicy(timeout=1.0, max_retries=2),
        )
        with fault_scope(inj):
            with pytest.raises(CommTimeoutError) as e:
                send_recv(np.ones(4), 0, 1)
        assert e.value.attempts == 3
        assert inj.waited == pytest.approx(7.0)  # 1 + 2 + 4
        assert inj.stats["timeouts"] == 1

    def test_dropped_send_recorded_without_recv(self):
        tracer = CommTracer()
        inj = FaultInjector(FaultPlan((FaultSpec("drop_p2p", src=0, dst=1),)))
        with fault_scope(inj):
            with pytest.raises(CommTimeoutError):
                send_recv(np.ones(4), 0, 1, tracer=tracer)
        ops = [(e.rank, e.op) for e in tracer.events]
        assert (0, "send") in ops
        assert (1, "recv") not in ops

    def test_delay_within_budget_retries_then_succeeds(self):
        inj = FaultInjector(
            FaultPlan((FaultSpec("delay_p2p", src=0, dst=1, delay=2.5),)),
            retry=RetryPolicy(timeout=1.0, max_retries=3),
        )
        with fault_scope(inj):
            out = send_recv(np.arange(4.0), 0, 1)
        assert np.array_equal(out, np.arange(4.0))
        assert inj.stats["retries"] == 1  # attempts 1 (1s) + 2 (2s) cover 2.5s
        assert inj.waited == pytest.approx(3.0)

    def test_delay_beyond_budget_times_out(self):
        inj = FaultInjector(
            FaultPlan((FaultSpec("delay_p2p", src=0, dst=1, delay=100.0),)),
            retry=RetryPolicy(timeout=1.0, max_retries=1),
        )
        with fault_scope(inj):
            with pytest.raises(CommTimeoutError):
                send_recv(np.ones(4), 0, 1)

    def test_match_counts_per_channel(self):
        inj = FaultInjector(
            FaultPlan((FaultSpec("drop_p2p", src=0, dst=1, match=1),))
        )
        with fault_scope(inj):
            send_recv(np.ones(4), 0, 1)  # message 0: delivered
            send_recv(np.ones(4), 1, 0)  # other channel: not counted
            with pytest.raises(CommTimeoutError):
                send_recv(np.ones(4), 0, 1)  # message 1: dropped

    def test_delay_wait_on_nonblocking_handle(self):
        inj = FaultInjector(
            FaultPlan((FaultSpec("delay_wait", op="all_reduce", delay=50.0),)),
            retry=RetryPolicy(timeout=1.0, max_retries=0),
        )
        with fault_scope(inj):
            h = iall_reduce(bufs(), GROUP)
            with pytest.raises(CommTimeoutError):
                h.wait()


class TestFaultScope:
    def test_scope_installs_and_removes(self):
        inj = FaultInjector(FaultPlan())
        assert get_active_injector() is None
        with fault_scope(inj):
            assert get_active_injector() is inj
        assert get_active_injector() is None

    def test_none_scope_is_noop(self):
        with fault_scope(None) as got:
            assert got is None
            assert get_active_injector() is None

    def test_no_injector_means_no_interference(self):
        clean = all_reduce(bufs(), GROUP)
        assert np.allclose(clean[0], 6.0)


# -- validator failure paths (the injector/validator contract) -----------------


def corrupt_schedule(
    events: Iterable[CommEvent], plan: FaultPlan
) -> list[CommEvent]:
    """Apply each fault's *schedule footprint* to a recorded event list.

    This is the bridge between runtime fault injection and the static
    validator: a fault that fires at runtime leaves a characteristic
    defect in the per-rank schedules, and the validator must detect and
    attribute exactly that defect.

    * ``kill`` — the victim's event stream truncates after its first
      ``match`` events (fail-stop silence);
    * ``drop_p2p`` — the ``match``-th recv on the channel disappears
      (the receiver never observed the message);
    * ``bitflip`` — the victim's ``match``-th matching collective is
      issued with a garbled element count (a rank computing on corrupted
      state calls the collective with the wrong size).

    Delay faults leave no static footprint (the schedule is correct,
    just late) and are ignored here.
    """
    out = list(events)
    for f in plan.faults:
        if f.kind == "kill":
            kept: list[CommEvent] = []
            seen = 0
            for ev in out:
                if ev.rank == f.rank:
                    seen += 1
                    if seen > f.match:
                        continue
                kept.append(ev)
            out = kept
        elif f.kind == "drop_p2p":
            seen = 0
            kept = []
            for ev in out:
                if ev.op == "recv" and ev.rank == f.dst and ev.peer == f.src:
                    if seen == f.match:
                        seen += 1
                        continue
                    seen += 1
                kept.append(ev)
            out = kept
        elif f.kind == "bitflip":
            seen = 0
            kept = []
            for ev in out:
                if (
                    ev.rank == f.rank
                    and (not f.op or ev.op == f.op)
                    and ev.op not in ("send", "recv")
                ):
                    if seen == f.match:
                        seen += 1
                        kept.append(replace(ev, count=ev.count + 1))
                        continue
                    seen += 1
                kept.append(ev)
            out = kept
    return out


class TestValidatorDetectsInjectedFaults:
    """Satellite: each fault class's schedule footprint must be detected
    and attributed to the right rank/op by the static validator."""

    def record_clean(self):
        tracer = CommTracer()
        all_reduce(bufs(), GROUP, tracer=tracer, tag="grads")
        all_reduce(bufs(), GROUP, tracer=tracer, tag="grads2")
        send_recv(np.ones(4), 2, 3, tracer=tracer, tag="act")
        return list(tracer.events)

    def test_clean_schedule_validates(self):
        assert validate_schedule(self.record_clean()) == []

    def test_killed_rank_attributed(self):
        events = corrupt_schedule(
            self.record_clean(),
            FaultPlan((FaultSpec("kill", rank=2, step=0, match=1),)),
        )
        violations = validate_schedule(events)
        assert violations, "validator missed a killed rank"
        v = violations[0]
        assert v.rank == 2
        assert v.op == "all_reduce"
        assert "missing" in v.message

    def test_dropped_message_attributed(self):
        events = corrupt_schedule(
            self.record_clean(),
            FaultPlan((FaultSpec("drop_p2p", src=2, dst=3),)),
        )
        violations = validate_schedule(events)
        assert violations, "validator missed a dropped message"
        v = violations[0]
        assert v.check == "p2p"
        assert v.rank == 2  # the sender left hanging
        assert "no matching recv" in v.message

    def test_corrupted_payload_attributed(self):
        events = corrupt_schedule(
            self.record_clean(),
            FaultPlan((FaultSpec("bitflip", rank=1, op="all_reduce"),)),
        )
        violations = validate_schedule(events)
        assert violations, "validator missed a corrupted collective"
        v = violations[0]
        assert v.rank == 1
        assert v.op == "all_reduce"

    def test_corrupt_schedule_leaves_clean_plan_untouched(self):
        events = self.record_clean()
        assert corrupt_schedule(events, FaultPlan()) == events


class TestServingFaultTaxonomy:
    """The serving-side fault classes added for the chaos-hardened
    engines slot into the same ``fault_cause`` accounting buckets the
    training recovery loop uses."""

    def test_fault_cause_buckets(self):
        from repro.runtime import (
            DeadlineExceededError,
            DecodeRankFailure,
            PreemptedError,
            RequestRejectedError,
            RequestShedError,
            fault_cause,
        )

        assert fault_cause(RequestRejectedError(1, "too big")) == "rejected"
        assert fault_cause(RequestShedError(2, 5)) == "shed"
        assert fault_cause(DeadlineExceededError(3, 1.0, 2.0)) == "deadline"
        assert fault_cause(PreemptedError(4, 7)) == "preempted"
        # A decode-time kill is its own bucket, checked before the
        # training-time RankFailure it subclasses.
        assert fault_cause(DecodeRankFailure(0, 3, "decode")) == "decode_kill"
        assert fault_cause(RankFailure(0, 3, "all_reduce")) == "kill"

    def test_decode_failure_is_a_rank_failure(self):
        from repro.runtime import DecodeRankFailure

        exc = DecodeRankFailure(1, 9, "decode")
        assert isinstance(exc, RankFailure)
        assert exc.rank == 1 and exc.step == 9

    def test_messages_identify_the_request(self):
        from repro.runtime import (
            DeadlineExceededError,
            RequestRejectedError,
            RequestShedError,
        )

        assert "request 7" in str(RequestRejectedError(7, "x"))
        assert "queue full" in str(RequestShedError(1, 4))
        assert "deadline" in str(DeadlineExceededError(2, 1.0, 3.0))
