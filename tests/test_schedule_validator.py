"""The SPMD schedule validator — and proof that it actually detects.

Two halves:

* unit tests of each invariant check on hand-built event schedules;
* **mutation tests**: record a genuinely clean schedule from the real 4D
  model, corrupt one rank's event stream the way real distributed bugs
  do (dropped all-reduce, reordered collectives, wrong communicator,
  size mismatch, unmatched p2p, double wait, asymmetric all-to-all), and
  assert the validator flags the offending rank and operation.  A
  detector that has never seen a positive is no detector.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import GPTConfig
from repro.core import Grid4D, GridConfig, ParallelGPT, axonn_init
from repro.core.degenerate import DEGENERATE_SCHEMES
from repro.runtime import (
    CommEvent,
    CommTracer,
    ProcessGroup,
    ScheduleValidationError,
    ScheduleValidator,
    all_reduce,
    iall_reduce,
    send_recv,
    validate_schedule,
)


def check_scheme_trace(scheme: str, tracer: CommTracer) -> list[str]:
    """Check a recorded training-step trace against a scheme's signature
    *and* the SPMD schedule validator.

    Returns a list of problem descriptions (empty = the trace both
    matches the scheme's expected/forbidden collective tags and passes
    every static schedule check).  This is the validator-enabled mode of
    the degenerate-configuration tests: one call asserts the pattern the
    paper describes and that the schedule could not hang.
    """
    spec = DEGENERATE_SCHEMES[scheme]
    problems: list[str] = []
    meaningful = {r.tag for r in tracer.records if r.group.size > 1}
    for tag in sorted(spec.expected_tags - meaningful):
        problems.append(
            f"scheme {scheme!r}: expected collective tag {tag!r} absent "
            f"from the trace"
        )
    for tag in sorted(spec.forbidden_tags & meaningful):
        problems.append(
            f"scheme {scheme!r}: forbidden collective tag {tag!r} present "
            f"in the trace"
        )
    problems.extend(str(v) for v in validate_schedule(tracer))
    return problems


def tiny_cfg(**kw):
    defaults = dict(
        name="tiny",
        num_layers=1,
        hidden_size=24,
        num_heads=4,
        seq_len=10,
        vocab_size=32,
    )
    defaults.update(kw)
    return GPTConfig(**defaults)


def gpt_trace(gx=2, gy=2, gz=2, gd=1, seed=0) -> CommTracer:
    """A clean schedule: one forward+backward of the tiny 4D GPT."""
    tracer = CommTracer()
    grid = Grid4D(GridConfig(gx, gy, gz, gd), tracer=tracer)
    model = ParallelGPT(grid, tiny_cfg(), seed=0)
    ids = np.random.default_rng(seed).integers(0, 32, (2 * gz * gd, 6))
    model.loss(ids).backward()
    return tracer


def coll(rank, group, op="all_reduce", count=8, dtype="float64", tag="t"):
    return CommEvent(rank=rank, op=op, group=group, dtype=dtype, count=count, tag=tag)


class TestCleanSchedules:
    def test_real_gpt_schedule_is_clean(self):
        assert validate_schedule(gpt_trace()) == []

    def test_empty_schedule_is_clean(self):
        assert validate_schedule([]) == []

    def test_assert_clean_raises_with_all_violations(self):
        events = [coll(0, (0, 1)), coll(1, (0, 1), count=99)]
        with pytest.raises(ScheduleValidationError) as e:
            ScheduleValidator(events).assert_clean()
        assert "rank 1" in str(e.value)

    def test_facade_validate(self):
        ctx = axonn_init(2, 1, 2, 1)
        model = ctx.parallelize(tiny_cfg())
        model.loss(np.random.default_rng(0).integers(0, 32, (2, 5))).backward()
        assert ctx.validate_schedule() == []
        ctx.assert_clean_schedule()

    def test_degenerate_scheme_trace_clean(self):
        tracer = gpt_trace(1, 1, 4, 1)
        assert check_scheme_trace("fsdp", tracer) == []

    def test_degenerate_scheme_trace_flags_missing_tag(self):
        tracer = CommTracer()  # empty trace: expected tags absent
        problems = check_scheme_trace("fsdp", tracer)
        assert any("linear.AG_z" in p for p in problems)


class TestMutationDroppedCollective:
    """Mutation 1: one rank silently skips an all-reduce (the classic
    conditional-collective bug) — flagged with that rank named."""

    def test_dropped_all_reduce_flags_rank(self):
        tracer = gpt_trace()
        events = list(tracer.events)
        # Drop rank 3's first all_reduce event.
        victim = next(
            i
            for i, e in enumerate(events)
            if e.rank == 3 and e.op == "all_reduce"
        )
        dropped = events[victim]
        del events[victim]
        violations = validate_schedule(events)
        assert violations, "dropped all-reduce went undetected"
        v = next(v for v in violations if v.check == "collective")
        assert v.rank == 3
        assert "missing" in v.message
        assert dropped.group == tuple(
            g for g in [dropped.group]
        )[0]  # sanity: the dropped op's group is known

    def test_dropped_alltoall_flags_rank(self):
        tr = CommTracer()
        g = ProcessGroup((0, 1, 2))
        chunks = {r: [np.ones((1, 2)) for _ in range(3)] for r in g.ranks}
        from repro.runtime import all_to_all

        all_to_all(chunks, g, tracer=tr, tag="moe.dispatch")
        events = [e for e in tr.events if not (e.rank == 1)]
        violations = validate_schedule(events)
        assert any(
            v.check == "collective" and v.rank == 1 for v in violations
        )


class TestMutationReorderedCollective:
    """Mutation 2: one rank issues the same collectives in a different
    order — same-group reorder desyncs positionally; cross-group reorder
    is the textbook two-communicator deadlock."""

    def test_same_group_reorder_flags_rank_and_op(self):
        g = (0, 1, 2)
        events = []
        for r in g:
            events.append(coll(r, g, op="all_gather", tag="AG"))
            events.append(coll(r, g, op="reduce_scatter", tag="RS"))
        # Rank 2 runs them in the opposite order.
        events = [e for e in events if e.rank != 2]
        events.append(coll(2, g, op="reduce_scatter", tag="RS"))
        events.append(coll(2, g, op="all_gather", tag="AG"))
        violations = validate_schedule(events)
        assert any(
            v.check == "collective"
            and v.rank == 2
            and v.op in ("reduce_scatter", "all_gather")
            for v in violations
        )

    def test_cross_group_reorder_is_deadlock(self):
        g1, g2 = (0, 1), (0, 1, 2)
        events = [
            # Rank 0: g1 then g2.  Rank 1: g2 then g1.  Both sequences
            # are internally consistent per group, yet the job hangs.
            coll(0, g1, tag="a"),
            coll(0, g2, tag="b"),
            coll(1, g2, tag="b"),
            coll(1, g1, tag="a"),
            coll(2, g2, tag="b"),
        ]
        violations = validate_schedule(events)
        assert any(v.check == "ordering" for v in violations)
        assert any("cyclic" in v.message for v in violations)


class TestMutationWrongGroup:
    """Mutation 3: one rank issues its collective on the wrong
    communicator (e.g. an X-group all-reduce on the Y group)."""

    def test_swapped_group_flags_rank(self):
        tracer = gpt_trace()
        events = list(tracer.events)
        # Take rank 0's first all_reduce and move it onto a different
        # group containing rank 0.
        i = next(
            k
            for k, e in enumerate(events)
            if e.rank == 0 and e.op == "all_reduce" and len(e.group) > 1
        )
        other = next(
            e.group
            for e in events
            if 0 in e.group and e.group != events[i].group and len(e.group) > 1
        )
        events[i] = dataclasses.replace(events[i], group=other)
        violations = validate_schedule(events)
        assert violations, "wrong-group collective went undetected"
        assert any(
            v.check == "collective" and v.rank == 0 for v in violations
        )


class TestMutationSizeMismatch:
    """Mutation 4: one rank contributes a truncated buffer — the NCCL
    silent-corruption case the validator exists for."""

    def test_count_mismatch_flags_rank_and_op(self):
        g = (0, 1, 2, 3)
        events = [coll(r, g, count=64) for r in g]
        events[2] = dataclasses.replace(events[2], count=32)
        violations = validate_schedule(events)
        assert len(violations) == 1
        v = violations[0]
        assert (v.check, v.rank, v.op) == ("collective", 2, "all_reduce")
        assert "count 32" in v.message

    def test_dtype_mismatch_flags_rank(self):
        g = (0, 1, 2)
        events = [coll(r, g) for r in g]
        events[1] = dataclasses.replace(events[1], dtype="float32")
        violations = validate_schedule(events)
        assert [v.rank for v in violations] == [1]

    def test_real_trace_size_mutation(self):
        tracer = gpt_trace()
        events = list(tracer.events)
        i = next(
            k
            for k, e in enumerate(events)
            if e.op == "all_gather" and e.rank == 5 and len(e.group) > 1
        )
        events[i] = dataclasses.replace(events[i], count=events[i].count + 1)
        violations = validate_schedule(events)
        assert any(
            v.check == "collective" and v.rank == 5 and v.op == "all_gather"
            for v in violations
        )


class TestMutationUnmatchedP2P:
    """Mutation 5: pipeline p2p desyncs — a send no one receives, a recv
    no one sends, and a head-to-head recv/recv deadlock."""

    def _pipeline_events(self):
        tr = CommTracer()
        for mb in range(2):
            send_recv(np.ones(4), 0, 1, tracer=tr, tag=f"act:mb{mb}")
            send_recv(np.ones(4), 1, 2, tracer=tr, tag=f"act:mb{mb}")
        for mb in range(2):
            send_recv(np.ones(4), 2, 1, tracer=tr, tag=f"grad:mb{mb}")
            send_recv(np.ones(4), 1, 0, tracer=tr, tag=f"grad:mb{mb}")
        return list(tr.events)

    def test_clean_pipeline_p2p(self):
        assert validate_schedule(self._pipeline_events()) == []

    def test_dropped_recv_flags_channel(self):
        events = self._pipeline_events()
        i = next(
            k
            for k, e in enumerate(events)
            if e.op == "recv" and e.rank == 2
        )
        del events[i]
        violations = validate_schedule(events)
        assert any(
            v.check == "p2p" and "no matching recv" in v.message
            for v in violations
        )

    def test_truncated_message_flags_mismatch(self):
        events = self._pipeline_events()
        i = next(k for k, e in enumerate(events) if e.op == "recv")
        events[i] = dataclasses.replace(events[i], count=2)
        violations = validate_schedule(events)
        assert any(
            v.check == "p2p" and "does not match" in v.message
            for v in violations
        )

    def test_recv_recv_deadlock_detected(self):
        def ev(rank, op, peer):
            return CommEvent(
                rank=rank, op=op, group=tuple(sorted((rank, peer))),
                dtype="float64", count=4, tag="x", peer=peer,
            )

        # Both ranks post a blocking recv first: classic deadlock.
        events = [
            ev(0, "recv", 1),
            ev(0, "send", 1),
            ev(1, "recv", 0),
            ev(1, "send", 0),
        ]
        violations = validate_schedule(events)
        assert any(
            v.check == "p2p" and "cycle" in v.message for v in violations
        )


class TestMutationAllToAllAsymmetry:
    """Mutation 6: MoE combine splits that do not mirror dispatch —
    tokens would never return to their home rank."""

    def _moe_events(self):
        g = (0, 1)

        def a2a(rank, splits, tag):
            return CommEvent(
                rank=rank, op="all_to_all", group=g, dtype="float64",
                count=sum(splits), tag=tag, splits=splits,
            )

        return [
            a2a(0, (4, 6), "moe.dispatch"),
            a2a(1, (2, 8), "moe.dispatch"),
            a2a(0, (4, 2), "moe.combine"),
            a2a(1, (6, 8), "moe.combine"),
        ]

    def test_clean_transpose_accepted(self):
        assert validate_schedule(self._moe_events()) == []

    def test_asymmetric_combine_flags_rank(self):
        events = self._moe_events()
        events[2] = dataclasses.replace(events[2], splits=(4, 99), count=103)
        violations = validate_schedule(events)
        assert any(
            v.check == "alltoall" and v.rank == 0 and "asymmetric" in v.message
            for v in violations
        )

    def test_wrong_split_arity_flags_rank(self):
        events = self._moe_events()
        events[1] = dataclasses.replace(events[1], splits=(2, 8, 1))
        violations = validate_schedule(events)
        assert any(
            v.check == "alltoall" and v.rank == 1 and "splits" in v.message
            for v in violations
        )

    def test_real_moe_trace_mutation(self):
        from repro.moe import MoELayer
        from repro.moe.expert_parallel import ExpertParallelMoE
        from repro.tensor import Tensor

        rng = np.random.default_rng(0)
        layer = MoELayer(8, 4, k=2, rng=rng)
        group = ProcessGroup((0, 1))
        tr = CommTracer()
        ep = ExpertParallelMoE(layer, group, tracer=tr)
        ep.forward({r: Tensor(rng.standard_normal((5, 8))) for r in group})
        assert validate_schedule(tr) == []
        events = list(tr.events)
        i = next(
            k
            for k, e in enumerate(events)
            if e.tag == "moe.combine" and e.rank == 1
        )
        bad = (events[i].splits[0] + 8,) + events[i].splits[1:]
        events[i] = dataclasses.replace(events[i], splits=bad)
        assert any(
            v.check == "alltoall" and v.rank == 1
            for v in validate_schedule(events)
        )


class TestMutationHandleDiscipline:
    """Mutation 7: non-blocking handles waited twice, never, or out of
    thin air."""

    def _handle_events(self):
        tr = CommTracer()
        g = ProcessGroup((0, 1))
        h = iall_reduce({0: np.ones(4), 1: np.ones(4)}, g, tracer=tr)
        h.wait()
        return tr, list(tr.events)

    def test_clean_issue_wait(self):
        _, events = self._handle_events()
        assert validate_schedule(events) == []

    def test_missing_wait_flags_rank(self):
        _, events = self._handle_events()
        events = [e for e in events if e.op != "wait"]
        violations = validate_schedule(events)
        assert {v.rank for v in violations} == {0, 1}
        assert all("never waited" in v.message for v in violations)

    def test_double_wait_flags_rank(self):
        _, events = self._handle_events()
        wait0 = next(e for e in events if e.op == "wait" and e.rank == 0)
        events.append(wait0)
        violations = validate_schedule(events)
        assert any(
            v.check == "handle" and v.rank == 0 and "twice" in v.message
            for v in violations
        )

    def test_wait_without_issue_flags_rank(self):
        _, events = self._handle_events()
        stray = CommEvent(
            rank=0, op="wait", group=(0, 1), tag="", handle_id=77
        )
        violations = validate_schedule(events + [stray])
        assert any(
            v.check == "handle" and v.rank == 0 and "never issued" in v.message
            for v in violations
        )

    def test_runtime_double_wait_still_raises(self):
        g = ProcessGroup((0, 1))
        h = iall_reduce({0: np.ones(2), 1: np.ones(2)}, g)
        h.wait()
        with pytest.raises(RuntimeError):
            h.wait()


class TestValidatorReportQuality:
    def test_violation_str_names_rank_and_op(self):
        g = (0, 1, 2)
        events = [coll(r, g, count=64) for r in g]
        events[1] = dataclasses.replace(events[1], count=1)
        (v,) = validate_schedule(events)
        s = str(v)
        assert "rank 1" in s and "all_reduce" in s

    def test_multiple_independent_violations_all_reported(self):
        g = (0, 1, 2, 3)
        events = [coll(r, g, count=64, tag="first") for r in g]
        events += [coll(r, g, count=16, tag="second") for r in g]
        events[1] = dataclasses.replace(events[1], count=1)  # first, rank 1
        events[6] = dataclasses.replace(events[6], dtype="int32")  # second, rank 2
        violations = validate_schedule(events)
        assert {(v.rank, v.index) for v in violations} == {(1, 0), (2, 1)}


class TestTracerBackCompat:
    """The richer tracer keeps the historical record API intact."""

    def test_records_unchanged_semantics(self):
        tr = CommTracer()
        g = ProcessGroup((0, 1))
        all_reduce({0: np.ones(4), 1: np.ones(4)}, g, tracer=tr, tag="x")
        assert tr.ops() == ["all_reduce"]
        assert tr.total_bytes() == 32
        assert [r.tag for r in tr.records] == ["x"]

    def test_events_cleared_with_records(self):
        tr = CommTracer()
        all_reduce({0: np.ones(2)}, ProcessGroup((0,)), tracer=tr)
        assert tr.events
        tr.clear()
        assert tr.events == [] and tr.records == []

    def test_disabled_tracer_records_nothing(self):
        tr = CommTracer(enabled=False)
        all_reduce({0: np.ones(2)}, ProcessGroup((0,)), tracer=tr)
        send_recv(np.ones(2), 0, 1, tracer=tr)
        assert tr.events == [] and tr.records == []

    def test_events_for_rank_in_program_order(self):
        tracer = gpt_trace(2, 1, 1, 1)
        assert sorted({e.rank for e in tracer.events}) == [0, 1]
        evs = [e for e in tracer.events if e.rank == 0]
        assert len(evs) > 0
        # Collectives are issued once for all ranks, so rank 1's stream
        # mirrors rank 0's op by op.
        assert [e.op for e in evs] == [
            e.op for e in tracer.events if e.rank == 1
        ]
