"""Tests for the virtual runtime's ring collectives.

The collectives are the foundation the 4D algorithm's correctness rests
on, so they are verified exhaustively: against NumPy reference
reductions, for NCCL's replica-consistency invariant, and with
property-based tests over group sizes and shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    CommTracer,
    Handle,
    ProcessGroup,
    all_gather,
    all_reduce,
    iall_gather,
    iall_reduce,
    ireduce_scatter,
    reduce_scatter,
)
from tests.oracles import ring as step_by_step


def _buffers(group, shape, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return {r: rng.standard_normal(shape).astype(dtype) for r in group}


class TestProcessGroup:
    def test_group_rank(self):
        g = ProcessGroup((4, 2, 7))
        assert g.group_rank(2) == 1
        assert 7 in g and 3 not in g
        assert len(g) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProcessGroup(())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ProcessGroup((1, 1))

    def test_missing_rank(self):
        with pytest.raises(ValueError):
            ProcessGroup((0, 1)).group_rank(5)

    def test_rank_lookup_is_cached(self):
        """group_rank is an O(1) dict lookup, not tuple.index."""
        g = ProcessGroup(tuple(range(0, 64, 2)))
        assert g._pos == {r: i for i, r in enumerate(g.ranks)}
        for i, r in enumerate(g.ranks):
            assert g.group_rank(r) == i

    def test_cache_preserves_frozen_contract(self):
        """The cached lookup map is a non-field attribute: equality,
        hashing, repr, copies, and replace() behave as if it weren't
        there, and the dataclass stays frozen."""
        import copy
        import dataclasses

        a = ProcessGroup((3, 1, 4))
        b = ProcessGroup((3, 1, 4))
        assert a == b and hash(a) == hash(b)
        assert "_pos" not in repr(a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.ranks = (0,)

        c = copy.deepcopy(a)
        assert c == a and c.group_rank(4) == 2
        d = dataclasses.replace(a, ranks=(5, 6))
        assert d.group_rank(6) == 1 and d._pos == {5: 0, 6: 1}


class TestAllReduce:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
    def test_matches_numpy_sum(self, size):
        g = ProcessGroup(tuple(range(size)))
        bufs = _buffers(g, (6, 5), seed=size)
        expect = np.sum([bufs[r] for r in g], axis=0)
        out = all_reduce(bufs, g)
        for r in g:
            np.testing.assert_allclose(out[r], expect, rtol=1e-12)

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_all_ranks_identical(self, size):
        """NCCL invariant: all-reduce output is bit-identical everywhere."""
        g = ProcessGroup(tuple(range(size)))
        out = all_reduce(_buffers(g, (7, 3)), g)
        base = out[0]
        for r in g:
            assert np.array_equal(out[r], base)

    def test_max_op(self):
        g = ProcessGroup((0, 1, 2))
        bufs = _buffers(g, (4,))
        out = all_reduce(bufs, g, op="max")
        expect = np.max([bufs[r] for r in g], axis=0)
        np.testing.assert_array_equal(out[0], expect)

    def test_does_not_mutate_inputs(self):
        g = ProcessGroup((0, 1))
        bufs = _buffers(g, (4, 4))
        copies = {r: bufs[r].copy() for r in g}
        all_reduce(bufs, g)
        for r in g:
            np.testing.assert_array_equal(bufs[r], copies[r])

    def test_non_divisible_length_padded(self):
        g = ProcessGroup((0, 1, 2))
        bufs = _buffers(g, (7,))  # 7 not divisible by 3
        out = all_reduce(bufs, g)
        expect = np.sum([bufs[r] for r in g], axis=0)
        np.testing.assert_allclose(out[1], expect, rtol=1e-12)

    def test_mismatched_shapes_rejected(self):
        g = ProcessGroup((0, 1))
        bufs = {0: np.zeros(3), 1: np.zeros(4)}
        with pytest.raises(ValueError):
            all_reduce(bufs, g)

    def test_wrong_keys_rejected(self):
        g = ProcessGroup((0, 1))
        with pytest.raises(ValueError):
            all_reduce({0: np.zeros(3), 2: np.zeros(3)}, g)


class TestReduceScatter:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 6])
    def test_matches_reference(self, size):
        g = ProcessGroup(tuple(range(size)))
        bufs = _buffers(g, (size * 3, 4), seed=7)
        total = np.sum([bufs[r] for r in g], axis=0)
        out = reduce_scatter(bufs, g)
        for pos, r in enumerate(g):
            np.testing.assert_allclose(
                out[r], total[pos * 3 : (pos + 1) * 3], rtol=1e-12
            )

    def test_nondivisible_rejected(self):
        g = ProcessGroup((0, 1, 2))
        with pytest.raises(ValueError):
            reduce_scatter(_buffers(g, (7, 2)), g)

    def test_nondivisible_rejected_before_trace_and_injector(self):
        """A malformed call never reaches the fault injector (where an
        armed kill would mask the caller's bug) and leaves no trace."""

        class Injector:
            calls = 0

            def before_collective(self, op, group, buffers, tag, tracer=None):
                self.calls += 1
                return buffers

        g = ProcessGroup((0, 1, 2))
        tracer, injector = CommTracer(), Injector()
        with pytest.raises(ValueError, match="not divisible"):
            reduce_scatter(
                _buffers(g, (7, 2)), g, tracer=tracer, injector=injector
            )
        assert injector.calls == 0 and not tracer.records
        reduce_scatter(_buffers(g, (6, 2)), g, tracer=tracer, injector=injector)
        assert injector.calls == 1 and len(tracer.records) == 1

    def test_group_order_determines_shards(self):
        """Shard ownership follows group position, not global rank."""
        g = ProcessGroup((5, 3))
        bufs = {5: np.arange(4.0), 3: np.arange(4.0) * 10}
        out = reduce_scatter(bufs, g)
        total = bufs[5] + bufs[3]
        np.testing.assert_array_equal(out[5], total[:2])  # position 0
        np.testing.assert_array_equal(out[3], total[2:])  # position 1


class TestAllGather:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_concatenates_in_group_order(self, size):
        g = ProcessGroup(tuple(range(size)))
        bufs = _buffers(g, (2, 3), seed=11)
        expect = np.concatenate([bufs[r] for r in g], axis=0)
        out = all_gather(bufs, g)
        for r in g:
            np.testing.assert_array_equal(out[r], expect)

    def test_inverse_of_reduce_scatter(self):
        """reduce-scatter then all-gather == all-reduce."""
        g = ProcessGroup((0, 1, 2, 3))
        bufs = _buffers(g, (8, 2), seed=3)
        rs = reduce_scatter(bufs, g)
        ag = all_gather(rs, g)
        ar = all_reduce(bufs, g)
        for r in g:
            np.testing.assert_allclose(ag[r], ar[r], rtol=1e-12)


class TestNonBlocking:
    def test_handle_semantics(self):
        g = ProcessGroup((0, 1))
        bufs = _buffers(g, (4,))
        h = iall_reduce(bufs, g)
        assert isinstance(h, Handle)
        assert not h.completed
        out = h.wait()
        assert h.completed
        expect = bufs[0] + bufs[1]
        np.testing.assert_allclose(out[0], expect, rtol=1e-12)

    def test_double_wait_rejected(self):
        g = ProcessGroup((0, 1))
        h = iall_gather(_buffers(g, (2,)), g)
        h.wait()
        with pytest.raises(RuntimeError):
            h.wait()

    def test_ireduce_scatter(self):
        g = ProcessGroup((0, 1))
        bufs = _buffers(g, (4,))
        out = ireduce_scatter(bufs, g).wait()
        total = bufs[0] + bufs[1]
        np.testing.assert_allclose(out[0], total[:2], rtol=1e-12)


class TestTracer:
    def test_records_ops_and_bytes(self):
        g = ProcessGroup((0, 1))
        tr = CommTracer()
        bufs = _buffers(g, (8,))
        all_reduce(bufs, g, tracer=tr, tag="grad")
        assert tr.total_bytes() == 8 * 8
        all_gather(bufs, g, tracer=tr)
        assert tr.ops() == ["all_reduce", "all_gather"]
        assert [r.tag for r in tr.records].count("grad") == 1
        tr.clear()
        assert tr.records == []

    def test_disabled_tracer(self):
        g = ProcessGroup((0, 1))
        tr = CommTracer(enabled=False)
        all_reduce(_buffers(g, (2,)), g, tracer=tr)
        assert tr.records == []


class TestProperties:
    """Property-based checks over group size, shape, and seed."""

    @given(
        size=st.integers(1, 6),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_reduce_is_sum(self, size, rows, cols, seed):
        g = ProcessGroup(tuple(range(size)))
        bufs = _buffers(g, (rows, cols), seed=seed)
        out = all_reduce(bufs, g)
        expect = np.sum([bufs[r] for r in g], axis=0)
        for r in g:
            np.testing.assert_allclose(out[r], expect, rtol=1e-10, atol=1e-10)

    @given(size=st.integers(1, 6), chunk=st.integers(1, 5), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_gather_scatter_roundtrip(self, size, chunk, seed):
        """all-gather of reduce-scatter shards equals the full reduction."""
        g = ProcessGroup(tuple(range(size)))
        bufs = _buffers(g, (size * chunk,), seed=seed)
        full = np.sum([bufs[r] for r in g], axis=0)
        out = all_gather(reduce_scatter(bufs, g), g)
        for r in g:
            np.testing.assert_allclose(out[r], full, rtol=1e-10, atol=1e-10)


class TestRingOracle:
    """The runtime's ring against the step-by-step ring it replaced
    (``tests/oracles/ring.py``, which copies every chunk at every hop):
    the same arrays bit for bit, inputs untouched, and one shared
    read-only result per group for ``all_gather`` / ``all_reduce``."""

    @given(
        p=st.sampled_from([1, 2, 3, 4, 5, 8]),
        dtype=st.sampled_from([np.float64, np.float32]),
        op=st.sampled_from(["sum", "max", "min"]),
        rows=st.integers(1, 3),
        cols=st.integers(1, 4),
        extra=st.integers(1, 7),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_step_by_step_ring(
        self, p, dtype, op, rows, cols, extra, seed
    ):
        rng = np.random.default_rng(seed)
        # Global ranks in a shuffled group order: the order decides both
        # the shard layout and the reduction order.
        group = ProcessGroup(tuple(int(r) for r in rng.permutation(16)[:p]))

        def payload(shape):
            # Non-integer values spread over magnitudes, so a different
            # summation order shows in the bits.
            return {
                r: (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4))
                .astype(dtype)
                for r in group
            }

        inputs = {
            "reduce_scatter": payload((p * rows, cols)),
            "all_gather": payload((rows, cols)),
            # p * cols + extra columns: padded whenever extra % p != 0.
            "all_reduce": payload((rows, p * cols + extra)),
        }
        saved = {
            name: {r: a.copy() for r, a in bufs.items()}
            for name, bufs in inputs.items()
        }
        runs = {
            "reduce_scatter": (
                reduce_scatter(inputs["reduce_scatter"], group, op=op),
                step_by_step.reduce_scatter(saved["reduce_scatter"], group, op=op),
            ),
            "all_gather": (
                all_gather(inputs["all_gather"], group),
                step_by_step.all_gather(saved["all_gather"], group),
            ),
            "all_reduce": (
                all_reduce(inputs["all_reduce"], group, op=op),
                step_by_step.all_reduce(saved["all_reduce"], group, op=op),
            ),
        }
        for name, (got, want) in runs.items():
            for r in group:
                assert got[r].dtype == want[r].dtype, name
                np.testing.assert_array_equal(got[r], want[r], err_msg=name)
                np.testing.assert_array_equal(
                    inputs[name][r], saved[name][r], err_msg=name
                )
                assert inputs[name][r].flags.writeable, name
        for name in ("all_gather", "all_reduce"):
            got = runs[name][0]
            shared = got[group.ranks[0]]
            assert all(got[r] is shared for r in group), name
            assert not shared.flags.writeable, name
            with pytest.raises(ValueError):
                shared[...] = 0


class TestPointToPointAndRooted:
    def test_send_recv(self):
        from repro.runtime import send_recv

        tr = CommTracer()
        buf = np.arange(6.0)
        out = send_recv(buf, src=0, dst=3, tracer=tr, tag="act")
        np.testing.assert_array_equal(out, buf)
        assert out is not buf  # the destination owns a copy
        assert tr.records[0].op == "p2p"
        assert tr.records[0].bytes_per_rank == 48

    def test_send_recv_self_transfer(self):
        """src == dst is a traced no-op copy (degree-1 rings compose)."""
        from repro.runtime import send_recv
        from repro.runtime.validate import assert_valid_schedule

        tr = CommTracer()
        buf = np.arange(6.0)
        out = send_recv(buf, src=1, dst=1, tracer=tr, tag="ring")
        np.testing.assert_array_equal(out, buf)
        assert out is not buf  # still a fresh copy, like any recv
        assert tr.records[0].op == "p2p"
        assert tr.records[0].group.ranks == (1,)
        # Both the send and the recv event land on rank 1 and pair up
        # over the (1, 1) channel — the validator sees a clean schedule.
        assert [e.op for e in tr.events] == ["send", "recv"]
        assert {e.rank for e in tr.events} == {1}
        assert_valid_schedule(tr)
