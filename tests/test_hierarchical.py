"""Tests for the two-level hierarchical collectives and the
flat-vs-hierarchical algorithm selector.

Bitwise-equality tests use integer-valued float64 payloads: every
partial sum is exactly representable, so any summation order produces
identical bits (data-movement collectives and ``max``/``min`` are
bitwise-exact for arbitrary payloads).  Rounding-tolerance tests cover
general floating-point and bf16 payloads — the contract real NCCL
offers across algorithm choices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FRONTIER, PERLMUTTER, GPUSpec, MachineSpec, Placement
from repro.config import GPTConfig
from repro.core import Grid4D, GridConfig, ParallelGPT
from repro.perfmodel import choose_algorithm
from repro.perfmodel.hierarchical import flat_time, hierarchical_time
from repro.runtime import (
    CommTracer,
    ProcessGroup,
    all_gather,
    all_reduce,
    assert_valid_schedule,
    collective_policy_scope,
    decompose_by_node,
    hierarchical_all_gather,
    hierarchical_all_reduce,
    hierarchical_reduce_scatter,
    reduce_scatter,
)
from repro.tensor.dtype import to_bf16


def toy_machine(gpus_per_node: int = 2, total: int = 64) -> MachineSpec:
    return MachineSpec(
        name=f"toy-{gpus_per_node}pn",
        gpu=GPUSpec("toy", 1e15, 5e14, 4e10),
        gpus_per_node=gpus_per_node,
        intra_node_bw=1e11,
        inter_node_bw=1e11,
        total_gpus=total,
    )


def int_buffers(group: ProcessGroup, shape, seed=0) -> dict:
    """Integer-valued fp64 buffers — exact under any summation order."""
    rng = np.random.default_rng(seed)
    return {
        r: rng.integers(-8, 9, shape).astype(np.float64) for r in group
    }


class TestDecompose:
    def test_block_placement(self):
        machine = toy_machine(gpus_per_node=4)
        placement = Placement(machine, 8)
        dec = decompose_by_node(range(8), placement)
        assert dec is not None
        assert (dec.L, dec.Q) == (4, 2)
        assert [g.ranks for g in dec.node_groups] == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert [g.ranks for g in dec.cross_groups] == [
            (0, 4), (1, 5), (2, 6), (3, 7)
        ]

    def test_round_robin_placement(self):
        machine = toy_machine(gpus_per_node=4)
        placement = Placement(machine, 8, strategy="round_robin")
        dec = decompose_by_node(range(8), placement)
        assert dec is not None
        assert (dec.L, dec.Q) == (4, 2)
        assert [g.ranks for g in dec.node_groups] == [(0, 2, 4, 6), (1, 3, 5, 7)]

    def test_single_node_group_is_flat(self):
        placement = Placement(toy_machine(gpus_per_node=8), 8)
        assert decompose_by_node(range(8), placement) is None

    def test_one_member_per_node_is_flat(self):
        """L=1: the leaders ring would just be the flat ring again."""
        placement = Placement(toy_machine(gpus_per_node=2), 8)
        assert decompose_by_node([0, 2, 4, 6], placement) is None

    def test_uneven_spread_is_flat(self):
        placement = Placement(toy_machine(gpus_per_node=4), 8)
        assert decompose_by_node([0, 1, 2, 4], placement) is None

    def test_rank_outside_placement_is_flat(self):
        placement = Placement(toy_machine(), 4)
        assert decompose_by_node([0, 1, 2, 99], placement) is None


class TestBitwiseEquivalence:
    """The two-level algorithms must reproduce the flat ring's results
    bit for bit (exact payloads) across group shapes and placements."""

    @given(
        gpn=st.sampled_from([2, 3, 4]),
        nodes=st.sampled_from([2, 3]),
        strategy=st.sampled_from(["block", "round_robin"]),
        cols=st.integers(1, 3),
        op=st.sampled_from(["sum", "max", "min"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_reduce_matches_flat(self, gpn, nodes, strategy, cols, op, seed):
        p = gpn * nodes
        if strategy == "round_robin" and p % nodes:
            return
        placement = Placement(toy_machine(gpn), p, strategy=strategy)
        group = ProcessGroup(tuple(range(p)))
        buffers = int_buffers(group, (5, cols), seed)
        flat = all_reduce(buffers, group, op=op)
        hier = hierarchical_all_reduce(buffers, group, placement, op=op)
        for r in group:
            np.testing.assert_array_equal(hier[r], flat[r])

    @given(
        gpn=st.sampled_from([2, 4]),
        nodes=st.sampled_from([2, 3]),
        strategy=st.sampled_from(["block", "round_robin"]),
        blocks=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_reduce_scatter_matches_flat(self, gpn, nodes, strategy, blocks, seed):
        p = gpn * nodes
        if strategy == "round_robin" and p % nodes:
            return
        placement = Placement(toy_machine(gpn), p, strategy=strategy)
        group = ProcessGroup(tuple(range(p)))
        buffers = int_buffers(group, (blocks * p, 3), seed)
        flat = reduce_scatter(buffers, group)
        hier = hierarchical_reduce_scatter(buffers, group, placement)
        for r in group:
            np.testing.assert_array_equal(hier[r], flat[r])

    @given(
        gpn=st.sampled_from([2, 4]),
        nodes=st.sampled_from([2, 3]),
        strategy=st.sampled_from(["block", "round_robin"]),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_gather_matches_flat_any_payload(
        self, gpn, nodes, strategy, rows, seed
    ):
        """Pure data movement: bitwise for arbitrary floats."""
        p = gpn * nodes
        if strategy == "round_robin" and p % nodes:
            return
        placement = Placement(toy_machine(gpn), p, strategy=strategy)
        group = ProcessGroup(tuple(range(p)))
        rng = np.random.default_rng(seed)
        buffers = {r: rng.standard_normal((rows, 2)) for r in group}
        flat = all_gather(buffers, group)
        hier = hierarchical_all_gather(buffers, group, placement)
        for r in group:
            np.testing.assert_array_equal(hier[r], flat[r])


class TestRoundingTolerance:
    def test_random_fp64_allclose(self):
        placement = Placement(toy_machine(4), 8)
        group = ProcessGroup(tuple(range(8)))
        rng = np.random.default_rng(7)
        buffers = {r: rng.standard_normal((8, 4)) for r in group}
        flat = all_reduce(buffers, group)
        hier = hierarchical_all_reduce(buffers, group, placement)
        for r in group:
            np.testing.assert_allclose(hier[r], flat[r], rtol=1e-12, atol=1e-12)

    def test_bf16_payload_within_tolerance(self):
        """bf16-rounded inputs: both orders agree to bf16 resolution."""
        placement = Placement(toy_machine(2), 8)
        group = ProcessGroup(tuple(range(8)))
        rng = np.random.default_rng(11)
        buffers = {
            r: to_bf16(rng.standard_normal((8, 2))).astype(np.float64)
            for r in group
        }
        flat = all_reduce(buffers, group)
        hier = hierarchical_all_reduce(buffers, group, placement)
        for r in group:
            np.testing.assert_allclose(hier[r], flat[r], rtol=1e-6, atol=1e-6)


class TestPolicyScope:
    def test_ambient_policy_routes_and_traces(self):
        """Inside the scope, a node-straddling all_reduce executes as
        traced |hier.* sub-collectives that pass the SPMD validator."""
        placement = Placement(toy_machine(2), 4)
        group = ProcessGroup((0, 1, 2, 3))
        buffers = int_buffers(group, (4, 2))
        tracer = CommTracer()
        flat = all_reduce(buffers, group)
        with collective_policy_scope(placement):
            out = all_reduce(buffers, group, tracer=tracer, tag="t")
        after = CommTracer()
        all_reduce(buffers, group, tracer=after, tag="t")
        assert [(r.op, r.tag) for r in after.records] == [("all_reduce", "t")]
        for r in group:
            np.testing.assert_array_equal(out[r], flat[r])
        tags = [(r.op, r.tag) for r in tracer.records]
        assert ("reduce_scatter", "t|hier.rs") in tags
        assert ("all_reduce", "t|hier.ar") in tags
        assert ("all_gather", "t|hier.ag") in tags
        assert ("all_reduce", "t") not in tags
        assert_valid_schedule(tracer)

    def test_single_node_group_not_routed(self):
        placement = Placement(toy_machine(4), 8)
        group = ProcessGroup((0, 1, 2, 3))  # fits on node 0
        buffers = int_buffers(group, (4, 2))
        tracer = CommTracer()
        with collective_policy_scope(placement):
            all_reduce(buffers, group, tracer=tracer, tag="t")
        assert [(r.op, r.tag) for r in tracer.records] == [("all_reduce", "t")]

    def test_auto_policy_uses_selector(self):
        """auto: small messages go hierarchical (latency win), huge ones
        stay flat (the lone flat ring keeps the full NIC aggregate)."""
        placement = Placement(toy_machine(2), 4)  # 2 nodes x 2 members
        group = ProcessGroup(tuple(range(4)))
        small = int_buffers(group, (8, 2))  # 128 B
        tracer = CommTracer()
        with collective_policy_scope(placement, "auto"):
            all_reduce(small, group, tracer=tracer, tag="s")
        assert any("|hier." in r.tag for r in tracer.records)

        big = {r: np.ones((1 << 22, 1)) for r in group}  # 32 MiB
        tracer2 = CommTracer()
        with collective_policy_scope(placement, "auto"):
            all_reduce(big, group, tracer=tracer2, tag="b")
        assert [(r.op, r.tag) for r in tracer2.records] == [("all_reduce", "b")]

    def test_policy_validation(self):
        """Only the two policy algorithms exist; an unknown one is
        refused at construction and installs no scope."""
        from repro.runtime import CollectivePolicy
        from repro.runtime import collectives as rc

        placement = Placement(toy_machine(2), 4)
        with pytest.raises(ValueError, match="'hierarchical' or 'auto'"):
            CollectivePolicy(placement, "flat")
        with pytest.raises(ValueError, match="'hierarchical' or 'auto'"):
            collective_policy_scope(placement, "fancy").__enter__()
        assert rc._POLICIES == []


class TestChooseAlgorithm:
    @given(size=st.integers(1, 8), nbytes=st.sampled_from([64, 1 << 16, 1 << 24]))
    @settings(max_examples=30, deadline=None)
    def test_never_hierarchical_within_a_node(self, size, nbytes):
        """A group that fits in one Frontier node has no decomposition."""
        placement = Placement(FRONTIER, 8)
        choice = choose_algorithm(
            "all_reduce", nbytes, list(range(size)), placement
        )
        assert choice.algo == "flat"
        assert choice.hier_time == float("inf") or choice.L == 0

    def test_small_messages_prefer_hierarchical_at_scale(self):
        placement = Placement(FRONTIER, 64)  # 8 nodes x 8 GCDs
        ranks = list(range(64))
        small = choose_algorithm("all_reduce", 4096, ranks, placement)
        assert small.algo == "hierarchical"
        assert (small.L, small.Q) == (8, 8)
        huge = choose_algorithm("all_reduce", 1 << 30, ranks, placement)
        assert huge.algo == "flat"
        assert huge.speedup >= 1.0

    def test_crossover_monotone(self):
        """Sweeping message size crosses from hierarchical to flat at
        most once (both costs are affine in nbytes)."""
        placement = Placement(PERLMUTTER, 32)
        ranks = list(range(32))
        algos = [
            choose_algorithm("all_reduce", float(1 << e), ranks, placement).algo
            for e in range(8, 31)
        ]
        flips = sum(1 for a, b in zip(algos, algos[1:]) if a != b)
        assert flips <= 1
        assert algos[0] == "hierarchical" and algos[-1] == "flat"


class TestGridIntegration:
    def _loss(self, algo: str):
        machine = toy_machine(2)
        placement = Placement(machine, 8)
        tracer = CommTracer()
        grid = Grid4D(
            GridConfig(4, 1, 2, 1, collective_algo=algo),
            placement=placement,
            tracer=tracer,
        )
        cfg = GPTConfig(
            name="t", num_layers=1, hidden_size=24, num_heads=4,
            seq_len=10, vocab_size=32,
        )
        model = ParallelGPT(grid, cfg, seed=0)
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (4, 6))
        with grid.collective_scope():
            loss = model.loss(ids)
            loss.backward()
        return float(loss.data), tracer

    def test_training_step_matches_flat(self):
        flat_loss, flat_tracer = self._loss("flat")
        hier_loss, hier_tracer = self._loss("hierarchical")
        assert hier_loss == pytest.approx(flat_loss, rel=1e-10)
        assert_valid_schedule(hier_tracer)
        hier_tags = {r.tag for r in hier_tracer.records if "|hier." in r.tag}
        assert hier_tags  # the X groups straddle nodes and decomposed
        assert not any("|hier." in r.tag for r in flat_tracer.records)

    def test_non_flat_config_requires_placement(self):
        with pytest.raises(ValueError):
            Grid4D(GridConfig(4, 1, 2, 1, collective_algo="hierarchical"))
        with pytest.raises(ValueError):
            GridConfig(2, 2, 1, 1, collective_algo="bogus")

    def test_collective_algo_excluded_from_equality(self):
        a = GridConfig(2, 2, 2, 1)
        b = GridConfig(2, 2, 2, 1, collective_algo="hierarchical")
        assert a == b and hash(a) == hash(b)


class TestModelVsSimulatorRanking:
    """Fig. 2-style: the analytic selector and the discrete-event
    simulator's measured timings must rank flat vs. hierarchical the
    same way (ties within 10% are skipped — both layers model the same
    physics with different contention detail)."""

    @pytest.mark.parametrize("machine", [PERLMUTTER, FRONTIER], ids=lambda m: m.name)
    @pytest.mark.parametrize("op", ["all_reduce", "all_gather", "reduce_scatter"])
    def test_ranking_agreement(self, machine, op):
        from tests.oracles.network import (
            hierarchical_group_timing,
            measured_group_bandwidth,
        )

        p = 2 * machine.gpus_per_node  # the full groups of two nodes
        placement = Placement(machine, p)
        grid = Grid4D(GridConfig(p, 1, 1, 1), placement=placement)
        lt = measured_group_bandwidth(grid, placement, "x")
        ht = hierarchical_group_timing(grid, placement, "x")
        assert ht is not None

        checked = 0
        for e in range(8, 31, 2):
            nbytes = float(1 << e)
            choice = choose_algorithm(op, nbytes, list(range(p)), placement)
            sim_flat = flat_time(op, nbytes, p, lt.bandwidth, lt.latency)
            sim_hier = hierarchical_time(
                op, nbytes, ht.L, ht.Q,
                ht.intra.bandwidth, ht.leaders.bandwidth,
                ht.intra.latency, ht.leaders.latency,
            )
            if abs(sim_flat - sim_hier) < 0.1 * max(sim_flat, sim_hier):
                continue  # too close to a tie to demand agreement
            if abs(choice.flat_time - choice.hier_time) < 0.1 * max(
                choice.flat_time, choice.hier_time
            ):
                continue
            sim_algo = "hierarchical" if sim_hier < sim_flat else "flat"
            assert choice.algo == sim_algo, (
                f"{machine.name} {op} {nbytes:.0f}B: model={choice.algo} "
                f"sim={sim_algo}"
            )
            checked += 1
        assert checked >= 5  # the sweep must actually exercise both sides
