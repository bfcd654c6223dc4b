"""Tests for the hardware substrate: machines, placement, rings, sharing."""

import pytest

from repro.cluster import (
    ALPS,
    FRONTIER,
    MACHINES,
    PERLMUTTER,
    Placement,
    Ring,
    build_ring,
    get_machine,
    inter_node_edges,
    ring_bottleneck_bandwidth,
    shared_ring_bandwidths,
)


class TestMachineSpecs:
    def test_registry(self):
        assert set(MACHINES) == {"perlmutter", "frontier", "alps"}
        assert get_machine("Frontier") is FRONTIER

    def test_unknown_machine(self):
        with pytest.raises(KeyError):
            get_machine("summit")

    def test_paper_peak_numbers(self):
        # Section VI-C: advertised vs empirical peaks.
        assert PERLMUTTER.gpu.peak_bf16_flops == 312e12
        assert PERLMUTTER.gpu.empirical_bf16_flops == 280e12
        assert FRONTIER.gpu.peak_bf16_flops == 191.5e12
        assert FRONTIER.gpu.empirical_bf16_flops == 125e12
        assert ALPS.gpu.peak_bf16_flops == 989e12
        assert ALPS.gpu.empirical_bf16_flops == 813e12

    def test_gemm_efficiency_matches_paper(self):
        assert PERLMUTTER.gpu.gemm_efficiency == pytest.approx(0.90, abs=0.01)
        assert FRONTIER.gpu.gemm_efficiency == pytest.approx(0.65, abs=0.01)
        assert ALPS.gpu.gemm_efficiency == pytest.approx(0.82, abs=0.01)

    def test_devices_per_node(self):
        assert PERLMUTTER.gpus_per_node == 4
        assert FRONTIER.gpus_per_node == 8  # 4 MI250X x 2 GCDs
        assert ALPS.gpus_per_node == 4

    def test_num_nodes(self):
        assert FRONTIER.num_nodes(32768) == 4096
        assert PERLMUTTER.num_nodes(2) == 1
        with pytest.raises(ValueError):
            FRONTIER.num_nodes(12)

    def test_peak_flops_aggregate(self):
        # 32,768 GCDs of Frontier: 6.27 advertised Eflop/s.
        assert FRONTIER.peak_flops(32768) == pytest.approx(
            32768 * 191.5e12
        )
        assert FRONTIER.peak_flops(32768, empirical=True) == pytest.approx(
            32768 * 125e12
        )


class TestPlacement:
    def test_block_placement(self):
        p = Placement(FRONTIER, 32)
        assert p.num_nodes == 4
        assert p.node_of(0) == 0
        assert p.node_of(7) == 0
        assert p.node_of(8) == 1
        assert p.local_rank_of(9) == 1
        assert p.node_of(0) == p.node_of(7) != p.node_of(8)

    def test_out_of_range(self):
        p = Placement(PERLMUTTER, 8)
        with pytest.raises(ValueError):
            p.node_of(8)

    def test_nodes_spanned(self):
        p = Placement(PERLMUTTER, 16)
        assert {p.node_of(r) for r in [0, 1, 4, 12]} == {0, 1, 3}

    def test_too_large(self):
        with pytest.raises(ValueError):
            Placement(PERLMUTTER, 10**6)


class TestRings:
    def test_ring_orders_by_node(self):
        p = Placement(PERLMUTTER, 16)
        # Interleaved ranks from two nodes get grouped by node.
        ring = build_ring([0, 4, 1, 5], p)
        assert ring.order == (0, 1, 4, 5)

    def test_intra_node_ring_has_no_crossings(self):
        p = Placement(FRONTIER, 16)
        ring = build_ring([0, 1, 2, 3], p)
        assert inter_node_edges(ring, p) == []

    def test_two_node_ring_has_two_crossings(self):
        """Figure 3 of the paper: 8 GPUs on 2 nodes -> 2 crossing edges."""
        p = Placement(PERLMUTTER, 8)
        ring = build_ring(list(range(8)), p)
        crossings = inter_node_edges(ring, p)
        assert len(crossings) == 2  # one out, one wraparound back

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError):
            Ring((0, 0, 1))

    def test_bottleneck_intra_node(self):
        p = Placement(PERLMUTTER, 8)
        ring = build_ring([0, 1, 2, 3], p)
        assert ring_bottleneck_bandwidth(ring, p) == PERLMUTTER.intra_node_bw

    def test_bottleneck_inter_node(self):
        p = Placement(PERLMUTTER, 8)
        ring = build_ring(list(range(8)), p)
        assert ring_bottleneck_bandwidth(ring, p) == min(
            PERLMUTTER.inter_node_bw, PERLMUTTER.intra_node_bw
        )

    def test_singleton_ring_infinite_bw(self):
        p = Placement(PERLMUTTER, 4)
        ring = build_ring([2], p)
        assert ring_bottleneck_bandwidth(ring, p) == float("inf")


class TestBandwidthSharing:
    def test_single_spanning_ring_gets_full_nic(self):
        """Figure 3: one ring over two nodes uses the full inter-node BW."""
        p = Placement(PERLMUTTER, 8)
        ring = build_ring(list(range(8)), p)
        (bw,) = shared_ring_bandwidths([ring], p)
        assert bw == PERLMUTTER.inter_node_bw

    def test_two_concurrent_rings_halve_bandwidth(self):
        """Figure 4: two rings across the same two nodes share the NICs."""
        p = Placement(PERLMUTTER, 8)
        rings = [
            build_ring([0, 2, 4, 6], p),
            build_ring([1, 3, 5, 7], p),
        ]
        bws = shared_ring_bandwidths(rings, p)
        assert bws == [PERLMUTTER.inter_node_bw / 2] * 2

    def test_sharing_bounded_by_gpus_per_node(self):
        """At most gpus_per_node rings can cross out of one node."""
        p = Placement(PERLMUTTER, 8)
        rings = [build_ring([i, i + 4], p) for i in range(4)]
        bws = shared_ring_bandwidths(rings, p)
        assert bws == [PERLMUTTER.inter_node_bw / 4] * 4

    def test_intra_node_rings_do_not_share_nics(self):
        p = Placement(FRONTIER, 8)
        # (0,1) share an MI250X die; (2,4) are on different packages.
        rings = [build_ring([0, 1], p), build_ring([2, 4], p)]
        bws = shared_ring_bandwidths(rings, p)
        assert bws == [FRONTIER.same_die_bw, FRONTIER.intra_node_bw]

    def test_frontier_same_die_pairs_are_fast(self):
        p = Placement(FRONTIER, 8)
        fast = ring_bottleneck_bandwidth(build_ring([0, 1], p), p)
        slow = ring_bottleneck_bandwidth(build_ring([0, 2], p), p)
        assert fast == FRONTIER.same_die_bw
        assert slow == FRONTIER.intra_node_bw
        assert fast > slow

    def test_full_node_ring_bottlenecked_by_cross_die_links(self):
        p = Placement(FRONTIER, 8)
        ring = build_ring(list(range(8)), p)
        assert ring_bottleneck_bandwidth(ring, p) == FRONTIER.intra_node_bw

    def test_mixed_rings(self):
        p = Placement(PERLMUTTER, 8)
        rings = [
            build_ring(list(range(8)), p),  # spans nodes, uses edge (0,1)
            build_ring([0, 1], p),  # intra-node, also uses edge (0,1)
        ]
        bws = shared_ring_bandwidths(rings, p)
        # Both rings contend on device pair (0,1), halving that edge —
        # which also becomes the big ring's bottleneck.
        assert bws[0] == PERLMUTTER.intra_node_bw / 2
        assert bws[1] == PERLMUTTER.intra_node_bw / 2

    def test_disjoint_intra_node_ring_gets_full_fabric(self):
        p = Placement(PERLMUTTER, 8)
        rings = [
            build_ring(list(range(4, 8)), p),  # node 1 only
            build_ring([0, 1], p),  # node 0 only, disjoint pairs
        ]
        bws = shared_ring_bandwidths(rings, p)
        assert bws[1] == PERLMUTTER.intra_node_bw


class TestPlacementStrategies:
    def test_round_robin_mapping(self):
        p = Placement(FRONTIER, 32, strategy="round_robin")
        assert p.num_nodes == 4
        assert p.node_of(0) == 0
        assert p.node_of(1) == 1
        assert p.node_of(4) == 0
        assert p.local_rank_of(4) == 1
        # Every node hosts exactly gpus_per_node ranks.
        from collections import Counter

        counts = Counter(p.node_of(r) for r in range(32))
        assert all(c == 8 for c in counts.values())

    def test_block_is_default(self):
        p = Placement(FRONTIER, 16)
        assert p.strategy == "block"
        assert p.node_of(7) == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Placement(FRONTIER, 16, strategy="hilbert")

    def test_round_robin_divisibility(self):
        with pytest.raises(ValueError):
            Placement(PERLMUTTER, 6, strategy="round_robin")

    def test_round_robin_scatters_consecutive_ranks(self):
        """The property that hurts: consecutive ranks (the innermost
        process groups) land on different nodes."""
        p = Placement(FRONTIER, 64, strategy="round_robin")
        assert len({p.node_of(r) for r in range(8)}) == 8
        b = Placement(FRONTIER, 64, strategy="block")
        assert len({b.node_of(r) for r in range(8)}) == 1
