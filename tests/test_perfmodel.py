"""Tests for the communication performance model (Eqs. 1-7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ALPS, FRONTIER, PERLMUTTER
from repro.config import get_model
from repro.core import GridConfig
from repro.perfmodel import (
    BandwidthDatabase,
    CommBreakdown,
    LayerShape,
    all_gather_time,
    all_reduce_time,
    case2_bandwidth,
    effective_bandwidths,
    gpt_layer_shapes,
    infeasibility_reason,
    layer_comm_time,
    model_comm_time,
    rank_configurations,
    rank_grids,
    reduce_scatter_time,
)


class TestRingFormulas:
    def test_all_gather(self):
        # 4 shards of 100 bytes at 10 B/s: 3 * 100 / 10 = 30 s.
        assert all_gather_time(100, 4, 10.0) == pytest.approx(30.0)

    def test_reduce_scatter(self):
        # (p-1)/p * buffer / beta = 3/4 * 400 / 10 = 30 s.
        assert reduce_scatter_time(400, 4, 10.0) == pytest.approx(30.0)

    def test_all_reduce_is_rs_plus_ag(self):
        buf, p, beta = 400, 4, 10.0
        assert all_reduce_time(buf, p, beta) == pytest.approx(
            reduce_scatter_time(buf, p, beta)
            + all_gather_time(buf / p, p, beta)
        )

    def test_single_rank_free(self):
        assert all_reduce_time(100, 1, 10.0) == 0.0
        assert all_gather_time(100, 1, 10.0) == 0.0

    def test_alpha_term(self):
        base = all_reduce_time(100, 4, 10.0)
        with_alpha = all_reduce_time(100, 4, 10.0, alpha=1e-3)
        assert with_alpha == pytest.approx(base + 2 * 3 * 1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            all_reduce_time(100, 0, 10.0)
        with pytest.raises(ValueError):
            all_gather_time(100, 2, 0.0)

    def test_all_four_primitives_hand_computed(self):
        """Pin every primitive against Thakur & Gropp by hand:
        p=8, 960-byte buffer, beta=10 B/s, alpha=0.5 s."""
        p, beta, alpha = 8, 10.0, 0.5
        # all-gather of 120-byte shards: 7 * (120/10 + 0.5) = 87.5
        assert all_gather_time(120, p, beta, alpha) == pytest.approx(87.5)
        # reduce-scatter: 7/8 * 960/10 + 7*0.5 = 84 + 3.5 = 87.5
        assert reduce_scatter_time(960, p, beta, alpha) == pytest.approx(87.5)
        # all-reduce: 2 * 7/8 * 960/10 + 14*0.5 = 168 + 7 = 175
        assert all_reduce_time(960, p, beta, alpha) == pytest.approx(175.0)

    def test_rejects_bad_byte_counts(self):
        for fn in (all_gather_time, reduce_scatter_time, all_reduce_time):
            with pytest.raises(ValueError):
                fn(-1.0, 4, 10.0)
            with pytest.raises(ValueError):
                fn(float("nan"), 4, 10.0)
            with pytest.raises(ValueError):
                fn(float("inf"), 4, 10.0)
            assert fn(0.0, 4, 10.0) >= 0.0  # zero bytes is legal

    @given(
        nbytes=st.floats(0, 1e12),
        p=st.integers(1, 128),
        beta=st.floats(1e3, 1e12),
        alpha=st.floats(0, 1e-3),
    )
    @settings(max_examples=100, deadline=None)
    def test_ring_costs_finite_and_nonnegative(self, nbytes, p, beta, alpha):
        for fn in (all_gather_time, reduce_scatter_time, all_reduce_time):
            t = fn(nbytes, p, beta, alpha)
            assert np.isfinite(t)
            assert t >= 0.0

    @given(p=st.integers(2, 64), size=st.floats(1, 1e9), beta=st.floats(1e6, 1e12))
    @settings(max_examples=50, deadline=None)
    def test_allreduce_approaches_2x_buffer_over_beta(self, p, size, beta):
        t = all_reduce_time(size, p, beta)
        assert t <= 2 * size / beta + 1e-12
        assert t >= size / beta  # at least half the asymptote (p=2)


class TestBandwidthModel:
    def test_case2_single_prior_ring_gets_full_nic(self):
        """Figure 3: inner product 1 -> full inter-node bandwidth."""
        assert case2_bandwidth(PERLMUTTER, 1) == PERLMUTTER.inter_node_bw

    def test_case2_sharing(self):
        """Figure 4: inner product 2 -> bandwidth halves."""
        assert case2_bandwidth(PERLMUTTER, 2) == PERLMUTTER.inter_node_bw / 2

    def test_case2_capped_at_node_size(self):
        assert case2_bandwidth(PERLMUTTER, 64) == PERLMUTTER.inter_node_bw / 4
        assert case2_bandwidth(FRONTIER, 64) == FRONTIER.inter_node_bw / 8

    def test_database_profiles_all_two_level_hierarchies(self):
        db = BandwidthDatabase.profile(FRONTIER)
        for g0 in (1, 2, 4, 8):
            for g1 in (1, 2, 4, 8):
                if g0 * g1 <= 8:
                    assert (g0, g1) in db.table

    def test_database_lookup_missing(self):
        db = BandwidthDatabase.profile(PERLMUTTER)
        with pytest.raises(KeyError):
            db.lookup(3, 5)

    def test_effective_bandwidths_hierarchy(self):
        """Intra-node levels read the DB; spanning levels follow Eq. 7."""
        betas = effective_bandwidths(GridConfig(2, 2, 2, 2), PERLMUTTER)
        # x (size 2, inner 1) and y (size 2, inner 2) fit in the 4-GPU node.
        assert betas["x"] == PERLMUTTER.intra_node_bw
        assert betas["y"] == PERLMUTTER.intra_node_bw
        # z: inner product 4 = node size -> spans nodes, shared 4 ways.
        assert betas["z"] == PERLMUTTER.inter_node_bw / 4
        # data: inner product 8 -> still capped at 4.
        assert betas["data"] == PERLMUTTER.inter_node_bw / 4

    def test_size_one_levels_are_free(self):
        betas = effective_bandwidths(GridConfig(1, 1, 8, 1), FRONTIER)
        assert betas["x"] == float("inf")
        assert betas["y"] == float("inf")
        assert betas["data"] == float("inf")
        assert betas["z"] > 0

    def test_megatron_in_node_sees_fast_fabric(self):
        betas = effective_bandwidths(GridConfig(8, 1, 1, 4), FRONTIER)
        assert betas["x"] == FRONTIER.intra_node_bw
        assert betas["data"] == FRONTIER.inter_node_bw / 8


class TestLayerModel:
    def test_paper_equations_literal(self):
        """Check Eqs. 1-5 numerically against hand computation."""
        layer = LayerShape("fc", m=64, k=32, n=16)
        cfg = GridConfig(2, 2, 2, 2)
        betas = {"x": 10.0, "y": 20.0, "z": 5.0, "data": 2.0}
        bd = layer_comm_time(layer, cfg, betas, dtype_bytes=2)
        kn = 32 * 16
        assert bd.ag_z == pytest.approx((2 - 1) * (kn / 8 * 2) / 5.0)
        assert bd.rs_z == pytest.approx((1 / 2) * (kn / 4 * 2) / 5.0)
        assert bd.ar_y == pytest.approx(2 * (1 / 2) * (64 * 16 / 4 * 2) / 20.0)
        assert bd.ar_x == pytest.approx(2 * (1 / 2) * (64 * 32 / 4 * 2) / 10.0)
        assert bd.ar_data == pytest.approx(2 * (1 / 2) * (kn / 8 * 2) / 2.0)
        assert bd.total == pytest.approx(
            bd.ag_z + bd.rs_z + bd.ar_y + bd.ar_x + bd.ar_data
        )

    def test_transposed_swaps_x_and_y(self):
        layer_n = LayerShape("a", 64, 32, 16, transposed=False)
        layer_t = LayerShape("a", 64, 32, 16, transposed=True)
        cfg = GridConfig(4, 2, 1, 1)
        betas = {"x": 10.0, "y": 10.0, "z": 1.0, "data": 1.0}
        bn = layer_comm_time(layer_n, cfg, betas)
        bt = layer_comm_time(layer_t, cfg, betas)
        # Swapping orientation with equal bandwidths exchanges the roles:
        # the transposed layer's AR_y term equals the normal layer's with
        # Gx and Gy exchanged.
        cfg_sw = GridConfig(2, 4, 1, 1)
        bn_sw = layer_comm_time(layer_n, cfg_sw, betas)
        assert bt.ar_y == pytest.approx(bn_sw.ar_y)
        assert bt.ar_x == pytest.approx(bn_sw.ar_x)

    def test_gpt_layer_shapes(self):
        cfg = get_model("GPT-5B")
        layers = gpt_layer_shapes(cfg, batch_size=8)
        # 4 FC layers per block + LM head.
        assert len(layers) == 4 * cfg.num_layers + 1
        qkv = layers[0]
        assert (qkv.m, qkv.k, qkv.n) == (8 * 2048, 4096, 3 * 4096)
        assert not qkv.transposed and layers[1].transposed

    def test_model_comm_time_positive_and_additive(self):
        cfg = get_model("GPT-5B")
        db = BandwidthDatabase.profile(PERLMUTTER)
        bd = model_comm_time(cfg, 64, GridConfig(2, 2, 2, 8), PERLMUTTER, db=db)
        assert bd.total > 0
        assert bd.ag_z > 0 and bd.ar_data > 0

    def test_model_comm_batch_divisibility(self):
        cfg = get_model("GPT-5B")
        with pytest.raises(ValueError):
            model_comm_time(cfg, 10, GridConfig(1, 1, 1, 3), PERLMUTTER)

    def test_breakdown_addition(self):
        a = CommBreakdown(1, 2, 3, 4, 5)
        b = CommBreakdown(1, 1, 1, 1, 1)
        c = a + b
        assert (c.ag_z, c.rs_z, c.ar_y, c.ar_x, c.ar_data) == (2, 3, 4, 5, 6)


class TestRanking:
    def test_feasibility_rules(self):
        cfg = get_model("GPT-5B")  # 32 heads, h=4096, V=51200
        assert infeasibility_reason(cfg, GridConfig(2, 2, 2, 2), 64) is None
        # heads not divisible by gx=3 -> infeasible (and 3 doesn't divide h).
        assert infeasibility_reason(cfg, GridConfig(3, 1, 1, 1), 3) is not None
        # batch not divisible by gz*gdata.
        assert infeasibility_reason(cfg, GridConfig(1, 1, 4, 4), 8) is not None

    def test_memory_feasibility(self):
        cfg = get_model("GPT-40B")
        # 40B params on a single 40GB A100: impossible.
        assert infeasibility_reason(
            cfg, GridConfig(1, 1, 1, 8), 8, PERLMUTTER
        ).startswith("does not fit")
        # Sharded over 64 tensor-parallel GPUs: 40e9*16/64 = 10GB: fits.
        assert infeasibility_reason(
            cfg, GridConfig(4, 4, 4, 1), 64, PERLMUTTER
        ) is None

    def test_rank_configurations_sorted_and_feasible(self):
        cfg = get_model("GPT-5B")
        ranked = rank_configurations(cfg, 32, 32, PERLMUTTER)
        assert len(ranked) > 5
        times = [r.predicted_time for r in ranked]
        assert times == sorted(times)
        for r in ranked:
            assert r.config.total == 32
            assert infeasibility_reason(cfg, r.config, 32, PERLMUTTER) is None

    def test_top_config_prefers_tensor_parallel_in_node(self):
        """With data parallelism outermost and cheap (only gradient
        all-reduces), pure-X (Megatron across nodes) should never beat a
        configuration that keeps tensor parallelism inside the node."""
        cfg = get_model("GPT-5B")
        ranked = rank_configurations(cfg, 32, 32, PERLMUTTER)
        best = ranked[0].config
        pure_x = [r for r in ranked if r.config.dims == (32, 1, 1, 1)]
        assert pure_x, "pure-X should be feasible"
        assert best.gx * best.gy * best.gz <= 8 or ranked[0].predicted_time < pure_x[0].predicted_time

    def test_max_configs_limit(self):
        cfg = get_model("GPT-5B")
        ranked = rank_configurations(cfg, 16, 16, ALPS, max_configs=3)
        assert len(ranked) == 3

    def test_rank_grids_rejects_indivisible_batch(self):
        """Like ``model_comm_time``: a grid whose G_data does not divide
        the batch is an error, not a floored replica batch."""
        db = BandwidthDatabase.profile(PERLMUTTER)
        with pytest.raises(ValueError, match="not divisible"):
            rank_grids(
                get_model("GPT-5B"), 10, [GridConfig(1, 1, 1, 3)], PERLMUTTER, db
            )


class TestSimulatorPricesTheModelsTable:
    """Cross-layer: at the perf model's bandwidths and zero latency, the
    simulator's flat price of every FC-layer collective is Eqs. 1-5
    term by term, and its data-parallel all-reduce is the model's
    ``ar_data`` summed over the layers (the ``G_seq`` gradient
    all-reduce included)."""

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2, 1, 1), (2, 1, 2, 1, 2), (2, 2, 1, 2, 4)]
    )
    def test_flat_prices_equal_layer_comm_time(self, dims):
        from repro.simulate import job_inputs, price_iteration
        from repro.simulate.network_sim import LinkTiming

        cfg = get_model("GPT-5B")
        config = GridConfig(*dims)
        batch = 8 * config.gdata
        betas = effective_bandwidths(config, PERLMUTTER)
        inputs = job_inputs(cfg, batch, config, PERLMUTTER, "block", False)
        timings = {
            axis: LinkTiming(betas[axis], 0.0, link.group_size)
            for axis, link in inputs.timings.items()
        }
        prices = price_iteration(
            cfg, batch, config, PERLMUTTER,
            *inputs._replace(timings=timings),
            "flat", False, False,
        )
        mismatches = []
        ar_data = 0.0
        for layer, price in zip(inputs.layers, prices.layers):
            bd = layer_comm_time(layer, config, betas)
            ar_data += bd.ar_data
            for term, sim, model in (
                ("ag_z", price.ag_z, bd.ag_z),
                ("rs_z", price.rs_z, bd.rs_z),
                ("ar_fwd", price.ar_fwd, bd.ar_y),
                ("ar_bwd", price.ar_bwd, bd.ar_x),
            ):
                if sim != pytest.approx(model, rel=1e-12, abs=0.0):
                    mismatches.append((layer.name, term, sim, model))
        assert mismatches == []
        assert prices.dp_time == pytest.approx(ar_data, rel=1e-9)
