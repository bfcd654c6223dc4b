"""Cross-validation: analytic communication volumes == traced bytes.

These tests close the loop between the performance model's byte counts
(the numerators of Eqs. 1-5) and the *executable* Algorithm 1: the
functional implementations issue real collectives whose buffer sizes the
tracer records, and the analytic volumes must match them exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig
from repro.core import (
    Grid4D,
    GridConfig,
    ParallelGPT,
    pmm3d_backward,
    pmm3d_forward,
    shard_input,
    shard_weight,
)
from repro.nn import GPT
from repro.perfmodel import (
    CollectiveVolumes,
    LayerShape,
    gpt_forward_backward_volumes,
    layer_volumes,
)
from repro.perfmodel.ring import (
    all_gather_time,
    all_reduce_time,
    broadcast_time,
    reduce_scatter_time,
)
from repro.runtime import CommTracer, ProcessGroup, broadcast
from repro.runtime import collectives as rc
from tests.oracles.ring import ring_wire_bytes


def traced_bytes(tracer: CommTracer, tags: set[str]) -> float:
    return float(
        sum(r.bytes_per_rank for r in tracer.records if r.tag in tags)
    )


class TestPMM3DVolumes:
    @pytest.mark.parametrize(
        "gx,gy,gz", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2), (4, 2, 2)]
    )
    @pytest.mark.parametrize("transposed", [False, True])
    def test_layer_volumes_match_trace(self, gx, gy, gz, transposed):
        """One FC layer's forward+backward collective bytes, traced vs
        computed, for all four collective families."""
        rng = np.random.default_rng(0)
        m = 4 * gz
        k = 8 * gx * gy * gz
        n = 4 * gx * gy
        tracer = CommTracer()
        grid = Grid4D(GridConfig(gx, gy, gz), tracer=tracer)

        I = rng.standard_normal((m, k))
        W = rng.standard_normal((k, n))
        dO = rng.standard_normal((m, n))
        I_parts = shard_input(I, grid, transposed=transposed)
        W_shards = shard_weight(W, grid, transposed=transposed)
        O_parts, cache = pmm3d_forward(
            grid, I_parts, W_shards, transposed=transposed
        )
        dO_parts = shard_input(dO, grid, transposed=not transposed)
        pmm3d_backward(grid, dO_parts, cache, transposed=transposed)

        vol = layer_volumes(
            LayerShape("fc", m, k, n, transposed), grid.config, dtype_bytes=8
        )
        assert traced_bytes(tracer, {"pmm3d.AG_z"}) == pytest.approx(vol.ag_z)
        assert traced_bytes(tracer, {"pmm3d.RS_z"}) == pytest.approx(vol.rs_z)
        fwd_tag = "pmm3d.AR_x" if transposed else "pmm3d.AR_y"
        bwd_tag = "pmm3d.AR_y" if transposed else "pmm3d.AR_x"
        assert traced_bytes(tracer, {fwd_tag}) == pytest.approx(vol.ar_fwd)
        assert traced_bytes(tracer, {bwd_tag}) == pytest.approx(vol.ar_bwd)

    @given(
        gx=st.sampled_from([1, 2]),
        gy=st.sampled_from([1, 2, 3]),
        gz=st.sampled_from([1, 2]),
        mm=st.integers(1, 3),
        nn=st.integers(1, 2),
        transposed=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_layer_volume_property(self, gx, gy, gz, mm, nn, transposed):
        rng = np.random.default_rng(1)
        m = mm * gz * 2
        k = 4 * gx * gy * gz
        n = nn * gx * gy * 2
        tracer = CommTracer()
        grid = Grid4D(GridConfig(gx, gy, gz), tracer=tracer)
        I_parts = shard_input(
            rng.standard_normal((m, k)), grid, transposed=transposed
        )
        W_shards = shard_weight(
            rng.standard_normal((k, n)), grid, transposed=transposed
        )
        O_parts, cache = pmm3d_forward(grid, I_parts, W_shards, transposed=transposed)
        dO_parts = shard_input(
            rng.standard_normal((m, n)), grid, transposed=not transposed
        )
        pmm3d_backward(grid, dO_parts, cache, transposed=transposed)
        vol = layer_volumes(
            LayerShape("fc", m, k, n, transposed), grid.config, dtype_bytes=8
        )
        total_traced = traced_bytes(
            tracer, {"pmm3d.AG_z", "pmm3d.RS_z", "pmm3d.AR_x", "pmm3d.AR_y"}
        )
        total_analytic = vol.ag_z + vol.rs_z + vol.ar_fwd + vol.ar_bwd
        assert total_traced == pytest.approx(total_analytic)


class TestParallelGPTVolumes:
    @pytest.mark.parametrize("gx,gy,gz", [(2, 1, 1), (1, 2, 1), (2, 2, 2)])
    def test_forward_collective_bytes_match(self, gx, gy, gz):
        """The functional ParallelGPT's forward-pass collectives (weight
        gathers and activation reduces) carry exactly the analytic byte
        volumes.  (Backward communication materializes as autograd
        accumulation, so only the forward is traced — see
        repro.core.collective_ops.)"""
        cfg = GPTConfig(
            name="t", num_layers=2, hidden_size=8 * gx * gy * gz,
            num_heads=gx * 2, seq_len=8, vocab_size=16 * gx,
        )
        tracer = CommTracer()
        grid = Grid4D(GridConfig(gx, gy, gz), tracer=tracer)
        serial = GPT(cfg, seed=0)
        par = ParallelGPT.from_serial(serial, grid)
        batch = 2 * gz
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (batch, 7))
        par.loss(ids)

        vol = gpt_forward_backward_volumes(
            cfg, batch, grid.config, dtype_bytes=8, seq_len=6
        )
        assert traced_bytes(tracer, {"linear.AG_z"}) == pytest.approx(vol.ag_z)
        assert traced_bytes(
            tracer, {"linear.AR_x", "linear.AR_y"}
        ) == pytest.approx(vol.ar_fwd)

    def test_more_sharding_means_less_gather_per_record(self):
        """Z-sharding shrinks each gather record's payload by G_z while
        multiplying... nothing: the number of Z-groups is G_x*G_y, so
        total AG bytes fall linearly with G_z."""
        layer = LayerShape("fc", 16, 32, 8)
        v1 = layer_volumes(layer, GridConfig(1, 1, 1))
        v4 = layer_volumes(layer, GridConfig(1, 1, 4))
        assert v4.ag_z == pytest.approx(v1.ag_z / 4)

    def test_volumes_additive(self):
        a = CollectiveVolumes(1, 2, 3, 4)
        b = CollectiveVolumes(1, 1, 1, 1)
        c = a + b
        assert (c.ag_z, c.rs_z, c.ar_fwd, c.ar_bwd) == (2, 3, 4, 5)


class TestBroadcastVolumes:
    """Regression: the traced broadcast volume must match the
    scatter–allgather cost :func:`repro.perfmodel.broadcast_time` prices
    (2 (p-1)/p of the buffer on the wire), not the naive root-sends-all
    tree the old implementation traced."""

    @pytest.mark.parametrize("p", [2, 3, 4, 8])
    def test_traced_record_matches_cost_model(self, p):
        rng = np.random.default_rng(p)
        group = ProcessGroup(tuple(range(p)))
        src = rng.standard_normal((5, 3))
        buffers = {r: (src.copy() if r == 0 else np.zeros_like(src)) for r in group}
        tracer = CommTracer()
        out = broadcast(buffers, group, root=0, tracer=tracer, tag="bc")

        # Functional: every rank holds the root's exact bytes.
        for r in group:
            np.testing.assert_array_equal(out[r], src)
        # One record, carrying the root-buffer byte count the model keys on.
        recs = [r for r in tracer.records if r.tag == "bc"]
        assert len(recs) == 1
        assert recs[0].bytes_per_rank == src.nbytes
        assert recs[0].root == 0
        # Time = wire bytes / bandwidth, for any bandwidth.
        beta = 7.5e9
        assert broadcast_time(src.nbytes, p, beta) == pytest.approx(
            ring_wire_bytes("broadcast", src.nbytes, p) / beta
        )

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_wire_bytes_consistent_with_all_time_fns(self, p):
        """ring_wire_bytes / beta reproduces every *_time bandwidth term."""
        n = 3840.0
        beta = 1e10
        cases = [
            ("all_reduce", all_reduce_time),
            ("reduce_scatter", reduce_scatter_time),
            ("all_gather", all_gather_time),
            ("broadcast", broadcast_time),
        ]
        for op, fn in cases:
            assert fn(n, p, beta) == pytest.approx(
                ring_wire_bytes(op, n, p) / beta
            ), op
        with pytest.raises(ValueError):
            ring_wire_bytes("gossip", n, p)

    def test_broadcast_routes_through_scatter_allgather(self, monkeypatch):
        """Structural: the executable broadcast must actually run the
        scatter + ring-all-gather the cost model prices (the pre-fix
        implementation copied the root buffer without any ring phase)."""
        calls = []
        real_ag = rc.all_gather

        def spy(buffers, group, *args, **kwargs):
            sample = buffers[group.ranks[0]]
            calls.append((group.size, sample.size))
            return real_ag(buffers, group, *args, **kwargs)

        monkeypatch.setattr(rc, "all_gather", spy)
        p = 4
        group = ProcessGroup(tuple(range(p)))
        src = np.arange(12, dtype=np.float64).reshape(3, 4)
        buffers = {r: (src.copy() if r == 0 else np.zeros_like(src)) for r in group}
        out = rc.broadcast(buffers, group, root=0)
        for r in group:
            np.testing.assert_array_equal(out[r], src)
        # Exactly one internal all-gather, over 1/p shards of the payload.
        assert calls == [(p, src.size // p)]

    def test_telemetry_counts_broadcast_once(self):
        from repro.telemetry import Tracer, telemetry_scope

        group = ProcessGroup((0, 1, 2, 3))
        src = np.ones((8, 2))
        buffers = {r: src.copy() for r in group}
        tr = Tracer()
        with telemetry_scope(tr):
            broadcast(buffers, group, root=0)
        # The composite reports once; the internal all-gather is silent.
        assert tr.metrics.value("comm.calls.broadcast") == 1
        assert tr.metrics.value("comm.bytes.broadcast") == src.nbytes
        assert tr.metrics.value("comm.calls.all_gather", default=0) == 0
