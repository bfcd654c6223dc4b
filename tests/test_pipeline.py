"""Tests for the pipeline-parallelism substrate (the baseline family)."""

import numpy as np
import pytest

from repro.cluster import FRONTIER, PERLMUTTER
from repro.config import GPTConfig, get_model
from repro.nn import GPT
from repro.runtime import CommTracer
from repro.pipeline import (
    PipelineConfig,
    PipelineGPT,
    partition_layers,
    simulate_pipeline_iteration,
)
from tests.oracles.optim import SGD


def tiny_config(layers=4):
    return GPTConfig(
        name="t", num_layers=layers, hidden_size=16, num_heads=4,
        seq_len=10, vocab_size=32,
    )


class TestPartition:
    def test_balanced_even(self):
        plan = partition_layers(8, 4)
        assert plan.ranges == ((0, 2), (2, 4), (4, 6), (6, 8))
        assert plan.max_layers_per_stage() == 2

    def test_balanced_uneven(self):
        plan = partition_layers(7, 3)
        assert plan.ranges == ((0, 3), (3, 5), (5, 7))
        assert plan.max_layers_per_stage() == 3

    def test_stage_of(self):
        plan = partition_layers(6, 2)
        assert 0 in plan.layers_in(0)
        assert 5 in plan.layers_in(1)
        assert all(6 not in plan.layers_in(s) for s in range(2))

    def test_layers_in(self):
        plan = partition_layers(6, 3)
        assert list(plan.layers_in(1)) == [2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_layers(4, 0)
        with pytest.raises(ValueError):
            partition_layers(2, 3)


class TestFunctionalPipeline:
    @pytest.mark.parametrize("stages,micro", [(1, 1), (2, 1), (2, 2), (4, 4)])
    def test_matches_serial_loss_and_grads(self, stages, micro):
        cfg = tiny_config(layers=4)
        ids = np.random.default_rng(0).integers(0, cfg.vocab_size, (4, 8))

        serial = GPT(cfg, seed=3)
        ref_loss = serial.loss(ids)
        ref_loss.backward()
        ref_grads = {n: p.grad.copy() for n, p in serial.named_parameters()}

        piped_model = GPT(cfg, seed=3)
        pipe = PipelineGPT(piped_model, partition_layers(4, stages))
        loss = pipe.loss(ids, num_microbatches=micro)

        assert loss == pytest.approx(ref_loss.item(), rel=1e-10)
        for n, p in piped_model.named_parameters():
            np.testing.assert_allclose(
                p.grad, ref_grads[n], rtol=1e-9, atol=1e-11
            )

    def test_p2p_pattern(self):
        """m microbatches over S stages: m*(S-1) activation sends and as
        many gradient sends, each of microbatch-activation size."""
        cfg = tiny_config(layers=4)
        model = GPT(cfg, seed=0)
        tracer = CommTracer()
        pipe = PipelineGPT(model, partition_layers(4, 4), tracer=tracer)
        ids = np.random.default_rng(1).integers(0, cfg.vocab_size, (4, 8))
        pipe.loss(ids, num_microbatches=2)

        def count(kind):
            return sum(
                r.tag.startswith(f"pipeline.{kind}:") for r in tracer.records
            )

        assert count("activation") == 2 * 3
        assert count("gradient") == 2 * 3
        assert len(tracer.records) == 2 * 3 * 2
        assert all(r.op == "p2p" for r in tracer.records)
        # Activation bytes: (micro, seq-1, hidden) float64.
        expect = 2 * 7 * 16 * 8
        assert all(
            r.bytes_per_rank == expect for r in tracer.records
        )

    def test_p2p_schedule_is_validator_clean(self):
        """Validation-enabled mode: the stage-boundary send/recv schedule
        passes the SPMD validator (pairing, sizes, no deadlock cycle)."""
        from repro.runtime import validate_schedule

        cfg = tiny_config(layers=4)
        model = GPT(cfg, seed=0)
        comm = CommTracer()
        pipe = PipelineGPT(model, partition_layers(4, 4), tracer=comm)
        ids = np.random.default_rng(1).integers(0, cfg.vocab_size, (4, 8))
        pipe.loss(ids, num_microbatches=2)
        # 2 microbatches * 3 boundaries, activations + gradients, each a
        # send event and a recv event.
        assert len(comm.events) == 2 * (2 * 3) * 2
        violations = validate_schedule(comm)
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_boundaries_are_runtime_messages(self):
        """Every stage-boundary crossing is a runtime ``send_recv``:
        telemetry counts it, and a dead stage rank stops the loss."""
        from repro.runtime import FaultInjector, FaultPlan, FaultSpec
        from repro.runtime import RankFailure, fault_scope
        from repro.telemetry import Tracer, telemetry_scope

        cfg = tiny_config(layers=4)
        ids = np.random.default_rng(1).integers(0, cfg.vocab_size, (4, 8))

        tel = Tracer()
        with telemetry_scope(tel):
            PipelineGPT(GPT(cfg, seed=0), partition_layers(4, 4)).loss(
                ids, num_microbatches=2
            )
        # 2 microbatches x 3 boundaries, activations + gradients.
        assert tel.metrics.value("comm.calls.p2p") == 12

        inj = FaultInjector(FaultPlan((FaultSpec("kill", rank=2, step=0),)))
        pipe = PipelineGPT(GPT(cfg, seed=0), partition_layers(4, 4))
        with fault_scope(inj):
            with pytest.raises(
                RankFailure, match=r"entering 'send_recv' on group \(1, 2\)"
            ):
                pipe.loss(ids, num_microbatches=2)

    def test_training_step_equivalence(self):
        """One SGD step through the pipeline == one serial step."""
        cfg = tiny_config(layers=2)
        ids = np.random.default_rng(2).integers(0, cfg.vocab_size, (4, 8))
        serial = GPT(cfg, seed=9)
        s_opt = SGD(serial.parameters(), lr=0.1)
        serial.loss(ids).backward()
        s_opt.step()

        model = GPT(cfg, seed=9)
        p_opt = SGD(model.parameters(), lr=0.1)
        PipelineGPT(model, partition_layers(2, 2)).loss(ids, num_microbatches=2)
        p_opt.step()

        for (n, p), (_, q) in zip(
            serial.named_parameters(), model.named_parameters()
        ):
            np.testing.assert_allclose(p.data, q.data, rtol=1e-9, atol=1e-12)

    def test_validation(self):
        cfg = tiny_config(layers=4)
        model = GPT(cfg, seed=0)
        with pytest.raises(ValueError):
            PipelineGPT(model, partition_layers(3, 3))  # wrong layer count
        pipe = PipelineGPT(model, partition_layers(4, 2))
        with pytest.raises(ValueError):
            pipe.loss(np.zeros((3, 8), dtype=int), num_microbatches=2)
        with pytest.raises(TypeError):
            PipelineGPT(model, "not a plan")


class TestPipelineSchedule:
    def test_bubble_fraction_formula(self):
        """Bubble/(total - dp - p2p) == (S-1)/(m+S-1)."""
        cfg = get_model("GPT-20B")
        pc = PipelineConfig(tp=8, pp=8, dp=4)
        r = simulate_pipeline_iteration(cfg, 256, pc, FRONTIER, num_microbatches=8)
        slot_total = r.total_time - r.dp_time - r.p2p_time
        assert r.bubble_time / slot_total == pytest.approx(
            (8 - 1) / (8 + 8 - 1), rel=1e-6
        )

    def test_more_microbatches_shrink_bubble(self):
        cfg = get_model("GPT-20B")
        pc = PipelineConfig(tp=8, pp=4, dp=4)
        small = simulate_pipeline_iteration(cfg, 256, pc, FRONTIER, num_microbatches=4)
        big = simulate_pipeline_iteration(cfg, 256, pc, FRONTIER, num_microbatches=16)
        assert big.bubble_fraction < small.bubble_fraction
        assert big.total_time < small.total_time

    def test_tp_confined_to_node(self):
        cfg = get_model("GPT-20B")
        with pytest.raises(ValueError):
            simulate_pipeline_iteration(
                cfg, 64, PipelineConfig(tp=16, pp=2, dp=1), FRONTIER
            )
        # 16-way TP is fine where nodes are bigger... nowhere here.
        with pytest.raises(ValueError):
            simulate_pipeline_iteration(
                cfg, 64, PipelineConfig(tp=8, pp=2, dp=1), PERLMUTTER
            )

    def test_uneven_stages_charged_at_slowest(self):
        """24 layers over 5 stages -> the 5-layer stage sets the slot, so
        the uneven run costs more than the even 24/4 split per GPU."""
        cfg = get_model("GPT-5B")  # 24 layers
        uneven = simulate_pipeline_iteration(
            cfg, 40, PipelineConfig(tp=4, pp=5, dp=1), PERLMUTTER,
            num_microbatches=10,
        )
        even = simulate_pipeline_iteration(
            cfg, 40, PipelineConfig(tp=4, pp=4, dp=1), PERLMUTTER,
            num_microbatches=10,
        )
        # Per-slot compute: 5 layers (ceil 24/5) vs 6 layers (24/4).
        assert uneven.compute_time < even.compute_time
        # But the bubble is deeper with more stages.
        assert uneven.bubble_fraction > even.bubble_fraction

    def test_microbatch_divisibility(self):
        cfg = get_model("GPT-5B")
        with pytest.raises(ValueError):
            simulate_pipeline_iteration(
                cfg, 64, PipelineConfig(tp=4, pp=5, dp=1), PERLMUTTER,
                num_microbatches=20,  # 64 % 20 != 0
            )

    def test_result_components_sum_sensibly(self):
        cfg = get_model("GPT-40B")
        pc = PipelineConfig(tp=8, pp=2, dp=8)
        r = simulate_pipeline_iteration(cfg, 512, pc, FRONTIER, num_microbatches=16)
        assert r.total_time > r.compute_time
        assert r.bubble_time > 0
        assert r.tp_comm_time > 0
        assert r.dp_time > 0
        assert 0 < r.bubble_fraction < 0.5


class TestInterleavedSchedule:
    def test_bubble_fraction_closed_form(self):
        from repro.pipeline import bubble_fraction

        assert bubble_fraction(8, 8) == pytest.approx(7 / 15)
        assert bubble_fraction(8, 8, virtual_stages=2) == pytest.approx(7 / 23)
        assert bubble_fraction(32, 1) == 0.0
        with pytest.raises(ValueError):
            bubble_fraction(0, 4)

    def test_interleaving_shrinks_bubble(self):
        """Narayanan et al.'s trick: v virtual chunks per device divide
        the fill/drain bubble by ~v, at the cost of v-fold p2p volume."""
        cfg = get_model("GPT-20B")  # 32 layers
        pc = PipelineConfig(tp=8, pp=8, dp=4)
        plain = simulate_pipeline_iteration(
            cfg, 256, pc, FRONTIER, num_microbatches=8
        )
        inter = simulate_pipeline_iteration(
            cfg, 256, pc, FRONTIER, num_microbatches=8, virtual_stages=2
        )
        assert inter.bubble_time < plain.bubble_time * 0.7
        assert inter.p2p_time == pytest.approx(2 * plain.p2p_time)
        assert inter.total_time < plain.total_time

    def test_validation(self):
        cfg = get_model("GPT-20B")
        with pytest.raises(ValueError):
            simulate_pipeline_iteration(
                cfg, 64, PipelineConfig(tp=8, pp=2, dp=1), FRONTIER,
                virtual_stages=0,
            )


class TestCongestionOwnership:
    """The dragonfly congestion charge is owned by
    :func:`repro.simulate.network_sim.span_link` — the pipeline model
    must apply it exactly once, and never to single-node jobs."""

    def test_single_node_job_uses_intra_node_fabric(self):
        """Regression: an 8-GPU Frontier job fits on one node, so its
        data-parallel all-reduce and p2p transfers run over Infinity
        Fabric (50 GB/s), not the NIC aggregate (100 GB/s).  The old
        model charged inter-node bandwidth and NIC latency."""
        from repro.perfmodel.ring import all_reduce_time
        from repro.perfmodel.model import BF16_BYTES

        cfg = get_model("GPT-5B")
        pc = PipelineConfig(tp=2, pp=2, dp=2)
        assert FRONTIER.num_nodes(pc.total) == 1
        r = simulate_pipeline_iteration(cfg, 64, pc, FRONTIER, num_microbatches=8)
        grad_bytes = cfg.num_parameters() / 2 / pc.tp * BF16_BYTES  # 2 stages
        expected_dp = all_reduce_time(grad_bytes, pc.dp, FRONTIER.intra_node_bw)
        assert r.dp_time == pytest.approx(expected_dp)
        # Pre-fix value (inter-node bw, 2x faster on Frontier) must NOT
        # be what we get.
        wrong_dp = all_reduce_time(grad_bytes, pc.dp, FRONTIER.inter_node_bw)
        assert r.dp_time != pytest.approx(wrong_dp)

    def test_multi_node_job_charges_congestion_once(self):
        """Cross-check: dp/p2p times equal a manual composition from
        span_link — i.e. exactly one congestion division, no more."""
        from repro.perfmodel.ring import all_reduce_time
        from repro.perfmodel.model import BF16_BYTES
        from repro.simulate.network_sim import span_link

        cfg = get_model("GPT-20B")
        pc = PipelineConfig(tp=8, pp=4, dp=4)  # 128 GPUs = 16 nodes
        nodes = FRONTIER.num_nodes(pc.total)
        assert nodes > 1
        r = simulate_pipeline_iteration(cfg, 128, pc, FRONTIER, num_microbatches=8)

        bw, lat = span_link(FRONTIER, nodes)
        grad_bytes = (
            cfg.num_parameters() * 8 / cfg.num_layers / pc.tp * BF16_BYTES
        )  # 8 layers on the largest stage
        assert r.dp_time == pytest.approx(all_reduce_time(grad_bytes, pc.dp, bw))

        micro = 128 // pc.dp // 8
        act_bytes = micro * cfg.seq_len * cfg.hidden_size * BF16_BYTES
        expected_p2p = 2 * (pc.pp - 1) * (act_bytes / bw + lat)
        assert r.p2p_time == pytest.approx(expected_p2p)

    def test_moe_all_to_all_single_vs_multi_node(self):
        from repro.moe.schedule import all_to_all_time
        from repro.simulate.network_sim import span_link

        payload = 1 << 20
        t_intra = all_to_all_time(payload, 8, FRONTIER, num_nodes=1)
        t_inter = all_to_all_time(payload, 8, FRONTIER, num_nodes=8)
        # Frontier: intra 50 GB/s vs congested inter ~100 GB/s, but NIC
        # latency dominates small payloads; just pin the composition.
        for t, nodes in ((t_intra, 1), (t_inter, 8)):
            beta, alpha = span_link(FRONTIER, nodes)
            assert t == pytest.approx(7 / 8 * payload / beta + 7 * alpha)
