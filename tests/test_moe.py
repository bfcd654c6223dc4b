"""Tests for the Mixture-of-Experts extension (router, experts, expert
parallelism over the differentiable all-to-all)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.moe import ExpertParallelMoE, MoELayer, TopKRouter, load_balance_loss
from repro.runtime import CommTracer, ProcessGroup, all_to_all
from repro.tensor import Tensor
from tests.oracles.optim import SGD


def tokens(t=12, dim=8, seed=0):
    return np.random.default_rng(seed).standard_normal((t, dim))


class TestAllToAll:
    def test_exchange_semantics(self):
        g = ProcessGroup((0, 1, 2))
        chunks = {
            r: [np.full((r + 1, 2), 10 * r + j) for j in range(3)]
            for r in g.ranks
        }
        out = all_to_all(chunks, g)
        # Rank 2 receives from src positions 0,1,2 their j=2 chunks.
        for src in range(3):
            np.testing.assert_array_equal(
                out[2][src], np.full((src + 1, 2), 10 * src + 2)
            )

    def test_variable_and_empty_chunks(self):
        g = ProcessGroup((0, 1))
        chunks = {
            0: [np.zeros((0, 4)), np.ones((3, 4))],
            1: [np.full((2, 4), 7.0), np.zeros((0, 4))],
        }
        out = all_to_all(chunks, g)
        assert out[0][0].shape == (0, 4)
        np.testing.assert_array_equal(out[0][1], np.full((2, 4), 7.0))
        np.testing.assert_array_equal(out[1][0], np.ones((3, 4)))

    def test_validation(self):
        g = ProcessGroup((0, 1))
        with pytest.raises(ValueError):
            all_to_all({0: [np.zeros(1)] * 2}, g)  # missing rank 1
        with pytest.raises(ValueError):
            all_to_all({0: [np.zeros(1)], 1: [np.zeros(1)]}, g)  # wrong count

    def test_traced(self):
        g = ProcessGroup((0, 1))
        tr = CommTracer()
        chunks = {r: [np.zeros((1, 2)), np.zeros((1, 2))] for r in g.ranks}
        all_to_all(chunks, g, tracer=tr, tag="x")
        assert tr.ops() == ["all_to_all"]


class TestRouter:
    def test_topk_selection(self):
        rng = np.random.default_rng(0)
        router = TopKRouter(8, 4, k=2, rng=rng)
        idx, gates, probs = router.route(Tensor(tokens()))
        assert idx.shape == (12, 2)
        assert (idx[:, 0] != idx[:, 1]).all()  # distinct experts
        # Gates renormalized per token.
        np.testing.assert_allclose(gates.data.sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, rtol=1e-12)
        # Top-1 really is the argmax.
        np.testing.assert_array_equal(idx[:, 0], np.argmax(probs.data, axis=1))

    def test_k_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            TopKRouter(8, 4, k=5, rng=rng)
        with pytest.raises(ValueError):
            TopKRouter(8, 4, k=0, rng=rng)


class TestLoadBalanceLoss:
    def test_uniform_routing_gives_one(self):
        e = 4
        idx = np.repeat(np.arange(e), 3)[:, None]  # 3 tokens per expert
        probs = Tensor(np.full((12, e), 1.0 / e))
        assert load_balance_loss(idx, probs, e).item() == pytest.approx(1.0)

    def test_collapsed_routing_is_penalized(self):
        e = 4
        idx = np.zeros((12, 1), dtype=int)  # everyone to expert 0
        p = np.zeros((12, e))
        p[:, 0] = 0.97
        p[:, 1:] = 0.01
        probs = Tensor(p)
        assert load_balance_loss(idx, probs, e).item() > 3.0

    def test_differentiable_through_probs(self):
        e = 3
        idx = np.array([[0], [1], [2]])
        probs = Tensor(np.full((3, e), 1.0 / e), requires_grad=True)
        load_balance_loss(idx, probs, e).backward()
        assert probs.grad is not None


class TestSerialMoE:
    def test_output_shape_and_aux(self):
        layer = MoELayer(8, 4, hidden=16, k=2, rng=np.random.default_rng(0))
        out, aux = layer(Tensor(tokens()))
        assert out.shape == (12, 8)
        assert aux.item() > 0

    def test_k1_uses_single_expert_per_token(self):
        """With k=1, each token's output is exactly its top expert's."""
        rng = np.random.default_rng(1)
        layer = MoELayer(8, 4, hidden=16, k=1, rng=rng)
        x = tokens(seed=2)
        out, _ = layer(Tensor(x))
        idx, gates, _ = layer.router.route(Tensor(x))
        np.testing.assert_allclose(gates.data, 1.0)  # renormalized top-1
        for t in range(12):
            e = idx[t, 0]
            expert_out = layer.experts[e](Tensor(x[t : t + 1])).data[0]
            np.testing.assert_allclose(out.data[t], expert_out, rtol=1e-12)

    def test_compute_is_sparse(self):
        """MoE's defining property: doubling the expert count does not
        change the number of expert-MLP token evaluations (~k per
        token), only the parameter count."""
        rng = np.random.default_rng(3)
        small = MoELayer(8, 2, hidden=16, k=2, rng=rng)
        big = MoELayer(8, 8, hidden=16, k=2, rng=rng)
        assert big.num_parameters() > 3 * small.num_parameters()
        # Token-evaluations = sum over experts of routed tokens = T * k
        # in both cases (counted via the routing indices).
        for layer in (small, big):
            idx, _, _ = layer.router.route(Tensor(tokens(seed=4)))
            assert idx.size == 12 * 2

    def test_gradients_reach_all_used_experts(self):
        layer = MoELayer(8, 4, hidden=16, k=2, rng=np.random.default_rng(5))
        x = Tensor(tokens(seed=6), requires_grad=True)
        out, aux = layer(x)
        (out.sum() + aux).backward()
        idx, _, _ = layer.router.route(Tensor(tokens(seed=6)))
        used = set(idx.ravel())
        for e in used:
            assert layer.experts[e].fc1.weight.grad is not None
        assert x.grad is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            MoELayer(8, 0)
        layer = MoELayer(8, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((2, 3, 8))))

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(7)
        layer = MoELayer(8, 4, hidden=16, k=2, rng=rng)
        opt = SGD(layer.parameters(), lr=0.5)
        x = tokens(t=16, seed=8)
        target = np.random.default_rng(9).standard_normal((16, 8))
        first = None
        for _ in range(40):
            out, aux = layer(Tensor(x))
            diff = out - Tensor(target)
            loss = (diff * diff).sum() * (1.0 / target.size) + aux * 0.01
            if first is None:
                first = loss.item()
            layer.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.9


class TestExpertParallel:
    @pytest.mark.parametrize("ranks,experts,k", [(2, 4, 2), (2, 4, 1), (4, 4, 2), (2, 2, 1)])
    def test_matches_serial(self, ranks, experts, k):
        rng = np.random.default_rng(0)
        layer = MoELayer(8, experts, hidden=16, k=k, rng=rng)
        x = tokens(t=4 * ranks, seed=1)
        serial_out, serial_aux = layer(Tensor(x))

        group = ProcessGroup(tuple(range(ranks)))
        ep = ExpertParallelMoE(layer, group)
        shard = x.shape[0] // ranks
        parts = {
            r: Tensor(x[i * shard : (i + 1) * shard])
            for i, r in enumerate(group.ranks)
        }
        outs, aux = ep.forward(parts)
        full = np.concatenate([outs[r].data for r in group.ranks])
        np.testing.assert_allclose(full, serial_out.data, rtol=1e-10, atol=1e-12)
        assert aux.item() == pytest.approx(serial_aux.item(), rel=1e-12)

    def test_gradients_match_serial(self):
        rng = np.random.default_rng(2)
        layer = MoELayer(8, 4, hidden=16, k=2, rng=rng)
        x = tokens(t=12, seed=3)
        out, aux = layer(Tensor(x))
        (out.sum() + aux).backward()
        ref = {n: p.grad.copy() for n, p in layer.named_parameters()}
        layer.zero_grad()

        group = ProcessGroup((0, 1))
        ep = ExpertParallelMoE(layer, group)
        parts = {0: Tensor(x[:6]), 1: Tensor(x[6:])}
        outs, aux_p = ep.forward(parts)
        (outs[0].sum() + outs[1].sum() + aux_p).backward()
        for n, p in layer.named_parameters():
            np.testing.assert_allclose(p.grad, ref[n], rtol=1e-9, atol=1e-12)

    def test_comm_pattern_is_two_all_to_alls(self):
        rng = np.random.default_rng(4)
        layer = MoELayer(8, 4, hidden=16, k=2, rng=rng)
        group = ProcessGroup((0, 1))
        tr = CommTracer()
        ep = ExpertParallelMoE(layer, group, tracer=tr)
        x = tokens(t=8, seed=5)
        ep.forward({0: Tensor(x[:4]), 1: Tensor(x[4:])})
        assert [r.tag for r in tr.records] == ["moe.dispatch", "moe.combine"]
        assert all(r.op == "all_to_all" for r in tr.records)
        # Validation-enabled mode: the dispatch/combine split matrices
        # must be transposed (tokens return home) and the schedule clean.
        from repro.runtime import validate_schedule

        violations = validate_schedule(tr)
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_expert_parallel_schedule_validator_clean_4ranks(self):
        from repro.runtime import validate_schedule

        rng = np.random.default_rng(7)
        layer = MoELayer(8, 8, hidden=16, k=2, rng=rng)
        group = ProcessGroup((0, 1, 2, 3))
        tr = CommTracer()
        ep = ExpertParallelMoE(layer, group, tracer=tr)
        x = tokens(t=16, seed=8)
        parts = {
            r: Tensor(x[4 * i : 4 * (i + 1)])
            for i, r in enumerate(group.ranks)
        }
        outs, aux = ep.forward(parts)
        total = outs[0].sum()
        for r in group.ranks[1:]:
            total = total + outs[r].sum()
        (total + aux).backward()
        splits = [e.splits for e in tr.events if e.tag == "moe.dispatch"]
        assert len(splits) == 4 and all(len(s) == 4 for s in splits)
        violations = validate_schedule(tr)
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_divisibility_validation(self):
        layer = MoELayer(8, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            ExpertParallelMoE(layer, ProcessGroup((0, 1)))

    def test_owner_position(self):
        layer = MoELayer(8, 4, rng=np.random.default_rng(0))
        ep = ExpertParallelMoE(layer, ProcessGroup((0, 1)))
        assert ep.owner_position(0) == 0
        assert ep.owner_position(3) == 1

    @given(seed=st.integers(0, 30), t=st.sampled_from([4, 8, 12]))
    @settings(max_examples=15, deadline=None)
    def test_equivalence_property(self, seed, t):
        rng = np.random.default_rng(seed)
        layer = MoELayer(6, 4, hidden=8, k=2, rng=rng)
        x = np.random.default_rng(seed + 100).standard_normal((t, 6))
        serial_out, _ = layer(Tensor(x))
        group = ProcessGroup((0, 1))
        ep = ExpertParallelMoE(layer, group)
        parts = {0: Tensor(x[: t // 2]), 1: Tensor(x[t // 2 :])}
        outs, _ = ep.forward(parts)
        full = np.concatenate([outs[0].data, outs[1].data])
        np.testing.assert_allclose(full, serial_out.data, rtol=1e-9, atol=1e-11)


class TestMoESchedule:
    def test_all_to_all_time_shapes(self):
        from repro.cluster import ALPS, FRONTIER
        from repro.moe import all_to_all_time

        assert all_to_all_time(1e6, 1, FRONTIER, 1) == 0.0
        # On Alps the NVLink fabric beats the NICs, so in-node wins.
        in_node = all_to_all_time(1e8, 4, ALPS, 1)
        across = all_to_all_time(1e8, 4, ALPS, 4)
        assert across > in_node > 0
        # On Frontier the cross-die links (50 GB/s) are *slower* than the
        # NIC aggregate (100 GB/s) — a real quirk the substrate models.
        assert all_to_all_time(1e8, 8, FRONTIER, 1) > all_to_all_time(
            1e8, 8, FRONTIER, 8
        )
        # At scale, congestion flips it back.
        assert all_to_all_time(1e8, 8, FRONTIER, 4096) > all_to_all_time(
            1e8, 8, FRONTIER, 1
        )

    def test_expert_parallel_scaling(self):
        """More expert-parallel ranks: compute per rank constant (tokens
        per rank fixed), communication grows — the trade-off [17]
        navigates."""
        from repro.cluster import FRONTIER
        from repro.moe import simulate_moe_layer

        small = simulate_moe_layer(4096, 4096, 16384, 16, 2, FRONTIER)
        big = simulate_moe_layer(4096, 4096, 16384, 64, 64, FRONTIER)
        assert big.expert_compute == pytest.approx(small.expert_compute)
        assert big.comm_fraction > small.comm_fraction

    def test_within_node_expert_parallelism_is_cheap(self):
        from repro.cluster import FRONTIER
        from repro.moe import simulate_moe_layer

        r8 = simulate_moe_layer(4096, 4096, 16384, 8, 8, FRONTIER)
        r64 = simulate_moe_layer(4096, 4096, 16384, 64, 64, FRONTIER)
        assert r8.comm_fraction < r64.comm_fraction
        assert 0 < r8.comm_fraction < 0.5

    def test_validation(self):
        from repro.cluster import FRONTIER
        from repro.moe import simulate_moe_layer

        with pytest.raises(ValueError):
            simulate_moe_layer(128, 64, 256, 6, 4, FRONTIER)
        with pytest.raises(ValueError):
            simulate_moe_layer(0, 64, 256, 4, 4, FRONTIER)


class TestMoEGPT:
    def _cfg(self, layers=4):
        from repro.config import GPTConfig

        return GPTConfig(
            name="moegpt", num_layers=layers, hidden_size=16,
            num_heads=4, seq_len=12, vocab_size=32,
        )

    def test_alternating_moe_blocks(self):
        from repro.moe import MoEGPT

        m = MoEGPT(self._cfg(4), num_experts=4, moe_every=2, seed=0)
        assert m.num_moe_blocks == 2
        m_all = MoEGPT(self._cfg(4), num_experts=4, moe_every=1, seed=0)
        assert m_all.num_moe_blocks == 4

    def test_forward_shapes_and_aux(self):
        from repro.moe import MoEGPT

        m = MoEGPT(self._cfg(), num_experts=4, seed=0)
        ids = np.random.default_rng(0).integers(0, 32, (2, 8))
        logits, aux = m.forward(ids)
        assert logits.shape == (2, 8, 32)
        assert aux is not None and aux.item() > 0

    def test_sparse_has_more_params_than_dense(self):
        from repro.moe import MoEGPT
        from repro.nn import GPT

        cfg = self._cfg()
        dense = GPT(cfg, seed=0)
        sparse = MoEGPT(cfg, num_experts=8, moe_every=1, seed=0)
        assert sparse.num_parameters() > 2 * dense.num_parameters()

    def test_training_reduces_loss(self):
        from repro.moe import MoEGPT

        m = MoEGPT(self._cfg(layers=2), num_experts=4, moe_every=1, seed=0)
        opt = SGD(m.parameters(), lr=0.3)
        ids = np.random.default_rng(1).integers(0, 32, (4, 10))
        first = None
        for _ in range(10):
            loss = m.loss(ids)
            if first is None:
                first = loss.item()
            m.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.9

    def test_goldfish_mask_compatible(self):
        """The MoE LM accepts the same loss_mask hook as the dense GPT,
        so the memorization lab could run on sparse models."""
        from repro.memorization import goldfish_mask
        from repro.moe import MoEGPT

        m = MoEGPT(self._cfg(layers=2), num_experts=2, seed=0)
        ids = np.random.default_rng(2).integers(0, 32, (2, 10))
        mask = goldfish_mask(ids, k=2, h=3)
        full = m.loss(ids).item()
        masked = m.loss(ids, loss_mask=mask).item()
        assert masked != full

    def test_validation(self):
        from repro.moe import MoEGPT

        with pytest.raises(ValueError):
            MoEGPT(self._cfg(), moe_every=0)
        m = MoEGPT(self._cfg(), seed=0)
        with pytest.raises(ValueError):
            m.forward(np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            m.forward(np.zeros((1, 100), dtype=int))
