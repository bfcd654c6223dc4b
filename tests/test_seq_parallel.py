"""Sequence-parallel ring attention: correctness, bugfixes, planning.

Four claims under test:

1. **Ring == serial.** :func:`repro.nn.ring_causal_attention` composes
   per-shard online-softmax states into exactly the serial
   :func:`repro.nn.causal_attention` result — to 1e-12 for arbitrary
   inputs, *bitwise* for payloads whose arithmetic is exact — and the
   full 5D-parallel GPT trains identically to the serial reference for
   any ``G_seq``.
2. **Attention bugfixes hold.** The ``-inf`` mask fill preserves
   causality for extreme-magnitude float32 activations (the old finite
   ``-1e30`` fill provably does not), and the memoized
   :func:`repro.nn.causal_mask` builds each mask shape exactly once.
3. **The ring is visible.** Traced ``seq.ring_kv`` bytes equal the
   analytic :func:`repro.perfmodel.seq_ring_volumes`, and the schedule
   validator flags dropped or desynchronized ring messages.
4. **The planners agree.** Performance model and simulator pick the
   same side of the SP-vs-plain-TP crossover at the sweep endpoints on
   perlmutter and frontier, and the end-to-end autotuner reaches for
   ``G_seq > 1`` when long context makes classic 4D grids infeasible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import (
    NoFeasibleConfigError,
    PlanRequest,
    SearchSpace,
    autotune,
)
from repro.cluster import get_machine
from repro.config import GPTConfig, get_model
from repro.core import Grid4D, GridConfig, ParallelGPT
from repro.nn import (
    GPT,
    RING_KV_TAG,
    causal_attention,
    causal_mask,
    ring_causal_attention,
)
from repro.nn import transformer as transformer_mod
from repro.perfmodel import rank_configurations, seq_ring_volumes
from repro.runtime import (
    CommTimeoutError,
    CommTracer,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ProcessGroup,
    fault_scope,
    validate_schedule,
)
from repro.simulate import OverlapFlags, simulate_iteration
from repro.tensor import Tensor
from repro.tensor import functional as F


def tiny_config(**kw) -> GPTConfig:
    defaults = dict(
        name="tiny",
        num_layers=2,
        hidden_size=24,
        num_heads=4,
        seq_len=12,
        vocab_size=32,
    )
    defaults.update(kw)
    return GPTConfig(**defaults)


def batch_for(cfg, b, s=None, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, cfg.vocab_size, (b, s or cfg.seq_len))


def _fused(*arrays, requires_grad=False) -> Tensor:
    """The ``[Q | K | V]`` projection :func:`causal_attention` takes."""
    return Tensor(np.concatenate(arrays, axis=-1), requires_grad=requires_grad)


def _ring_outputs(qd, kd, vd, num_heads, gs, tracer=None):
    """Run the ring on numpy q/k/v, returning (shard tensors, concat data)."""
    group = ProcessGroup(tuple(range(gs)))
    qs = [Tensor(a.copy(), requires_grad=True) for a in np.split(qd, gs, axis=1)]
    ks = [Tensor(a.copy(), requires_grad=True) for a in np.split(kd, gs, axis=1)]
    vs = [Tensor(a.copy(), requires_grad=True) for a in np.split(vd, gs, axis=1)]
    outs = ring_causal_attention(qs, ks, vs, num_heads, group, tracer=tracer)
    full = np.concatenate([o.data for o in outs], axis=1)
    return (qs, ks, vs), outs, full


class TestRingAttentionCore:
    """ring_causal_attention vs the serial causal_attention reference."""

    @pytest.mark.parametrize("gs", [1, 2, 3, 4, 6, 12])
    def test_forward_and_backward_match_serial(self, gs):
        """Every ring degree dividing S reproduces the serial attention
        output and the serial q/k/v gradients to 1e-12."""
        rng = np.random.default_rng(gs)
        b, s, h, nh = 2, 12, 24, 4
        qd, kd, vd = (rng.standard_normal((b, s, h)) for _ in range(3))
        w = rng.standard_normal((b, s, h))  # non-uniform upstream gradient

        qkv = _fused(qd, kd, vd, requires_grad=True)
        ref = causal_attention(qkv, nh)
        (ref * Tensor(w)).sum().backward()
        serial_grads = np.split(qkv.grad, 3, axis=-1)

        shards, outs, full = _ring_outputs(qd, kd, vd, nh, gs)
        np.testing.assert_allclose(full, ref.data, rtol=0, atol=1e-12)

        loss = sum(
            (o * Tensor(ws)).sum()
            for o, ws in zip(outs, np.split(w, gs, axis=1))
        )
        loss.backward()
        qs, ks, vs = shards
        for serial_grad, shard_list in zip(serial_grads, (qs, ks, vs)):
            got = np.concatenate([t.grad for t in shard_list], axis=1)
            np.testing.assert_allclose(got, serial_grad, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        gs=st.sampled_from([1, 2, 3, 4]),
        mult=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_fuzz_ring_matches_serial(self, gs, mult, seed):
        """Fuzz over (gs x S x payload): forward equivalence to 1e-12."""
        rng = np.random.default_rng(seed)
        b, s, h, nh = 1, gs * mult * 2, 8, 2
        qd, kd, vd = (rng.standard_normal((b, s, h)) for _ in range(3))
        ref = causal_attention(_fused(qd, kd, vd), nh)
        _, _, full = _ring_outputs(qd, kd, vd, nh, gs)
        np.testing.assert_allclose(full, ref.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gs", [1, 2, 4])
    def test_bitwise_for_exact_payloads(self, gs):
        """With q = 0 (uniform softmax over the causal prefix) and a v
        that is one-hot in sequence with power-of-two payloads, every
        intermediate of both paths is exact except the final division —
        and multiplication by a power of two commutes with rounding, so
        serial and ring outputs must agree *bitwise*."""
        rng = np.random.default_rng(7)
        b, s, h, nh = 2, 8, 8, 2
        qd = np.zeros((b, s, h))
        kd = rng.standard_normal((b, s, h))
        vd = np.zeros((b, s, h))
        vd[:, 0, :] = 2.0 ** rng.integers(-3, 4, size=(b, h))

        ref = causal_attention(_fused(qd, kd, vd), nh)
        _, _, full = _ring_outputs(qd, kd, vd, nh, gs)
        assert full.tobytes() == ref.data.tobytes()

    def test_gs1_ring_issues_one_traced_self_transfer(self):
        """The degenerate ring keeps the uniform compute-then-rotate
        schedule: one self-transfer send/recv pair on the lone rank."""
        rng = np.random.default_rng(0)
        qd, kd, vd = (rng.standard_normal((1, 6, 8)) for _ in range(3))
        tracer = CommTracer()
        _, _, _ = _ring_outputs(qd, kd, vd, 2, 1, tracer=tracer)
        ring = [r for r in tracer.records if r.tag == RING_KV_TAG]
        assert len(ring) == 1
        assert ring[0].group.ranks == (0,)
        ops = [e.op for e in tracer.events if e.tag == RING_KV_TAG]
        assert ops == ["send", "recv"]
        assert validate_schedule(tracer) == []

    def test_shard_validation_errors(self):
        group = ProcessGroup((0, 1))
        t = Tensor(np.zeros((1, 2, 4)))
        with pytest.raises(ValueError):
            ring_causal_attention([t], [t, t], [t, t], 2, group)


# (Gx, Gy, Gz, Gdata, Gseq) cases exercising the sequence axis against
# every other axis it composes with.
SP_GRID_CASES = [
    (1, 1, 1, 1, 2),
    (2, 1, 1, 1, 2),
    (1, 2, 1, 1, 2),
    (1, 1, 2, 1, 2),
    (1, 1, 1, 2, 2),
    (2, 2, 1, 1, 3),
    (1, 1, 1, 1, 6),
    (2, 1, 2, 1, 3),
]


class TestSequenceParallelGPT:
    """The 5D-parallel model trains identically to the serial GPT."""

    @pytest.mark.parametrize("dims", SP_GRID_CASES)
    def test_loss_and_grads_match_serial(self, dims):
        gx, gy, gz, gd, gs = dims
        cfg = tiny_config()
        serial = GPT(cfg, seed=3)
        tracer = CommTracer()
        grid = Grid4D(GridConfig(*dims), tracer=tracer)
        par = ParallelGPT.from_serial(serial, grid)
        ids = batch_for(cfg, b=2 * gz * gd, s=6, seed=2)

        sl = serial.loss(ids)
        sl.backward()
        pl = par.loss(ids)
        pl.backward()

        assert pl.item() == pytest.approx(sl.item(), rel=1e-10)
        np.testing.assert_allclose(
            par.wte.weight.grad, serial.wte.weight.grad, rtol=1e-8, atol=1e-10
        )
        # The ring is fully traced: one fused K+V hop per ring member per
        # step per layer per sequence ring, and the schedule is clean.
        ring = [r for r in tracer.records if r.tag == RING_KV_TAG]
        assert len(ring) == cfg.num_layers * gx * gy * gz * gd * gs * gs
        assert validate_schedule(tracer) == []

    def test_seq_len_divisibility_enforced(self):
        cfg = tiny_config()
        grid = Grid4D(GridConfig(1, 1, 1, 1, 2))
        par = ParallelGPT(grid, cfg, seed=0)
        with pytest.raises(ValueError):
            par.loss(batch_for(cfg, b=2, s=5))


class TestMaskFillBugfix:
    """Satellite (a): -inf mask fill, not a finite 'very negative' one."""

    def test_float32_extreme_activations_preserve_causality(self):
        """S=2048 float32 regression: q/k at magnitude 1e17 push the
        legitimate scores to ~-2.8e34 — *below* the old -1e30 fill, which
        therefore handed the softmax mass to future positions.  Taking
        the row max over the visible scores only (what a -inf fill gives)
        keeps position 0 attending only to itself, with finite loss and
        gradients."""
        s, h, nh = 2048, 8, 1
        qd = np.full((1, s, h), -1e17, dtype=np.float32)
        kd = np.full((1, s, h), 1e17, dtype=np.float32)
        rng = np.random.default_rng(0)
        vd = rng.standard_normal((1, s, h)).astype(np.float32)
        qkv = _fused(qd, kd, vd, requires_grad=True)

        out = causal_attention(qkv, nh)
        assert np.isfinite(out.data).all()
        # All visible scores are equal, so row i is the mean of v[:i+1];
        # row 0 in particular is exactly v's first position.
        np.testing.assert_allclose(out.data[:, 0, :], vd[:, 0, :], rtol=1e-5)

        loss = out.sum()
        loss.backward()
        assert np.isfinite(loss.item())
        assert qkv.grad.dtype == np.float32
        assert np.isfinite(qkv.grad).all()

    def test_old_finite_fill_violates_causality_here(self):
        """The pre-fix failure mode, reproduced arithmetically: with the
        -1e30 fill the *masked* entries win the row max and position 0's
        output becomes a mean over its future."""
        s, h = 2048, 8
        qd = np.full((1, s, h), -1e17, dtype=np.float32)
        kd = np.full((1, s, h), 1e17, dtype=np.float32)
        vd = np.random.default_rng(0).standard_normal((1, s, h)).astype(
            np.float32
        )
        scores = (qd[:, None] @ kd[:, None].transpose(0, 1, 3, 2)) * (
            1.0 / np.sqrt(h)
        )
        assert np.isfinite(scores).all() and scores.max() < -1e30
        bad = np.where(causal_mask(s), scores, np.float32(-1e30))
        e = np.exp(bad - bad.max(axis=-1, keepdims=True))
        att = e / e.sum(axis=-1, keepdims=True)
        old_out = (att @ vd[:, None]).reshape(1, s, h)
        assert not np.allclose(old_out[:, 0, :], vd[:, 0, :], atol=1e-3)

    def test_inf_fill_bitwise_matches_finite_fill_for_normal_inputs(self):
        """For in-distribution scores the change is invisible: with the
        max-subtracted softmax, exp(-1e30 - m) underflows to exactly 0.0,
        the same value exp(-inf - m) produces — so no golden churn."""
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((2, 3, 6, 6))
        mask = causal_mask(6)
        new = F.softmax(F.where_mask(Tensor(scores), mask, -np.inf), axis=-1)
        old = F.softmax(F.where_mask(Tensor(scores), mask, -1e30), axis=-1)
        assert new.data.tobytes() == old.data.tobytes()


class TestMaskCache:
    """Satellite (b): memoized causal masks, built once per shape."""

    def test_cache_returns_same_readonly_array(self):
        m = causal_mask(7)
        assert m is causal_mask(7)
        assert m.dtype == bool and m.shape == (7, 7)
        assert not m.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            m[0, 0] = False

    def test_repeated_attention_builds_each_shape_once(self, monkeypatch):
        calls = []
        real_tril = np.tril

        def counting_tril(*args, **kw):
            calls.append(args)
            return real_tril(*args, **kw)

        transformer_mod._MASK_CACHE.clear()
        monkeypatch.setattr(np, "tril", counting_tril)
        rng = np.random.default_rng(0)
        for _ in range(4):
            causal_attention(Tensor(rng.standard_normal((1, 6, 24))), 2)
        assert len(calls) == 1  # one build serves every call at this S


class TestRingScheduleVisibility:
    """Satellite (d): the validator and perfmodel see the ring."""

    def test_traced_ring_bytes_match_seq_ring_volumes(self):
        """Analytic seq_ring volume == the bytes the tracer records."""
        cfg = tiny_config()
        tracer = CommTracer()
        grid = Grid4D(GridConfig(2, 1, 1, 1, 2), tracer=tracer)
        par = ParallelGPT(grid, cfg, seed=0)
        par.loss(batch_for(cfg, b=2, s=6, seed=1))
        got = float(
            sum(r.bytes_per_rank for r in tracer.records if r.tag == RING_KV_TAG)
        )
        vol = seq_ring_volumes(
            cfg.scaled(seq_len=6), batch_per_replica=2, config=grid.config,
            dtype_bytes=8,
        )
        assert vol.seq_ring > 0
        assert got == vol.seq_ring

    def test_dropped_ring_message_hangs_and_is_flagged(self):
        """A dropped KV rotation raises the timeout the real runtime
        would hit, and the surviving trace carries exactly the
        unmatched-send footprint the validator reports."""
        cfg = tiny_config(num_layers=1)
        tracer = CommTracer()
        grid = Grid4D(GridConfig(1, 1, 1, 1, 2), tracer=tracer)
        par = ParallelGPT(grid, cfg, seed=0)
        ring_ranks = grid.group_along("seq", 0).ranks
        plan = FaultPlan(
            (
                FaultSpec(
                    kind="drop_p2p",
                    src=ring_ranks[0],
                    dst=ring_ranks[1],
                    match=0,
                ),
            )
        )
        with fault_scope(FaultInjector(plan)):
            with pytest.raises(CommTimeoutError):
                par.loss(batch_for(cfg, b=2, s=6, seed=1))
        violations = validate_schedule(tracer)
        assert any(v.check == "p2p" for v in violations)

    def test_desynced_ring_recv_is_flagged(self):
        """Deleting one ring recv from an otherwise clean schedule (a
        rank that desynced mid-rotation) is caught by the validator."""
        cfg = tiny_config(num_layers=1)
        tracer = CommTracer()
        grid = Grid4D(GridConfig(1, 1, 1, 1, 2), tracer=tracer)
        par = ParallelGPT(grid, cfg, seed=0)
        par.loss(batch_for(cfg, b=2, s=6, seed=1))
        assert validate_schedule(tracer) == []
        events = list(tracer.events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.tag == RING_KV_TAG and e.op == "recv"
        )
        del events[idx]
        violations = validate_schedule(events)
        assert any(v.check == "p2p" for v in violations)


class TestPlannerCrossover:
    """Satellite/tentpole acceptance: perfmodel and simulator agree on
    the SP-vs-plain-TP crossover at the sweep endpoints, and the
    autotuner exploits the new axis."""

    NUM_GPUS = 32
    BATCH = 8

    def _best_by_class(self, cfg, machine):
        ranked = rank_configurations(
            cfg, self.BATCH, self.NUM_GPUS, machine, max_gs=8
        )
        plain = [r for r in ranked if r.config.gs == 1]
        sp = [r for r in ranked if r.config.gs > 1]
        return plain, sp

    @pytest.mark.parametrize("machine_name", ["perlmutter", "frontier"])
    def test_short_context_both_prefer_plain_tp(self, machine_name):
        machine = get_machine(machine_name)
        cfg = get_model("GPT-5B").scaled(seq_len=2048, name="GPT-5B-2k")
        plain, sp = self._best_by_class(cfg, machine)
        assert plain and sp
        assert plain[0].predicted_time < sp[0].predicted_time
        t_plain = simulate_iteration(
            cfg, self.BATCH, plain[0].config, machine, timing_only=True
        ).total_time
        t_sp = simulate_iteration(
            cfg, self.BATCH, sp[0].config, machine, timing_only=True
        ).total_time
        assert t_plain < t_sp

    def test_long_context_both_prefer_sp_on_perlmutter(self):
        machine = get_machine("perlmutter")
        cfg = get_model("GPT-5B").scaled(seq_len=65536, name="GPT-5B-64k")
        plain, sp = self._best_by_class(cfg, machine)
        assert plain and sp
        assert sp[0].predicted_time < plain[0].predicted_time
        t_plain = simulate_iteration(
            cfg, self.BATCH, plain[0].config, machine, timing_only=True
        ).total_time
        t_sp = simulate_iteration(
            cfg, self.BATCH, sp[0].config, machine, timing_only=True
        ).total_time
        assert t_sp < t_plain

    @pytest.mark.parametrize("machine_name", ["perlmutter", "frontier"])
    def test_128k_context_only_sp_is_feasible(self, machine_name):
        """At 128k both planning layers agree for the strongest possible
        reason: the shared memory model rules out every classic 4D grid
        (the full (S, S) score block does not fit), while ring attention
        — whose live score block shrinks by gs^2 — still runs."""
        machine = get_machine(machine_name)
        cfg = get_model("GPT-5B").scaled(seq_len=131072, name="GPT-5B-128k")
        plain, sp = self._best_by_class(cfg, machine)
        assert not plain
        assert sp
        t_sp = simulate_iteration(
            cfg, self.BATCH, sp[0].config, machine, timing_only=True
        ).total_time
        assert np.isfinite(t_sp) and t_sp > 0

    def test_autotuner_reaches_for_sequence_parallelism(self):
        """16 devices at 64k: no classic grid fits, so the classic
        search space reports infeasibility — and opening ``max_gs``
        produces a gs > 1 winner with a five-axis grid in its report."""
        cfg = get_model("GPT-5B").scaled(seq_len=65536, name="GPT-5B-64k")
        request = PlanRequest(
            model=cfg, num_gpus=16, machine="perlmutter", global_batch=8,
            top_k=2,
        )
        cheap = dict(
            prune_k=4,
            validate_k=2,
            overlap_flags=(OverlapFlags.all(),),
            kernel_tuning=(True,),
            collective_algos=("flat",),
        )
        with pytest.raises(NoFeasibleConfigError):
            autotune(request, SearchSpace(**cheap))
        report = autotune(request, SearchSpace(max_gs=8, **cheap))
        win = report.winner
        assert win.config.gs > 1
        assert len(win.to_json()["grid"]) == 5
        assert win.config.total == 16
        assert win.simulated_time > 0
