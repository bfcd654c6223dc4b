"""The six fixed-work workloads of the benchmark spine.

Every workload is built once per process (fixture, inputs and the fixed
warm-up ops: that is ``setup_s``), then runs a *fixed* number of ops — a
pure function of ``--seconds`` — so every count repeats exactly and a
faster program shows as less wall time, never as a different schedule.
An op is one optimizer step, one scheduling round, or one ``autotune``
call.  Everything here drives public functions of ``repro`` from the
outside; nothing under ``src/`` knows it is being measured.

``--seed`` draws token ids (training batches, request prompts) and the
planner's jitter salt.  Shapes, arrival rounds, prompt lengths and
decode budgets are fixed by the workload, so load per round is the same
on every seed, commit and machine.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.autotune import PlanRequest, autotune
from repro.config import GPTConfig
from repro.core import (
    Grid4D,
    GridConfig,
    ParallelGPT,
    load_training_state,
    save_training_state,
)
from repro.nn import GPT, AdamW, MixedPrecisionTrainer, generate_greedy
from repro.perfmodel import gpt_forward_backward_volumes
from repro.runtime import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.serving import (
    BatchingConfig,
    Request,
    ResilientTPEngine,
    ServingEngine,
    bursty_trace,
    poisson_trace,
)
from repro.telemetry import telemetry_scope

from attribution import span_mean_ms

#: ``--seconds`` at which the op counts below apply unscaled (18-25 s of
#: timed work per workload on the reference 2-core box).
FULL_SECONDS = 20.0
VOCAB = 512
BATCH, SEQ = 8, 64
#: Tokens that carry a loss in one optimizer step (the last position of
#: each row has no target).
TOKENS_PER_STEP = BATCH * (SEQ - 1)
#: ``save_training_state`` runs inside every 10th train_grid16 op,
#: counted back from the last op so that any run holds at least one.
CHECKPOINT_EVERY = 10
clock = time.perf_counter


def model_config(seq_len: int) -> GPTConfig:
    """The shared fixture: 4 layers, h=128, 8 heads, vocab 512, fp64."""
    return GPTConfig(
        name="bench",
        num_layers=4,
        hidden_size=128,
        num_heads=8,
        seq_len=seq_len,
        vocab_size=VOCAB,
    )


def scaled(full: int, seconds: float) -> int:
    """The op count ``--seconds`` asks for."""
    return max(1, math.ceil(full * seconds / FULL_SECONDS - 1e-9))


@dataclass
class Run:
    """What one timed loop did."""

    op_s: list[float]  # wall seconds per op
    wall_s: float  # wall seconds of the whole loop
    work: float  # trained tokens, generated tokens, or plans
    failures: list[str] = field(default_factory=list)
    #: Exact counts: they repeat on every run of the same code.
    facts: dict = field(default_factory=dict)
    #: What the checks compare; ``values`` are the program's outputs
    #: (losses, generated tokens, winning grids), which follow the seed.
    outputs: dict = field(default_factory=dict)


class _NoSpans:
    """Stands in for the tracer in the traced pass's baseline run: the
    same driver code, with spans that record nothing, so that the tracer
    is the only difference between the two runs."""

    @staticmethod
    def span(name, cat=None):
        return nullcontext()


NO_SPANS = _NoSpans()


def _span(tracer, name):
    return tracer.span(name, cat="bench")


def _measuring(tracer, profiler):
    """Context of a timed loop: the profiler on, or the tracer ambient."""
    if profiler is not None:
        return profiler  # cProfile.Profile enables on enter, disables on exit
    if tracer is None or tracer is NO_SPANS:
        return nullcontext()
    return telemetry_scope(tracer)


def _part(n: int, fraction: float) -> int:
    """How many of ``n`` ops a traced or profiled sub-run takes."""
    return max(1, math.ceil(n * fraction - 1e-9))


# -- training -----------------------------------------------------------------


class Train:
    """``MixedPrecisionTrainer(...).step(ids)`` on the serial model or on
    a 16-rank ``ParallelGPT`` built from it."""

    def __init__(self, name, grid_dims, full_ops, warm_ops, *, seed, seconds, smoke, out):
        self.cfg = model_config(SEQ)
        self.model = GPT(self.cfg, seed=0)
        self.grid = grid_dims
        if grid_dims:
            self.model = ParallelGPT.from_serial(
                self.model, Grid4D(GridConfig(*grid_dims))
            )
        self.opt = AdamW(self.model.parameters())
        self.trainer = MixedPrecisionTrainer(self.model, self.opt, bf16=False)
        self.n = scaled(full_ops, seconds)
        warm = max(2, warm_ops // 4) if smoke else warm_ops
        self.seed = seed
        batches = np.random.default_rng(seed).integers(
            0, VOCAB, (warm + self.n, BATCH, SEQ)
        )
        self.batches = batches[warm:]
        self.ckpt = Path(out) / f"{name}.ckpt.npz"
        self.snapshot = None
        self.warm_losses = [self.trainer.step(ids) for ids in batches[:warm]]

    def mark(self) -> None:
        """Let later runs restart from the post-warm-up state."""
        self.snapshot = self.ckpt.with_suffix(".mark.npz")
        save_training_state(self.model, self.opt, self.snapshot)

    def _step_split(self, ids, tracer) -> float:
        # What trainer.step does at accumulation_steps=1, split at the
        # layer boundaries (minus its scan of the gradients for NaNs).
        # Both runs of the traced pass go through here.
        with _span(tracer, "bench.forward"):
            loss = self.model.loss(ids)
        with _span(tracer, "bench.backward"):
            loss.backward(np.asarray(1.0))
        with _span(tracer, "bench.optimizer"):
            self.opt.step()
            self.model.zero_grad()
        return loss.item()

    def _checkpoint(self, tracer) -> None:
        with _span(tracer, "bench.checkpoint") if tracer else nullcontext():
            save_training_state(self.model, self.opt, self.ckpt)

    def run(self, fraction=1.0, tracer=None, profiler=None) -> Run:
        if self.snapshot is not None:
            load_training_state(self.model, self.opt, self.snapshot)
        n = _part(self.n, fraction)
        op_s, losses, raised = [], [], {}
        with _measuring(tracer, profiler):
            t_loop = clock()
            for i in range(n):
                ids = self.batches[i]
                t = clock()
                try:
                    if tracer is None:
                        loss = self.trainer.step(ids)
                    else:
                        loss = self._step_split(ids, tracer)
                    if self.grid and (n - 1 - i) % CHECKPOINT_EVERY == 0:
                        self._checkpoint(tracer)
                except Exception as exc:  # a raised op is a failed op
                    loss = math.nan
                    raised[i] = repr(exc)
                op_s.append(clock() - t)
                losses.append(loss)
            wall = clock() - t_loop
        failures = [
            f"step {i}: {raised.get(i, f'loss {x}')}"
            for i, x in enumerate(losses) if not math.isfinite(x)
        ]
        return Run(
            op_s, wall, TOKENS_PER_STEP * n, failures,
            {"steps": n}, {"values": losses},
        )

    def check(self, run: Run) -> list[str]:
        bad = []
        first = self.warm_losses[0]
        if abs(first / math.log(VOCAB) - 1.0) > 0.05:
            bad.append(f"step-0 loss {first} not within 5% of ln {VOCAB}")
        if not all(math.isfinite(x) for x in self.warm_losses):
            bad.append("non-finite warm-up loss")
        if self.grid:
            # Same model, data and seed on one worker: the first five
            # steps from initialization must agree.
            ref = Train(
                "reference", None, 1, 5, seed=self.seed,
                seconds=FULL_SECONDS, smoke=False, out=self.ckpt.parent,
            ).warm_losses
            got = self.warm_losses[:5]
            if not np.allclose(got, ref[: len(got)], rtol=0.0, atol=1e-9):
                bad.append(f"parallel losses {got} != serial {ref}")
        return bad

    def layer_metrics(self, base: Run, traced: Run, tracer) -> dict:
        if traced.outputs["values"] != base.outputs["values"]:
            traced.failures.append("traced losses differ from untraced")
        forward, backward = (
            ("core.forward_ms", "core.backward_ms") if self.grid
            else ("nn.forward_ms", "tensor.backward_ms")
        )
        mean_ms = span_mean_ms(tracer)
        out = {
            forward: (mean_ms["bench.forward"], "ms"),
            backward: (mean_ms["bench.backward"], "ms"),
            "nn.optimizer_ms": (mean_ms["bench.optimizer"], "ms"),
        }
        if self.grid:
            out["core.checkpoint_ms"] = (mean_ms["bench.checkpoint"], "ms")
            out["core.checkpoint_bytes"] = (self.ckpt.stat().st_size, "bytes")
            # Backward issues no collectives, so a step's traced bytes
            # are one forward's: they must equal the analytic volumes.
            c = self.model.grid.config
            vol = gpt_forward_backward_volumes(
                self.cfg, BATCH // c.gdata, c, dtype_bytes=8, seq_len=SEQ - 1
            )
            val = tracer.metrics.value
            got = (
                val("comm.tag_bytes.linear.AG_z"),
                val("comm.tag_bytes.linear.AR_x") + val("comm.tag_bytes.linear.AR_y"),
            )
            want = tuple(
                traced.facts["steps"] * c.gdata * v for v in (vol.ag_z, vol.ar_fwd)
            )
            if not np.allclose(got, want, rtol=1e-9):
                traced.failures.append(
                    f"traced linear.AG_z/AR bytes {got} != analytic {want}"
                )
        return out


# -- serving ------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    trace: object  # poisson_trace | bursty_trace
    rate: float  # arrivals per scheduling round
    full_requests: int
    warm_requests: int
    prompt_lens: tuple[int, int]
    max_new_tokens: tuple[int, int]
    batching: BatchingConfig
    chaos: bool = False


#: serve_tp_chaos: rank 3 dies at this round of the full-size run.
KILL_ROUND, KILL_REQUESTS = 700, 640


class _Observer:
    """Per-request and per-round bookkeeping of the traced pass; all of
    it runs outside the timed part of a round."""

    def __init__(self, tracer, num_blocks):
        self.tracer = tracer
        self.num_blocks = num_blocks
        self.submit_s: list[float] = []
        self.submitted_at: dict[int, tuple[float, int]] = {}
        self.ttft_s: list[float] = []
        self.queue_rounds: list[int] = []
        self.prefill_s: list[float] = []
        self.decode_s: list[float] = []
        self.blocks_peak = 0

    def submit(self, engine, request) -> None:
        t = clock()
        with _span(self.tracer, "bench.submit"):
            engine.submit(request)
        now = clock()
        self.submit_s.append(now - t)
        self.submitted_at[request.request_id] = (t, engine.step_count)

    def after_round(self, engine, done, dt, now) -> None:
        # A prefill round is one in which the set of running request ids
        # gained a member (a short request may also finish in it).
        present = [r.request.request_id for r in engine.running]
        present += [f.request.request_id for f in done]
        admitted = [rid for rid in present if rid in self.submitted_at]
        for rid in admitted:
            t_submit, at_round = self.submitted_at.pop(rid)
            self.ttft_s.append(now - t_submit)
            self.queue_rounds.append(engine.step_count - at_round - 1)
        (self.prefill_s if admitted else self.decode_s).append(dt)
        free = (
            engine.decoder.num_free_blocks
            if hasattr(engine, "decoder")
            else engine.kv.allocator.num_free
        )
        self.blocks_peak = max(self.blocks_peak, self.num_blocks - free)


def drive(engine, requests, observer=None, profiler=None) -> Run:
    """Serve a trace as a closed loop in scheduling rounds.

    This is ``engine.run()``'s loop re-implemented over the public
    ``submit()``/``step()`` so that each round can be timed: arrival
    times are in rounds, and a request becomes visible when the engine's
    virtual clock passes its arrival.
    """
    pending = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
    batcher = engine.batcher
    tracer = observer.tracer if observer is not None else None
    op_s, failures = [], []
    i, n = 0, len(pending)
    with _measuring(tracer, profiler):
        t_loop = clock()
        while i < n or batcher.num_waiting or engine.running or engine.preempted:
            while i < n and pending[i].arrival_time <= engine.time:
                if observer is None:
                    engine.submit(pending[i])
                else:
                    observer.submit(engine, pending[i])
                i += 1
            if not (batcher.num_waiting or engine.running or engine.preempted):
                if i >= n:
                    break
                engine.time = pending[i].arrival_time
                continue
            t = clock()
            try:
                if tracer is None:
                    done = engine.step()
                else:
                    with _span(tracer, "bench.round"):
                        done = engine.step()
            except Exception as exc:  # the engine's state is gone: stop
                op_s.append(clock() - t)
                failures.append(f"round {len(op_s)}: {exc!r}")
                break
            now = clock()
            op_s.append(now - t)
            if observer is not None:
                observer.after_round(engine, done, now - t, now)
            engine.time += 1.0
        wall = clock() - t_loop
    failures += [
        f"request {r.request.request_id} {r.cause}" for r in engine.rejected
    ]
    if len(engine.finished) + len(engine.rejected) != n:
        failures.append(
            f"{len(engine.finished)} finished + {len(engine.rejected)} "
            f"rejected != {n} submitted"
        )
    tokens = sum(f.num_tokens for f in engine.finished)
    facts = {
        "rounds": len(op_s),
        "tokens": tokens,
        "finished": len(engine.finished),
        "rejected": len(engine.rejected),
    }
    outputs = {
        "order": [f.request.request_id for f in engine.finished],
        "values": [int(t) for f in engine.finished for t in f.tokens],
    }
    return Run(op_s, wall, tokens, failures, facts, outputs)


class Serve:
    """A continuous-batching engine serving a fixed arrival schedule."""

    def __init__(self, spec: ServeSpec, *, seed, seconds, smoke, out=None):
        self.spec = spec
        self.seed = seed
        self.model = GPT(model_config(256), seed=0)
        self.n = scaled(spec.full_requests, seconds)
        warm = max(8, spec.warm_requests // 4) if smoke else spec.warm_requests
        # Warm-up: another trace, a throwaway engine, no faults.
        drive(self.engine(), self.trace(warm, seed + 1))

    def trace(self, n: int, seed: int) -> list[Request]:
        """The workload's fixed schedule with prompts drawn from ``seed``."""
        s = self.spec
        rng = np.random.default_rng(seed)
        return [
            Request(
                r.request_id,
                rng.integers(0, VOCAB, r.prompt_len),
                r.max_new_tokens,
                r.arrival_time,
            )
            for r in s.trace(
                s.rate, n, seed=0, vocab_size=VOCAB,
                prompt_lens=s.prompt_lens, max_new_tokens=s.max_new_tokens,
            )
        ]

    @staticmethod
    def kill_round(n: int) -> int:
        return max(2, round(KILL_ROUND * n / KILL_REQUESTS))

    def engine(self, faults_for: int | None = None):
        """A fresh engine; on serve_tp_chaos, under the fault plan of a
        run of ``faults_for`` requests (``None``: no faults)."""
        s = self.spec
        if not s.chaos:
            return ServingEngine(self.model, s.batching)
        injector = None
        if faults_for is not None:
            n = faults_for
            faults = [FaultSpec(kind="kill", rank=3, step=self.kill_round(n))]
            # Every 500th all-reduce completes 1.5 virtual s late (the
            # retry budget absorbs it); every 2000th never does (the
            # forward is re-issued).  A forward makes 8 all-reduces; the
            # bound covers one per round, per request and per replay.
            for k in range(1, int(8 * (n / s.rate + 3 * n)) // 500 + 1):
                faults.append(
                    FaultSpec(
                        kind="delay_wait", op="all_reduce", match=500 * k - 1,
                        delay=1e9 if k % 4 == 0 else 1.5,
                    )
                )
            injector = FaultInjector(
                FaultPlan(faults=tuple(faults)),
                retry=RetryPolicy(timeout=2.0, max_retries=2),
            )
        return ResilientTPEngine(
            self.model, Grid4D(GridConfig(4, 1, 1, 1)), s.batching,
            injector=injector,
        )

    def mark(self) -> None:
        pass  # every run builds a fresh engine

    def run(self, fraction=1.0, tracer=None, profiler=None) -> Run:
        n = _part(self.n, fraction)
        requests = self.trace(n, self.seed)
        engine = self.engine(faults_for=n)
        observer = (
            _Observer(tracer, self.spec.batching.num_blocks)
            if tracer is not None else None
        )
        run = drive(engine, requests, observer, profiler)
        run.outputs.update(observer=observer, engine=engine, requests=requests)
        if self.spec.chaos:
            rep = engine.report()
            run.facts.update(
                preemptions=rep.preemptions,
                recompute_tokens=rep.recompute_tokens,
                rank_failures=rep.rank_failures,
                step_timeouts=rep.step_timeouts,
                shrink_history=[list(h) for h in rep.shrink_history],
            )
        else:
            run.facts["preemptions"] = sum(
                f.preemptions for f in engine.finished
            )
        return run

    def check(self, run: Run) -> list[str]:
        bad = []
        finished = run.outputs["engine"].finished
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(finished), min(16, len(finished)), replace=False)
        for j in sorted(picks):
            fin = finished[j]
            ref = generate_greedy(
                self.model, fin.request.prompt, fin.request.max_new_tokens
            )
            if not np.array_equal(fin.tokens, ref):
                bad.append(
                    f"request {fin.request.request_id}: tokens differ from "
                    "a lone generate_greedy"
                )
        head = run.outputs["requests"][:32]
        ours = drive(self.engine(), head).outputs["order"]
        theirs = [f.request.request_id for f in self.engine().run(head)]
        if ours != theirs:
            bad.append(f"finish order {ours} != engine.run()'s {theirs}")
        if self.spec.chaos:
            want = [[self.kill_round(len(run.outputs["requests"])), 4, 2]]
            if run.facts["rank_failures"] != 1 or run.facts["shrink_history"] != want:
                bad.append(
                    f"expected one rank failure and shrinks {want}; got "
                    f"{run.facts['rank_failures']} and "
                    f"{run.facts['shrink_history']}"
                )
        return bad

    def layer_metrics(self, base: Run, traced: Run, tracer) -> dict:
        same = all(
            traced.outputs[k] == base.outputs[k] for k in ("order", "values"))
        if traced.facts != base.facts or not same:
            traced.failures.append("traced schedule or tokens differ from untraced")
        obs = traced.outputs["observer"]
        val = tracer.metrics.value
        pre = "serve.tp." if self.spec.chaos else "serve."
        ms = lambda xs, q=None: (  # noqa: E731
            0.0 if not xs else 1e3 * float(
                np.mean(xs) if q is None else np.percentile(xs, q))
        )
        facts = traced.facts
        return {
            "serving.submit_ms": (ms(obs.submit_s), "ms"),
            "serving.round_prefill_ms": (ms(obs.prefill_s), "ms"),
            "serving.round_decode_ms": (ms(obs.decode_s), "ms"),
            "serving.ttft_ms_p50": (ms(obs.ttft_s, 50), "ms"),
            "serving.ttft_ms_p90": (ms(obs.ttft_s, 90), "ms"),
            "serving.queue_rounds_p50": (
                float(np.median(obs.queue_rounds)), "count"),
            "serving.batch_mean": (
                val(pre + "decode_tokens") / max(val(pre + "decode_steps"), 1),
                "count"),
            "serving.kv_blocks_peak": (obs.blocks_peak, "count"),
            "serving.preemptions": (facts["preemptions"], "count"),
            "serving.recompute_tokens": (
                facts.get("recompute_tokens", val("serve.recompute_tokens")),
                "count"),
            "serving.rank_failures": (facts.get("rank_failures", 0), "count"),
            "serving.step_timeouts": (facts.get("step_timeouts", 0), "count"),
            "serving.rejected": (facts["rejected"], "count"),
        }


# -- planning -----------------------------------------------------------------

MACHINES = ("perlmutter", "frontier", "alps")
PLAN_JOBS = (("GPT-5B", 512), ("GPT-10B", 1024), ("GPT-20B", 2048), ("GPT-40B", 4096))
PLAN_WARM = (("GPT-5B", 256), ("GPT-10B", 512))


class Plan:
    """``autotune(PlanRequest(...))`` over the default ``SearchSpace`` at
    the paper's model and machine sizes."""

    def __init__(self, *, seed, seconds, smoke, out=None):
        jobs = []
        for salt in (seed, seed + 1):
            jobs += [(m, g, mach, salt) for mach in MACHINES for m, g in PLAN_JOBS]
            jobs.append(("GPT-80B", 8192, "frontier", salt))
        self.jobs = jobs[: scaled(len(jobs), seconds)]
        # Fills the per-machine tuner and algorithm-choice caches, so the
        # cold cost lands in setup_s.
        warm = PLAN_WARM[:1] if smoke else PLAN_WARM
        for mach in MACHINES:
            for m, g in warm:
                autotune(PlanRequest(m, g, mach, seed=seed))

    def mark(self) -> None:
        pass  # the caches stay warm; there is no other state

    def run(self, fraction=1.0, tracer=None, profiler=None) -> Run:
        jobs = self.jobs[: _part(len(self.jobs), fraction)]
        op_s, reports, failures = [], [], []
        with _measuring(tracer, profiler):
            t_loop = clock()
            for i, (model, gpus, machine, salt) in enumerate(jobs):
                t = clock()
                try:
                    request = PlanRequest(model, gpus, machine, seed=salt)
                    with _span(tracer, "bench.autotune") if tracer else nullcontext():
                        reports.append(autotune(request))
                except Exception as exc:
                    reports.append(None)
                    failures.append(f"plan {i} {model}x{gpus}@{machine}: {exc!r}")
                op_s.append(clock() - t)
            wall = clock() - t_loop
        done = [r for r in reports if r is not None]
        for r in done:
            if not r.winner.simulated_time <= r.rank1_sim_time:
                failures.append(
                    f"{r.winner.model}x{r.winner.num_gpus}: winner slower "
                    "than the analytic rank-1 grid"
                )
        facts = {
            "plans": len(done),
            "winners": [list(r.winner.config.full_dims) for r in done],
            "simulations": sum(r.num_simulations for r in done),
            "enumerated": sum(r.num_enumerated for r in done),
        }
        outputs = {"values": facts["winners"], "first": (jobs[0], reports[0])}
        return Run(op_s, wall, len(done), failures, facts, outputs)

    def check(self, run: Run) -> list[str]:
        (model, gpus, machine, salt), first = run.outputs["first"]
        again = autotune(PlanRequest(model, gpus, machine, seed=salt))
        if first is None or again.winner != first.winner:
            return [f"re-run of {model}x{gpus}@{machine} picked another winner"]
        return []

    def layer_metrics(self, base: Run, traced: Run, tracer) -> dict:
        if traced.facts != base.facts:
            traced.failures.append("traced plans differ from untraced")
        facts = traced.facts
        return {
            "autotune.sims_per_s": (facts["simulations"] / traced.wall_s, "1/s"),
            "autotune.enumerated_per_plan": (
                facts["enumerated"] / max(facts["plans"], 1), "count"),
        }


# -- registry -----------------------------------------------------------------

_DECODE = ServeSpec(
    poisson_trace, 0.25, 768, 128, (4, 12), (32, 64),
    BatchingConfig(max_batch=16, block_size=16, num_blocks=256),
)
_PREFILL = ServeSpec(
    poisson_trace, 0.5, 512, 80, (96, 192), (2, 4),
    BatchingConfig(max_batch=8, block_size=16, num_blocks=256),
)
# 26 blocks x 16 slots hold fewer tokens than 8 sequences of up to 80,
# so optimistic admission has to preempt now and then.
_CHAOS = ServeSpec(
    bursty_trace, 0.3, KILL_REQUESTS, 112, (8, 48), (8, 32),
    BatchingConfig(max_batch=8, block_size=16, num_blocks=26),
    chaos=True,
)

#: name -> (the layers on its path, constructor).  Why each workload
#: exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "train_serial": (
        ("tensor", "nn"),
        lambda **kw: Train("train_serial", None, 96, 16, **kw),
    ),
    "train_grid16": (
        ("tensor", "nn", "runtime", "core"),
        lambda **kw: Train("train_grid16", (2, 2, 2, 2), 40, 8, **kw),
    ),
    "serve_decode": (("tensor", "nn", "serving"), lambda **kw: Serve(_DECODE, **kw)),
    "serve_prefill": (("tensor", "nn", "serving"), lambda **kw: Serve(_PREFILL, **kw)),
    "serve_tp_chaos": (
        ("tensor", "nn", "runtime", "serving"),
        lambda **kw: Serve(_CHAOS, **kw),
    ),
    "plan_paper_scale": (
        ("simulate", "perfmodel", "kernels", "autotune"),
        lambda **kw: Plan(**kw),
    ),
}
