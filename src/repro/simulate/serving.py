"""Analytic serving-workload model: the serving loop on modeled time.

The real :class:`repro.serving.engine.ServingEngine` moves float64s; this
module moves virtual time through the *same object* — the one
:class:`repro.serving.loop.ServingLoop` (admission, typed rejections,
preempt-youngest / resume-oldest, the round semantics in its module
docstring) — over an :class:`AnalyticDecoder` that charges each forward
its analytic cost on a target machine:

* **prefill** is compute-bound: ``2 * params * prompt_len`` flops at the
  machine's empirical GEMM rate, divided over the tensor-parallel degree;
* **decode** is memory-bound at small batch: every step streams the full
  weight shard from HBM once (amortized over the whole batch — the
  economic argument for continuous batching) plus each sequence's KV
  history, and the compute term only takes over at large batch;
* **tensor-parallel collectives** are priced by the Section V-B model —
  two all-reduces per layer per step through the memoized
  :func:`repro.perfmodel.hierarchical.cached_choose_algorithm`, so the
  flat/hierarchical routing decision shows up in the serving frontier
  exactly as it does in training step times;
* **preemption restarts** are priced as one recompute prefill over the
  preempted context (see :class:`AnalyticDecoder`);
* **instance failures** arrive as a seeded exponential process at the
  MTBF-driven rate of :class:`repro.simulate.failures.FailureModel` —
  serving's version of the training goodput tax.

Sweeping offered load over a seeded arrival trace yields the
throughput/latency frontier (p50/p99 via the telemetry histogram's
bucket-interpolated quantiles) and SLO attainment; sweeping failure
rate x offered load (:func:`chaos_sweep`) yields the SLO-degradation
surface under faults — the serving analog of the training scaling and
goodput curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cluster.machine import MachineSpec
from ..cluster.topology import Placement
from ..config import GPTConfig
from ..core.grid import GridConfig, infeasibility_reason
from ..perfmodel.hierarchical import cached_choose_algorithm
from ..perfmodel.model import BF16_BYTES
from ..serving.arrivals import Request, poisson_trace
from ..serving.loop import ServingLoop, count
from ..serving.paged_kv import CacheOutOfBlocks
from ..serving.scheduler import BatchingConfig
from ..telemetry.metrics import Histogram
from ..telemetry.spans import get_tracer
from .failures import FailureModel

__all__ = [
    "AnalyticDecoder",
    "ServingModel",
    "ServingResult",
    "simulate_serving",
    "sweep_offered_load",
    "chaos_sweep",
]


@dataclass(frozen=True)
class ServingModel:
    """Analytic per-phase costs of one serving instance.

    ``tp`` devices cooperate on every forward (weights, KV, and the LM
    head split ``tp`` ways); ``dtype_bytes`` is the serving precision
    (bf16 by default, unlike the float64 the numerical engine uses to
    stay bitwise-checkable).
    """

    cfg: GPTConfig
    machine: MachineSpec
    tp: int = 1
    dtype_bytes: int = BF16_BYTES
    #: "flat", "hierarchical", or "auto" — mirrors GridConfig.
    collective_algo: str = "flat"

    def __post_init__(self) -> None:
        why = infeasibility_reason(self.cfg, GridConfig(self.tp, 1, 1, 1))
        if why is not None:
            raise ValueError(why)

    @property
    def weight_bytes(self) -> float:
        return self.cfg.num_parameters() * self.dtype_bytes

    def kv_bytes(self, tokens: int) -> float:
        """KV footprint of ``tokens`` cached positions (all layers, K+V)."""
        return 2 * self.cfg.num_layers * self.cfg.hidden_size * tokens * (
            self.dtype_bytes
        )

    def _ar_time(self, nbytes: float) -> float:
        """One tensor-parallel all-reduce of ``nbytes`` on this machine."""
        if self.tp == 1:
            return 0.0
        # Memoized: a trace asks about the same few message sizes (one
        # per live batch size and prompt length) thousands of times.
        choice = cached_choose_algorithm(
            "all_reduce",
            nbytes,
            range(self.tp),
            Placement(self.machine, self.tp),
        )
        if self.collective_algo == "flat":
            return choice.flat_time
        return min(choice.flat_time, choice.hier_time)

    def comm_time(self, new_tokens: int) -> float:
        """Per-step TP communication: two all-reduces per layer over the
        activations of every new token position."""
        nbytes = new_tokens * self.cfg.hidden_size * self.dtype_bytes
        return 2 * self.cfg.num_layers * self._ar_time(nbytes)

    def prefill_time(self, prompt_len: int) -> float:
        """One prompt's prefill: compute-bound GEMMs + TP collectives."""
        flops = 2.0 * self.cfg.num_parameters() * prompt_len
        t_compute = flops / (self.tp * self.machine.gpu.empirical_bf16_flops)
        return t_compute + self.comm_time(prompt_len)

    def decode_step_time(self, batch: int, context_tokens: int) -> float:
        """One continuous-batching decode step.

        ``batch`` sequences advance one token; ``context_tokens`` is
        their summed cached history.  The weight stream is paid once for
        the whole batch — the roofline reason batching decode is nearly
        free until the compute term catches up.
        """
        if batch < 1:
            raise ValueError("decode step needs at least one sequence")
        hbm = self.tp * self.machine.gpu.hbm_bw
        t_mem = (self.weight_bytes + self.kv_bytes(context_tokens)) / hbm
        flops = 2.0 * self.cfg.num_parameters() * batch
        t_compute = flops / (self.tp * self.machine.gpu.empirical_bf16_flops)
        return max(t_mem, t_compute) + self.comm_time(batch)

    def unloaded_latency(self, request: Request) -> float:
        """End-to-end latency of the request alone on an idle instance —
        the baseline the SLO slowdown multiplier is measured against."""
        ctx = request.prompt_len
        t = self.prefill_time(ctx)
        for _ in range(request.max_new_tokens - 1):
            t += self.decode_step_time(1, ctx)
            ctx += 1
        return t


@dataclass(frozen=True)
class ServingResult:
    """Summary of one simulated trace at one offered load."""

    offered_load: float
    num_requests: int
    generated_tokens: int
    #: Virtual seconds from first arrival to last completion.
    makespan: float
    tokens_per_s: float
    p50_ttft: float
    p99_ttft: float
    p50_e2e: float
    p99_e2e: float
    mean_e2e: float
    #: Fraction of requests with e2e <= slo_multiplier x unloaded latency.
    slo_attainment: float
    slo_multiplier: float
    mean_batch: float
    decode_steps: int
    #: Typed non-completions (never-fitting / over-capacity requests).
    rejected: int = 0
    #: Typed non-completions (bounded waiting queue full on arrival).
    shed: int = 0
    #: Typed non-completions (deadline / TTFT budget expired waiting).
    deadline_exceeded: int = 0
    #: KV-pressure + failure preemption events (recompute-restarted).
    preemptions: int = 0
    #: MTBF-driven instance failures absorbed during the trace.
    instance_failures: int = 0
    #: Tokens recomputed by preemption/failure restarts.
    recompute_tokens: int = 0

    @property
    def num_rejections(self) -> int:
        return self.rejected + self.shed + self.deadline_exceeded

    def to_dict(self) -> dict[str, float | int]:
        return {
            "offered_load_rps": self.offered_load,
            "num_requests": self.num_requests,
            "generated_tokens": self.generated_tokens,
            "makespan_s": self.makespan,
            "tokens_per_s": self.tokens_per_s,
            "p50_ttft_s": self.p50_ttft,
            "p99_ttft_s": self.p99_ttft,
            "p50_e2e_s": self.p50_e2e,
            "p99_e2e_s": self.p99_e2e,
            "mean_e2e_s": self.mean_e2e,
            "slo_attainment": self.slo_attainment,
            "slo_multiplier": self.slo_multiplier,
            "mean_batch": self.mean_batch,
            "decode_steps": self.decode_steps,
            "rejected": self.rejected,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "preemptions": self.preemptions,
            "instance_failures": self.instance_failures,
            "recompute_tokens": self.recompute_tokens,
        }


class AnalyticDecoder:
    """The decoder surface in integers and seconds.

    Blocks are a count and a forward is its :class:`ServingModel` cost
    added to ``clock``.  Logits are one wide, so every greedy token is 0
    and a request stops on its ``max_new_tokens`` budget.  A sequence
    added again after ``free_sequence`` (a recompute-restart) pays one
    prefill over all the context it had computed; the loop's step-by-
    step replay of that context is then free — the real engines replay
    for bitwise exactness, analytically the replay is a chunked forward.
    """

    def __init__(self, model: ServingModel, config: BatchingConfig) -> None:
        self.model = model
        self.config = config
        self.num_free_blocks = config.num_blocks
        #: Seconds of modeled work so far (plus whatever the clock's
        #: owner adds: idle jumps, restarts).
        self.clock = 0.0
        self._blocks: dict[int, int] = {}  # seq_id -> blocks held
        self._cached: dict[int, int] = {}  # seq_id -> tokens in cache
        #: seq_id -> leading tokens whose forward has been paid for.
        self._computed: dict[int, int] = {}

    def add_sequence(self, seq_id: int, reserve_tokens: int) -> None:
        self._blocks[seq_id] = self._cached[seq_id] = 0
        self.reserve(seq_id, reserve_tokens)

    def free_sequence(self, seq_id: int) -> None:
        self.num_free_blocks += self._blocks.pop(seq_id)
        self._computed[seq_id] = self._cached.pop(seq_id)

    def reserve(self, seq_id: int, num_new: int) -> None:
        need = self.config.blocks_for(self._cached[seq_id] + num_new) - (
            self._blocks[seq_id]
        )
        if need > self.num_free_blocks:
            raise CacheOutOfBlocks(
                f"requested {need} blocks but only {self.num_free_blocks} "
                f"of {self.config.num_blocks} are free"
            )
        if need > 0:
            self._blocks[seq_id] += need
            self.num_free_blocks -= need

    def prefill(self, seq_id: int, prompt: np.ndarray) -> np.ndarray:
        ctx = self._computed.setdefault(seq_id, len(prompt))
        self.clock += self.model.prefill_time(ctx)
        self._cached[seq_id] = len(prompt)
        return np.zeros(1)

    def decode_step(self, tokens: np.ndarray, seq_ids: list[int]) -> np.ndarray:
        new = [s for s in seq_ids if self._cached[s] >= self._computed[s]]
        if new:
            self.clock += self.model.decode_step_time(
                len(new), sum(self._cached[s] for s in new)
            )
        for s in seq_ids:
            self._cached[s] += 1
        return np.zeros((len(seq_ids), 1))


class _SimLoop(ServingLoop):
    """The serving loop on modeled time.

    The clock is the analytic decoder's: it moves as each prefill and
    decode is charged, so a first token is stamped after its own prefill
    and a finish after its last decode step.  A round may begin with an
    instance failure: every running sequence is preempted (KV lost,
    recomputed on resume) and the instance pays ``restart_time``.
    """

    def __init__(self, decoder, config, failure_model, seed, start):
        super().__init__(
            decoder, config, context_len=decoder.model.cfg.seq_len,
            vocab_size=decoder.model.cfg.vocab_size, prefix="sim.serve.",
        )
        self.failure_model = failure_model
        self._rate = failure_model.failure_rate(1) if failure_model else 0.0
        self._rng = np.random.default_rng(seed)
        self.time = start  # the failure process starts with the trace
        self._next_failure = self._draw_failure()

    @property
    def time(self) -> float:
        return self.decoder.clock

    @time.setter
    def time(self, t: float) -> None:
        self.decoder.clock = t

    def _draw_failure(self) -> float:
        if self._rate <= 0:
            return math.inf
        return self.time + float(self._rng.exponential(1.0 / self._rate))

    def _begin_round(self) -> None:
        if self.time >= self._next_failure:
            for r in list(self.running):
                self._preempt(r)
            self._next_failure = self._draw_failure()
            self.time += self.failure_model.restart_time
            self._count("instance_failures", 1)


def simulate_serving(
    requests: list[Request],
    model: ServingModel,
    config: BatchingConfig | None = None,
    *,
    slo_multiplier: float = 3.0,
    failure_model: FailureModel | None = None,
    chaos_seed: int = 0,
) -> ServingResult:
    """Run an arrival trace through the serving loop on modeled time.

    The schedule is :meth:`repro.serving.loop.ServingLoop.run`'s — the
    one the real engines execute — over an :class:`AnalyticDecoder`; only
    the clock differs.  With ``failure_model`` set, failures of the
    one-node instance arrive at ``failure_model.failure_rate(1)``.
    Requests that cannot complete end as typed rejections counted on the
    result, never exceptions.  Determinism: identical trace + config +
    seeds => identical result, bit for bit.
    """
    if not requests:
        raise ValueError("cannot simulate an empty trace")
    config = config or BatchingConfig()
    arrivals = [r.arrival_time for r in requests]
    loop = _SimLoop(
        AnalyticDecoder(model, config), config, failure_model, chaos_seed,
        start=min(arrivals),
    )
    finished = loop.run(requests, step_time=0.0, max_steps=1_000_000)

    ttft_h = Histogram("sim.serve.ttft")
    e2e_h = Histogram("sim.serve.e2e")
    met = 0
    for fin in finished:
        ttft_h.record(fin.ttft)
        e2e_h.record(fin.e2e_latency)
        if fin.e2e_latency <= slo_multiplier * model.unloaded_latency(fin.request):
            met += 1
    tokens = sum(fin.num_tokens for fin in finished)
    # Nothing completed (everything rejected/shed/expired): a
    # zero-request result, not a crash.
    makespan = finished[-1].finish_time - min(arrivals) if finished else 0.0

    def quantile(hist: Histogram, q: float) -> float:
        return hist.quantile(q) if finished else 0.0

    stats = loop.stats
    result = ServingResult(
        offered_load=_offered_load(arrivals),
        num_requests=len(finished),
        generated_tokens=tokens,
        makespan=makespan,
        tokens_per_s=tokens / makespan if makespan > 0 else 0.0,
        p50_ttft=quantile(ttft_h, 0.5),
        p99_ttft=quantile(ttft_h, 0.99),
        p50_e2e=quantile(e2e_h, 0.5),
        p99_e2e=quantile(e2e_h, 0.99),
        mean_e2e=e2e_h.mean if finished else 0.0,
        slo_attainment=met / len(finished) if finished else 0.0,
        slo_multiplier=slo_multiplier,
        mean_batch=stats["decode_tokens"] / max(loop.step_count, 1),
        decode_steps=loop.step_count,
        rejected=stats["rejected"],
        shed=stats["shed"],
        deadline_exceeded=stats["deadline"],
        preemptions=stats["preemptions"],
        instance_failures=stats["instance_failures"],
        recompute_tokens=stats["recompute_tokens"],
    )
    count("sim.serve.tokens", tokens)
    count("sim.serve.rejections", result.num_rejections)
    tracer = get_tracer()
    if tracer is not None:
        for fin in finished:
            tracer.metrics.histogram("sim.serve.ttft_s").record(fin.ttft)
            tracer.metrics.histogram("sim.serve.e2e_s").record(fin.e2e_latency)
    return result


def _offered_load(arrivals: list[float]) -> float:
    """Observed arrival rate of the trace (requests/second)."""
    span = max(arrivals) - min(arrivals)
    return (len(arrivals) - 1) / span if span > 0 else float(len(arrivals))


def sweep_offered_load(
    rates: list[float],
    num_requests: int,
    model: ServingModel,
    config: BatchingConfig | None = None,
    *,
    seed: int = 0,
    slo_multiplier: float = 3.0,
    prompt_lens: tuple[int, int] = (16, 256),
    max_new_tokens: tuple[int, int] = (16, 128),
    trace=poisson_trace,
    failure_model: FailureModel | None = None,
    chaos_seed: int = 0,
) -> list[ServingResult]:
    """Throughput/latency frontier: one seeded trace per offered rate.

    The same ``seed`` is used at every rate so the *request mix* is held
    fixed and only the arrival spacing changes — the sweep isolates load,
    not workload.  ``failure_model`` runs the whole frontier under
    MTBF-driven instance failures (same ``chaos_seed`` per rate).
    """
    results = []
    for rate in rates:
        reqs = trace(
            rate,
            num_requests,
            seed=seed,
            vocab_size=model.cfg.vocab_size,
            prompt_lens=prompt_lens,
            max_new_tokens=max_new_tokens,
        )
        results.append(
            simulate_serving(
                reqs,
                model,
                config,
                slo_multiplier=slo_multiplier,
                failure_model=failure_model,
                chaos_seed=chaos_seed,
            )
        )
    return results


def chaos_sweep(
    rates: list[float],
    node_mtbfs: list[float | None],
    num_requests: int,
    model: ServingModel,
    config: BatchingConfig | None = None,
    *,
    seed: int = 0,
    chaos_seed: int = 0,
    slo_multiplier: float = 3.0,
    restart_time: float = 30.0,
    prompt_lens: tuple[int, int] = (16, 256),
    max_new_tokens: tuple[int, int] = (16, 128),
    trace=poisson_trace,
) -> list[list[ServingResult]]:
    """SLO-attainment degradation surface: fault rate x offered load.

    Row ``i`` serves the same fixed request mix at every rate under
    instance failures with per-node MTBF ``node_mtbfs[i]`` seconds
    (``None`` or ``inf`` = fault-free baseline row).  Shorter MTBF means
    more mid-trace failures, more recompute, lower SLO attainment — the
    surface quantifies graceful degradation: attainment should fall
    smoothly with failure rate, never cliff into a crash.
    """
    surface: list[list[ServingResult]] = []
    for mtbf in node_mtbfs:
        fm = (
            None
            if mtbf is None or math.isinf(mtbf)
            else FailureModel(node_mtbf=mtbf, restart_time=restart_time)
        )
        surface.append(
            sweep_offered_load(
                rates,
                num_requests,
                model,
                config,
                seed=seed,
                slo_multiplier=slo_multiplier,
                prompt_lens=prompt_lens,
                max_new_tokens=max_new_tokens,
                trace=trace,
                failure_model=fm,
                chaos_seed=chaos_seed,
            )
        )
    return surface
