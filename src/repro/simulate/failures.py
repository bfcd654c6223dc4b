"""Failure modeling: MTBF, stragglers, checkpoint cost, goodput.

At the scale the paper targets (hundreds to thousands of nodes on
Perlmutter/Frontier/Alps), hardware failures stop being rare events:
with a per-node MTBF of a few years, a 1024-node job sees a failure
every few hours, and every failure rolls the job back to its last
checkpoint.  This module quantifies that tax on top of the
per-iteration simulator:

* :class:`FailureModel` — per-node MTBF, restart cost, straggler
  frequency/severity, and filesystem bandwidth for checkpoint I/O;
* :func:`checkpoint_time` — time to write (or read back) the full
  training state (16 bytes/parameter) through the machine's injection
  bandwidth and the shared filesystem;
* :func:`expected_goodput` — the classical renewal-theory expectation
  for exponential failures: checkpointing every ``tau`` seconds costs
  ``E[T] = e^{lambda R} (e^{lambda (tau + C)} - 1) / lambda`` wall
  seconds per ``tau`` seconds of committed work;
* :func:`young_daly_interval` — the closed-form optimum
  ``tau* = sqrt(2 C M)`` (Young 1974; Daly 2006 refines it, but at
  ``C << M`` the two agree to first order), which the goodput curve's
  empirical argmax must reproduce;
* :func:`simulate_run` — a seeded stochastic timeline (exponential
  failure draws, Bernoulli stragglers): the one fault-tolerant training
  loop, restart strategy, over a trainer whose steps only move a clock.

The goodput report (``python -m repro.tools goodput``) sweeps
``tau`` over these functions per machine spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cluster import MachineSpec
from ..config import GPTConfig
from ..nn.training import RecoveryReport, _train_fault_tolerant
from ..runtime.faults import FaultInjector, FaultPlan, RankFailure, TornWriteError

__all__ = [
    "FailureModel",
    "RunOutcome",
    "StrategyComparison",
    "checkpoint_time",
    "compare_recovery_strategies",
    "expected_elastic_goodput",
    "expected_goodput",
    "expected_restart_goodput",
    "goodput_curve",
    "optimal_checkpoint_interval",
    "shrunken_throughput",
    "simulate_run",
    "young_daly_interval",
]

#: Bytes of persistent training state per parameter (fp32 master +
#: two Adam moments + bf16 working copy; matches the memory model).
STATE_BYTES_PER_PARAM = 16

_HOUR = 3600.0


@dataclass(frozen=True)
class FailureModel:
    """Reliability knobs of a machine-scale training run.

    ``node_mtbf`` is per *node*; the whole job's MTBF shrinks linearly
    with node count (independent exponential failures).  A straggler is
    a transient slow node: with probability ``straggler_prob`` an
    iteration runs ``straggler_slowdown`` times slower (network
    congestion, a throttled GPU, filesystem interference — the
    variability of Section VI-B, made persistent).
    """

    #: Mean time between failures of one node, seconds.
    node_mtbf: float = 4380.0 * _HOUR  # ~6 months, typical HPC node
    #: Fixed requeue/re-init cost per restart (scheduler latency, grid
    #: re-formation), seconds — on top of re-reading the checkpoint.
    restart_time: float = 120.0
    #: Probability that a given iteration is hit by a straggler.
    straggler_prob: float = 0.0
    #: Multiplicative slowdown of a straggler-hit iteration (>= 1).
    straggler_slowdown: float = 1.0
    #: Aggregate shared-filesystem bandwidth, bytes/s (Lustre-scale).
    fs_bandwidth: float = 500e9

    def __post_init__(self) -> None:
        if self.node_mtbf <= 0:
            raise ValueError("node_mtbf must be positive")
        if self.restart_time < 0:
            raise ValueError("restart_time must be >= 0")
        if not 0.0 <= self.straggler_prob <= 1.0:
            raise ValueError("straggler_prob must be in [0, 1]")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if self.fs_bandwidth <= 0:
            raise ValueError("fs_bandwidth must be positive")

    def failure_rate(self, num_nodes: int) -> float:
        """Job-wide failures per second across ``num_nodes`` nodes."""
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        return num_nodes / self.node_mtbf

    def job_mtbf(self, num_nodes: int) -> float:
        """Mean seconds between failures anywhere in the job."""
        return 1.0 / self.failure_rate(num_nodes)

def checkpoint_time(
    cfg: GPTConfig,
    machine: MachineSpec,
    num_gpus: int,
    model: FailureModel = FailureModel(),
) -> float:
    """Seconds to write (or read back) the full training state.

    Every GPU holds ``1/num_gpus`` of the 16-byte-per-parameter state;
    the write streams through each node's injection bandwidth in
    parallel, but the shared filesystem caps the aggregate.
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    state = cfg.num_parameters() * STATE_BYTES_PER_PARAM
    nodes = max(1, num_gpus // machine.gpus_per_node)
    injection = nodes * machine.inter_node_bw / 2.0  # unidirectional
    return state / min(injection, model.fs_bandwidth)


def young_daly_interval(ckpt_time: float, mtbf: float) -> float:
    """Young's optimal checkpoint interval ``sqrt(2 C M)`` (seconds of
    work between checkpoints, excluding the checkpoint itself)."""
    if ckpt_time <= 0 or mtbf <= 0:
        raise ValueError("checkpoint time and MTBF must be positive")
    return math.sqrt(2.0 * ckpt_time * mtbf)


def expected_goodput(
    interval: float,
    ckpt_time: float,
    restart_time: float,
    mtbf: float,
) -> float:
    """Expected fraction of wall time spent on *committed* work.

    Renewal argument for exponential failures at rate ``1/mtbf``: each
    segment must complete ``interval + ckpt_time`` seconds without a
    failure; failed attempts cost their elapsed time plus the restart.
    The closed form for the expected wall time per committed segment is
    ``E[T] = e^{lambda R} (e^{lambda (tau + C)} - 1) / lambda``.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    if ckpt_time < 0 or restart_time < 0 or mtbf <= 0:
        raise ValueError("invalid cost/MTBF parameters")
    lam = 1.0 / mtbf
    wall = math.exp(lam * restart_time) * math.expm1(
        lam * (interval + ckpt_time)
    ) / lam
    return interval / wall


def goodput_curve(
    intervals: list[float],
    ckpt_time: float,
    restart_time: float,
    mtbf: float,
) -> list[float]:
    """Expected goodput at each candidate checkpoint interval."""
    return [
        expected_goodput(tau, ckpt_time, restart_time, mtbf)
        for tau in intervals
    ]


def optimal_checkpoint_interval(
    ckpt_time: float,
    restart_time: float,
    mtbf: float,
    num_points: int = 600,
) -> float:
    """Empirical argmax of :func:`expected_goodput` on a log grid
    spanning well past the Young/Daly optimum in both directions."""
    center = young_daly_interval(ckpt_time, mtbf)
    grid = np.geomspace(center / 30.0, center * 30.0, num_points)
    best = max(grid, key=lambda tau: expected_goodput(
        float(tau), ckpt_time, restart_time, mtbf
    ))
    return float(best)


# -- elastic continuation vs restart-and-wait ---------------------------------


def shrunken_throughput(
    num_nodes: int, lost_nodes: int = 1, comm_penalty: float = 0.0
) -> float:
    """Relative throughput of the job after shrinking onto survivors.

    Losing ``lost_nodes`` of ``num_nodes`` removes compute
    proportionally; ``comm_penalty`` (fraction in [0, 1)) models the
    additional efficiency loss of the smaller — possibly less regular,
    e.g. non-power-of-two — grid (worse collective algorithms, a lumpier
    batch split).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if not 0 <= lost_nodes < num_nodes:
        raise ValueError("lost_nodes must be in [0, num_nodes)")
    if not 0.0 <= comm_penalty < 1.0:
        raise ValueError("comm_penalty must be in [0, 1)")
    return (num_nodes - lost_nodes) / num_nodes * (1.0 - comm_penalty)


def expected_restart_goodput(
    interval: float,
    ckpt_time: float,
    restart_time: float,
    mtbf: float,
    replacement_wait: float = 0.0,
) -> float:
    """Goodput of the classical strategy when the grid can only re-form
    at full size: every failure blocks for ``replacement_wait`` seconds
    (scheduler queue, spare-pool latency) before the restart proper —
    the wait simply inflates the per-failure restart cost in
    :func:`expected_goodput`.
    """
    return expected_goodput(
        interval, ckpt_time, restart_time + replacement_wait, mtbf
    )


def expected_elastic_goodput(
    interval: float,
    ckpt_time: float,
    reshard_time: float,
    mtbf: float,
    replacement_wait: float = 0.0,
    shrink_fraction: float = 1.0,
) -> float:
    """Goodput of elastic continuation: shrink onto survivors, keep
    training, grow back when the replacement arrives.

    First-order renewal accounting over a mean inter-failure window of
    ``mtbf`` seconds: the failure costs one in-memory shrink and one
    grow (``reshard_time`` each — no disk round-trip, no queue wait),
    the ``min(replacement_wait, mtbf)`` seconds until capacity returns
    run at ``shrink_fraction`` of full throughput (see
    :func:`shrunken_throughput`), and the remainder runs at full speed.
    The periodic-checkpoint overhead ``interval / (interval + C)``
    still applies — elastic recovery reduces *restart* cost, not the
    need for the disk ring (correlated failures still fall back to it).
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    if min(ckpt_time, reshard_time, replacement_wait) < 0 or mtbf <= 0:
        raise ValueError("invalid cost/MTBF parameters")
    if not 0.0 < shrink_fraction <= 1.0:
        raise ValueError("shrink_fraction must be in (0, 1]")
    shrunk = min(replacement_wait, mtbf)
    productive = mtbf - 2.0 * reshard_time - (1.0 - shrink_fraction) * shrunk
    ckpt_overhead = interval / (interval + ckpt_time)
    return max(0.0, productive / mtbf) * ckpt_overhead


@dataclass(frozen=True)
class StrategyComparison:
    """Elastic continuation vs restart-and-wait for one machine spec."""

    elastic_goodput: float
    restart_goodput: float
    shrink_fraction: float
    replacement_wait: float

    @property
    def winner(self) -> str:
        return (
            "elastic"
            if self.elastic_goodput >= self.restart_goodput
            else "restart"
        )

    @property
    def advantage(self) -> float:
        """Goodput gained by the winning strategy over the other."""
        return abs(self.elastic_goodput - self.restart_goodput)


def compare_recovery_strategies(
    interval: float,
    ckpt_time: float,
    restart_time: float,
    mtbf: float,
    replacement_wait: float,
    num_nodes: int,
    lost_nodes: int = 1,
    comm_penalty: float = 0.0,
    reshard_time: float | None = None,
) -> StrategyComparison:
    """Which recovery strategy wins for this spec?

    ``reshard_time`` defaults to ``restart_time`` (grid re-formation
    dominates both; elastic just skips the queue and the checkpoint
    read).  The break-even intuition: elastic wins when
    ``(1 - f) * wait`` (degraded-capacity loss) is smaller than the
    full-stop loss of blocking ``wait`` seconds plus the rollback —
    i.e. almost always once ``wait`` rivals the MTBF.
    """
    f = shrunken_throughput(num_nodes, lost_nodes, comm_penalty)
    return StrategyComparison(
        elastic_goodput=expected_elastic_goodput(
            interval,
            ckpt_time,
            restart_time if reshard_time is None else reshard_time,
            mtbf,
            replacement_wait,
            f,
        ),
        restart_goodput=expected_restart_goodput(
            interval, ckpt_time, restart_time, mtbf, replacement_wait
        ),
        shrink_fraction=f,
        replacement_wait=replacement_wait,
    )


@dataclass
class RunOutcome:
    """What one stochastic :func:`simulate_run` produced."""

    wall_time: float
    work_time: float
    failures: int
    restarts: int
    checkpoints: int
    straggler_hits: int
    lost_time: float

    @property
    def goodput(self) -> float:
        return self.work_time / self.wall_time if self.wall_time else 0.0


class _VirtualTrainer:
    """A trainer whose ``step`` moves a clock and does no arithmetic; a
    failure inside a step or a save raises :class:`RankFailure` or
    :class:`TornWriteError` (``draw_gap()``: seconds to the next one)."""

    def __init__(self, iteration_time, ckpt_time, read_time, model, rng,
                 draw_gap) -> None:
        self.iteration_time, self.ckpt_time = iteration_time, ckpt_time
        self.read_time, self.model, self.rng = read_time, model, rng
        self.draw_gap, self.next_failure = draw_gap, draw_gap()
        # since_ckpt: wall time invested since the last checkpoint.
        self.wall = self.work = self.lost = self.since_ckpt = 0.0
        self.checkpoints = self.straggler_hits = 0

    def step(self, ids, loss_mask=None) -> float:
        t, m = self.iteration_time, self.model
        if m.straggler_prob and self.rng.random() < m.straggler_prob:
            t *= m.straggler_slowdown
            self.straggler_hits += 1
        if self.wall + t > self.next_failure:
            raise RankFailure(0, int(ids), "virtual step")
        self.wall += t
        self.since_ckpt += t
        self.work += self.iteration_time  # straggler excess is overhead
        return 0.0

    def run(self, num_iterations: int, interval: int) -> RecoveryReport:
        """``_train_fault_tolerant`` with the restart strategy over this
        trainer; the saves at step 0 and at the end charge nothing."""
        report = RecoveryReport()

        def save(trainer, step):
            if 0 < step < num_iterations:
                if self.wall + self.ckpt_time > self.next_failure:
                    raise TornWriteError("virtual", self.checkpoints)
                self.wall += self.ckpt_time
                self.lost += self.ckpt_time
                self.checkpoints += 1
                self.since_ckpt = 0.0

        def recover(step, last_saved, trainer):
            lost_now = (self.next_failure - self.wall) + self.since_ckpt
            restart, read = self.model.restart_time, self.read_time
            self.wall = self.next_failure + restart + read
            self.lost += lost_now + restart + read
            self.work -= (step - last_saved) * self.iteration_time
            self.since_ckpt = 0.0
            self.next_failure = self.wall + self.draw_gap()
            report.resumed_from.append(last_saved)
            return last_saved, self

        return _train_fault_tolerant(
            self, range(num_iterations), report,
            injector=FaultInjector(FaultPlan()),
            checkpoint_interval=interval, budget="restarts",
            max_budget=math.inf, save=save, recover=recover,
        )


def simulate_run(
    iteration_time: float,
    num_iterations: int,
    checkpoint_interval_iters: int,
    ckpt_time: float,
    model: FailureModel,
    num_nodes: int,
    seed: int = 0,
    read_time: float | None = None,
) -> RunOutcome:
    """Replay a training run against seeded random failures.

    Failures arrive as an exponential process at the job-wide rate; each
    one rolls back to the last checkpoint (re-reading it costs
    ``read_time``, defaulting to ``ckpt_time``) and pays the fixed
    restart cost.  Stragglers stretch individual iterations.  Same seed,
    same timeline — the stochastic twin of :func:`expected_goodput`.
    """
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    if checkpoint_interval_iters < 1:
        raise ValueError("checkpoint_interval_iters must be >= 1")
    rng = np.random.default_rng(seed)
    rate = model.failure_rate(num_nodes)
    vt = _VirtualTrainer(
        iteration_time, ckpt_time,
        ckpt_time if read_time is None else read_time, model, rng,
        lambda: float(rng.exponential(1.0 / rate)) if rate > 0 else math.inf,
    )
    n = vt.run(num_iterations, checkpoint_interval_iters).restarts
    return RunOutcome(vt.wall, vt.work, n, n, vt.checkpoints,
                      vt.straggler_hits, vt.lost)
