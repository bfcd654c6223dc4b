"""The stochastic failure replay as a loop of its own, written out by hand.

:func:`repro.simulate.simulate_run` runs the one fault-tolerant training
loop over a virtual-time trainer; this is the step / checkpoint / fail /
roll-back loop it ran before.
"""

from __future__ import annotations

import math

import numpy as np

from repro.simulate import FailureModel, RunOutcome


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
    read = ckpt_time if read_time is None else read_time

    def draw_failure() -> float:
        return float(rng.exponential(1.0 / rate)) if rate > 0 else math.inf

    wall = 0.0
    work = 0.0
    failures = restarts = checkpoints = straggler_hits = 0
    lost = 0.0
    next_failure = draw_failure()
    done = 0  # committed iterations
    since_ckpt = 0.0  # wall time invested since the last checkpoint
    it = 0  # iterations since the last checkpoint
    while done < num_iterations:
        t = iteration_time
        if model.straggler_prob and rng.random() < model.straggler_prob:
            t *= model.straggler_slowdown
            straggler_hits += 1
        if wall + t > next_failure:
            # Failure mid-iteration: lose everything since the checkpoint.
            lost_now = (next_failure - wall) + since_ckpt
            wall = next_failure + model.restart_time + read
            lost += lost_now + model.restart_time + read
            failures += 1
            restarts += 1
            done -= it
            work -= it * iteration_time
            since_ckpt = 0.0
            it = 0
            next_failure = wall + draw_failure()
            continue
        wall += t
        since_ckpt += t
        work += iteration_time  # straggler excess is overhead, not work
        done += 1
        it += 1
        if it == checkpoint_interval_iters and done < num_iterations:
            if wall + ckpt_time > next_failure:
                lost_now = (next_failure - wall) + since_ckpt
                wall = next_failure + model.restart_time + read
                lost += lost_now + model.restart_time + read
                failures += 1
                restarts += 1
                # The in-flight checkpoint never landed: roll back.
                done -= it
                work -= it * iteration_time
                since_ckpt = 0.0
                it = 0
                next_failure = wall + draw_failure()
                continue
            wall += ckpt_time
            lost += ckpt_time
            checkpoints += 1
            since_ckpt = 0.0
            it = 0
    return RunOutcome(
        wall_time=wall,
        work_time=work,
        failures=failures,
        restarts=restarts,
        checkpoints=checkpoints,
        straggler_hits=straggler_hits,
        lost_time=lost,
    )
