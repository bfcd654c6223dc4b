"""Seeded request arrival traces for the serving runtime.

A serving system is exercised by *offered load*: requests arriving over
time with ragged prompt lengths and generation budgets.  Two canonical
arrival processes cover the space the serving literature measures
against:

* **Poisson** — independent exponential inter-arrival gaps at a target
  rate (the steady-state assumption behind most SLO math);
* **bursty** — a Markov-modulated Poisson process alternating between a
  quiet and a burst phase, which is what production traffic actually
  looks like and what stresses the admission queue.

Everything is seeded and deterministic: the same ``(seed, rate,
num_requests)`` triple always yields byte-identical traces, so the
engine equivalence tests and the simulator report the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Request",
    "poisson_trace",
    "bursty_trace",
    "synthetic_requests",
]


@dataclass(frozen=True)
class Request:
    """One generation request presented to the serving runtime."""

    request_id: int
    #: 1-D int64 prompt token ids (non-empty).
    prompt: np.ndarray
    #: Decode budget: generation stops after this many tokens (or at
    #: ``eos_id`` if the engine is configured with one).
    max_new_tokens: int
    #: Seconds since trace start at which the request arrives.
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        prompt = np.asarray(self.prompt, dtype=np.int64)
        if prompt.ndim != 1 or prompt.size == 0:
            raise ValueError(
                f"prompt must be a non-empty 1-D token array; got shape "
                f"{prompt.shape}"
            )
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")
        object.__setattr__(self, "prompt", prompt)

    @property
    def prompt_len(self) -> int:
        return int(self.prompt.shape[0])

    @property
    def total_tokens(self) -> int:
        """Worst-case KV footprint: prompt plus full decode budget."""
        return self.prompt_len + self.max_new_tokens


def _check_rate(rate: float) -> None:
    """Reject a zero, negative or NaN rate; an infinite rate is legal
    (every request arrives at t = 0)."""
    if not rate > 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")


def _arrival_times_poisson(
    rng: np.random.Generator, rate: float, n: int
) -> np.ndarray:
    _check_rate(rate)
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def poisson_trace(
    rate: float,
    num_requests: int,
    *,
    seed: int = 0,
    vocab_size: int = 64,
    prompt_lens: tuple[int, int] = (4, 12),
    max_new_tokens: tuple[int, int] = (4, 16),
) -> list[Request]:
    """Poisson arrivals at ``rate`` requests/second, seeded.

    Prompt lengths and decode budgets are drawn uniformly (inclusive)
    from the given ranges; prompt tokens uniformly from the vocabulary.
    """
    rng = np.random.default_rng(seed)
    times = _arrival_times_poisson(rng, rate, num_requests)
    return synthetic_requests(
        times,
        rng,
        vocab_size=vocab_size,
        prompt_lens=prompt_lens,
        max_new_tokens=max_new_tokens,
    )


def bursty_trace(
    rate: float,
    num_requests: int,
    *,
    seed: int = 0,
    burst_factor: float = 4.0,
    burst_fraction: float = 0.25,
    vocab_size: int = 64,
    prompt_lens: tuple[int, int] = (4, 12),
    max_new_tokens: tuple[int, int] = (4, 16),
) -> list[Request]:
    """Two-phase bursty arrivals with overall mean ``rate``.

    A fraction ``burst_fraction`` of requests arrive during bursts at
    ``burst_factor``x the base rate; the rest arrive at a reduced quiet
    rate chosen so the long-run average stays ``rate``.  The phase
    sequence is itself seeded (geometric sojourns), so the trace is
    deterministic.
    """
    _check_rate(rate)
    if burst_factor <= 1.0:
        raise ValueError("burst_factor must be > 1")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    quiet_rate = rate * (1.0 - burst_fraction) / (
        1.0 - burst_fraction / burst_factor
    )
    burst_rate = quiet_rate * burst_factor
    times = np.empty(num_requests)
    t = 0.0
    in_burst = False
    i = 0
    while i < num_requests:
        # Geometric sojourn: a handful of requests per phase visit.
        run = int(rng.geometric(0.25))
        r = burst_rate if in_burst else quiet_rate
        for _ in range(min(run, num_requests - i)):
            t += rng.exponential(1.0 / r)
            times[i] = t
            i += 1
        in_burst = not in_burst
    return synthetic_requests(
        times,
        rng,
        vocab_size=vocab_size,
        prompt_lens=prompt_lens,
        max_new_tokens=max_new_tokens,
    )


def synthetic_requests(
    arrival_times: np.ndarray,
    rng: np.random.Generator,
    *,
    vocab_size: int = 64,
    prompt_lens: tuple[int, int] = (4, 12),
    max_new_tokens: tuple[int, int] = (4, 16),
) -> list[Request]:
    """Attach seeded ragged prompts/budgets to given arrival times."""
    lo_p, hi_p = prompt_lens
    lo_n, hi_n = max_new_tokens
    if lo_p < 1 or lo_n < 1:
        raise ValueError("prompt_lens and max_new_tokens must start >= 1")
    out = []
    for i, t in enumerate(np.asarray(arrival_times, dtype=float)):
        plen = int(rng.integers(lo_p, hi_p + 1))
        budget = int(rng.integers(lo_n, hi_n + 1))
        prompt = rng.integers(0, vocab_size, plen, dtype=np.int64)
        out.append(
            Request(
                request_id=i,
                prompt=prompt,
                max_new_tokens=budget,
                arrival_time=float(t),
            )
        )
    return out
