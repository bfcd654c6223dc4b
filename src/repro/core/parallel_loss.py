"""Vocab-parallel cross-entropy (Megatron-style) over the column axis.

The LM head produces logits whose vocabulary dimension is split along X
(layout B).  Computing softmax cross-entropy therefore needs three small
collectives over each X group:

1. a **max** all-reduce for the numerically-stabilizing shift (a
   constant — its gradient contribution cancels exactly, so it is
   detached);
2. a **sum** all-reduce of the local exp-sums (for the log-partition);
3. a **sum** all-reduce of the locally-owned target logits (each rank
   owns the targets falling inside its vocabulary shard).

The result is the token-averaged negative log-likelihood with optional
per-token loss masking (the Goldfish hook), numerically identical to the
serial :func:`repro.tensor.functional.cross_entropy`.
"""

from __future__ import annotations

import numpy as np

from ..runtime import CommTracer, ProcessGroup
from ..tensor import Tensor
from ..tensor.functional import check_token_ids
from .collective_ops import all_reduce_max_const, all_reduce_t
from .grid import Grid4D

__all__ = ["vocab_parallel_cross_entropy"]


def vocab_parallel_cross_entropy(
    logits_parts: list[Tensor],
    group: ProcessGroup,
    targets: np.ndarray,
    weights: np.ndarray,
    tracer: CommTracer | None = None,
) -> Tensor:
    """Weighted NLL of one batch shard with vocab-split logits.

    ``logits_parts[i]`` is the (B, S, V/p) logits block of the rank at
    group position ``i`` (vocab range ``[i*V/p, (i+1)*V/p)``).
    ``targets`` is (B, S) integer ids; ``weights`` is a (B, S) float
    array of per-token loss weights (e.g. ``mask / total_tokens``) —
    the returned scalar is ``sum_bs weights * nll``.
    """
    p = group.size
    if len(logits_parts) != p:
        raise ValueError(f"{len(logits_parts)} parts for group of {p}")
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=np.float64)
    vb = logits_parts[0].shape[-1]
    b, s = targets.shape
    # Unchecked, a target no shard owns would just drop out of the sum.
    check_token_ids(targets, p * vb)

    # (1) Stabilizing shift: global max, as a constant.
    local_max = [Tensor(lp.data.max(axis=-1, keepdims=True)) for lp in logits_parts]
    gmax = all_reduce_max_const(local_max, group, tracer=tracer, tag="vpce.AR_max")

    shifted = [lp - Tensor(m) for lp, m in zip(logits_parts, gmax)]

    # (2) Global log-partition from local exp-sums.
    local_se = [sh.exp().sum(axis=-1, keepdims=True) for sh in shifted]
    gse = all_reduce_t(local_se, group, tracer=tracer, tag="vpce.AR_sumexp")

    # (3) Target logits: each rank contributes the targets it owns.
    contrib: list[Tensor] = []
    for pos, sh in enumerate(shifted):
        lo = pos * vb
        owned = (targets >= lo) & (targets < lo + vb)
        if not owned.any():
            continue
        bi, si = np.nonzero(owned)
        ti = targets[bi, si] - lo
        picked = sh[(bi, si, ti)]  # (n_owned,)
        contrib.append((picked * weights[bi, si]).sum())
    if not contrib:
        raise ValueError("no targets fall inside any vocabulary shard")
    tgt_total = contrib[0]
    for c in contrib[1:]:
        tgt_total = tgt_total + c

    # Weighted sum of log-partitions (identical on every rank; use
    # position 0's copy).
    w_t = Tensor(weights.reshape(b, s, 1))
    lse_total = (gse[0].log() * w_t).sum()

    return lse_total - tgt_total


def head_loss_over_grid(
    grid: Grid4D,
    logits_parts: dict[int, Tensor],
    targets_by_zd: dict[tuple[int, int], np.ndarray],
    weights_by_zd: dict[tuple[int, int], np.ndarray],
    col_axis: str = "x",
) -> Tensor:
    """Total weighted NLL across all (Z, data[, seq]) batch shards.

    For each shard, uses the logit replicas at coordinate 0 of the
    replicated axis and the X-group (or Y-group, per ``col_axis``)
    vocab-parallel loss.  Shard keys are ``(z, d)`` tuples, or
    ``(z, d, s)`` when the sequence axis is active.  Shard losses add up
    to the global token mean because the supplied weights are globally
    normalized.
    """
    c = grid.config
    total: Tensor | None = None
    for key, targets in targets_by_zd.items():
        z, d = key[0], key[1]
        s = key[2] if len(key) > 2 else 0
        if col_axis == "x":
            ranks = [grid.rank_of(i, 0, z, d, s) for i in range(c.gx)]
        else:
            ranks = [grid.rank_of(0, i, z, d, s) for i in range(c.gy)]
        group = ProcessGroup(tuple(ranks))
        shard = vocab_parallel_cross_entropy(
            [logits_parts[r] for r in ranks],
            group,
            targets,
            weights_by_zd[key],
            tracer=grid.tracer,
        )
        total = shard if total is None else total + shard
    if total is None:
        raise ValueError("no batch shards supplied")
    return total
