"""Point-to-point messages.

Algorithm 1 needs only the three ring collectives; the one other
inter-rank channel is a single message from one rank to another.  The
sequence-parallel ring attention passes key/value blocks around the
ring with it, and pipeline stages hand boundary activations and
gradients to their neighbours.  It follows the same conventions as
:mod:`repro.runtime.collectives` (optional tracing, ambient telemetry
and fault injection).
"""

from __future__ import annotations

import numpy as np

from .process_group import CommTracer
from . import faults as _faults
from ..telemetry.spans import get_tracer as _telemetry, traced as _traced

__all__ = ["send_recv"]


@_traced(cat="comm")
def send_recv(
    buffer: np.ndarray,
    src: int,
    dst: int,
    tracer: CommTracer | None = None,
    tag: str = "",
    injector=None,
) -> np.ndarray:
    """Transfer ``buffer`` from rank ``src`` to rank ``dst``.

    Returns the array as received at ``dst`` (a copy — the destination
    owns its memory, as after MPI_Recv).  ``src == dst`` is a traced
    no-op copy: a degree-1 ring (e.g. a ``G_seq = 1`` sequence group)
    degenerates to a self-transfer, and tracing it like any other
    message keeps schedules uniform across grid degrees.  Under fault
    injection the blocking receive runs the injector's
    timeout/retry/backoff loop: a dropped message (or one delayed past
    the retry budget) raises
    :class:`~repro.runtime.faults.CommTimeoutError`, a dead endpoint
    raises :class:`~repro.runtime.faults.RankFailure`.
    """
    inj = injector if injector is not None else _faults.get_active_injector()
    if inj is not None:
        buffer = inj.before_p2p(src, dst, buffer, tag, tracer=tracer)
    tel = _telemetry()
    if tel is not None:
        tel.count_collective(
            "p2p", buffer.nbytes, tag=tag, group_size=1 if src == dst else 2
        )
    if tracer is not None:
        tracer.record_p2p(
            src,
            dst,
            buffer.nbytes,
            dtype=str(buffer.dtype),
            count=int(buffer.size),
            tag=tag,
        )
    return np.array(buffer, copy=True)
