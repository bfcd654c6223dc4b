"""Analytic communication volumes, cross-validated against the runtime.

The performance model's byte counts (the numerators of Eqs. 1-5) can be
checked *exactly*: the functional 4D model issues real collectives whose
buffer sizes the tracer records.  This module computes, for a model and
a grid, the bytes each collective family should move per iteration; the
test suite asserts the tracer observes precisely these numbers.  This
closes the loop between the analytical model and the executable
algorithm — if Algorithm 1's implementation and Eqs. 1-5 ever drift
apart, a test fails.

Volumes are reported as *input-buffer bytes summed over distinct
collectives* (matching :class:`repro.runtime.CollectiveRecord`), for one
data-parallel replica unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import GPTConfig
from ..core.grid import GridConfig
from .model import LayerShape, gpt_layer_shapes, layer_collectives
from .seq_parallel import ring_kv_payload_bytes

__all__ = [
    "CollectiveVolumes",
    "layer_volumes",
    "gpt_forward_backward_volumes",
    "seq_ring_volumes",
]


@dataclass(frozen=True)
class CollectiveVolumes:
    """Bytes entering each collective family, summed over one replica's
    distinct process-group invocations."""

    ag_z: float = 0.0
    rs_z: float = 0.0
    ar_fwd: float = 0.0  # the contraction-axis all-reduce of line 4
    ar_bwd: float = 0.0  # the column-axis all-reduce of line 12
    seq_ring: float = 0.0  # ring-attention KV rotation p2p bytes

    def __add__(self, other: "CollectiveVolumes") -> "CollectiveVolumes":
        return CollectiveVolumes(
            self.ag_z + other.ag_z,
            self.rs_z + other.rs_z,
            self.ar_fwd + other.ar_fwd,
            self.ar_bwd + other.ar_bwd,
            self.seq_ring + other.seq_ring,
        )


def layer_volumes(
    layer: LayerShape, config: GridConfig, dtype_bytes: int = 8
) -> CollectiveVolumes:
    """Per-iteration collective input bytes for one FC layer.

    Each family is ``groups x nbytes`` of its
    :func:`~repro.perfmodel.model.layer_collectives` record.  Counting
    convention: a collective over a group of ``p`` ranks is one record
    whose size is a single rank's input buffer; a layer runs one such
    collective per distinct group (for a normal layer's forward,
    ``G_x * G_y`` Z-groups gather weight shards and ``G_x * G_z``
    Y-groups all-reduce partial outputs, etc.; each sequence shard runs
    its own copy of every family).

    ``dtype_bytes`` defaults to 8 because the functional runtime
    computes in float64; pass 2 for bf16 wire volumes.
    """
    return CollectiveVolumes(
        *(
            groups * nbytes
            for _, _, _, groups, nbytes in layer_collectives(
                layer, config, dtype_bytes
            )[:4]
        )
    )


def gpt_forward_backward_volumes(
    cfg: GPTConfig,
    batch_per_replica: int,
    config: GridConfig,
    dtype_bytes: int = 8,
    seq_len: int | None = None,
) -> CollectiveVolumes:
    """Total collective volumes of one replica's forward+backward pass
    over the four FC layers of every block (the LM head and embeddings
    use dedicated paths and are excluded here)."""
    s = seq_len if seq_len is not None else cfg.seq_len
    scaled = cfg.scaled(seq_len=s)
    total = CollectiveVolumes()
    for layer in gpt_layer_shapes(scaled, batch_per_replica, include_head=False):
        total = total + layer_volumes(layer, config, dtype_bytes)
    return total + seq_ring_volumes(
        scaled, batch_per_replica, config, dtype_bytes
    )


def seq_ring_volumes(
    cfg: GPTConfig,
    batch_per_replica: int,
    config: GridConfig,
    dtype_bytes: int = 8,
) -> CollectiveVolumes:
    """Ring-attention KV-rotation p2p bytes of one replica's forward.

    Each of the ``G_x * G_y * G_z`` sequence rings per replica runs
    ``G_seq`` rotation steps per layer, each step one fused K+V message
    per member — ``G_seq^2`` p2p records of
    :func:`~repro.perfmodel.seq_parallel.ring_kv_payload_bytes` bytes
    per ring per layer (counting convention: one record per traced
    ``send_recv``, sized by its payload, matching the tracer).  Zero on
    classic grids: the ``G_seq = 1`` self-copy ring is skipped entirely
    in the plain attention path.
    """
    if config.gs <= 1:
        return CollectiveVolumes()
    payload = ring_kv_payload_bytes(
        cfg, config, batch_per_replica, dtype_bytes
    )
    n_rings = config.gx * config.gy * config.gz
    per_layer = n_rings * config.gs**2 * payload
    return CollectiveVolumes(seq_ring=cfg.num_layers * per_layer)
