"""The communication performance model of Section V-B (Eqs. 1-7)."""

from ..core.grid import infeasibility_reason
from .bandwidth import BandwidthDatabase, case2_bandwidth, effective_bandwidths
from .configs import RankedConfig, rank_configurations, rank_grids
from .hierarchical import (
    AlgorithmChoice,
    choose_algorithm,
    flat_time,
    hierarchical_time,
)
from .model import (
    CommBreakdown,
    LayerShape,
    gpt_layer_shapes,
    layer_comm_time,
    model_comm_time,
)
from .seq_parallel import (
    ring_hop_time,
    ring_kv_payload_bytes,
    seq_ring_time,
)
from .volume import (
    CollectiveVolumes,
    gpt_forward_backward_volumes,
    layer_volumes,
    seq_ring_volumes,
)
from .ring import (
    all_gather_time,
    all_reduce_time,
    broadcast_time,
    reduce_scatter_time,
)

__all__ = [
    "all_gather_time",
    "reduce_scatter_time",
    "all_reduce_time",
    "broadcast_time",
    "AlgorithmChoice",
    "choose_algorithm",
    "flat_time",
    "hierarchical_time",
    "BandwidthDatabase",
    "effective_bandwidths",
    "case2_bandwidth",
    "LayerShape",
    "gpt_layer_shapes",
    "layer_comm_time",
    "model_comm_time",
    "CommBreakdown",
    "RankedConfig",
    "infeasibility_reason",
    "rank_configurations",
    "rank_grids",
    "CollectiveVolumes",
    "layer_volumes",
    "gpt_forward_backward_volumes",
    "seq_ring_volumes",
    "ring_kv_payload_bytes",
    "ring_hop_time",
    "seq_ring_time",
]
