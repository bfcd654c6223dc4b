"""The paper's core contribution: the 4D hybrid parallel algorithm."""

from .axonn import AxoNN
from .axonn import init as axonn_init
from .checkpoint_io import (
    CheckpointRing,
    gather_training_arrays,
    load_checkpoint,
    load_training_arrays,
    load_training_state,
    save_checkpoint,
    save_training_state,
    verify_checkpoint,
)
from .collective_ops import (
    all_gather_t,
    all_reduce_max_const,
    all_reduce_t,
    all_to_all_t,
)
from .data_parallel import (
    allreduce_gradients,
    broadcast_parameters,
    data_parallel_step,
    replicas_in_sync,
)
from .degenerate import (
    DEGENERATE_SCHEMES,
    DegenerateScheme,
    make_degenerate_grid,
)
from .easy_api import ACTIVATIONS, ParallelMLP
from .elastic import ElasticReport, shrink_grid, train_elastic
from .grid import Grid4D, GridConfig, enumerate_grid_configs, infeasibility_reason
from .parallel_layers import ParallelEmbedding, ParallelLayerNorm, ParallelLinear
from .parallel_loss import vocab_parallel_cross_entropy
from .vocab_parallel import VocabParallelEmbedding
from .parallel_transformer import ParallelBlock, ParallelGPT, permute_qkv_columns
from .pmm3d import (
    PMMCache,
    pmm3d_backward,
    pmm3d_forward,
    shard_input,
    shard_weight,
    unshard_input_grad,
    unshard_output,
    unshard_weight_grad,
)

__all__ = [
    "AxoNN",
    "axonn_init",
    "save_checkpoint",
    "load_checkpoint",
    "save_training_state",
    "load_training_state",
    "gather_training_arrays",
    "load_training_arrays",
    "verify_checkpoint",
    "CheckpointRing",
    "shrink_grid",
    "ElasticReport",
    "train_elastic",
    "Grid4D",
    "GridConfig",
    "enumerate_grid_configs",
    "infeasibility_reason",
    "pmm3d_forward",
    "pmm3d_backward",
    "shard_input",
    "shard_weight",
    "unshard_output",
    "unshard_input_grad",
    "unshard_weight_grad",
    "PMMCache",
    "ParallelLinear",
    "ParallelLayerNorm",
    "ParallelEmbedding",
    "ParallelGPT",
    "ParallelBlock",
    "permute_qkv_columns",
    "vocab_parallel_cross_entropy",
    "VocabParallelEmbedding",
    "all_reduce_t",
    "all_gather_t",
    "all_reduce_max_const",
    "all_to_all_t",
    "broadcast_parameters",
    "allreduce_gradients",
    "replicas_in_sync",
    "data_parallel_step",
    "DEGENERATE_SCHEMES",
    "DegenerateScheme",
    "make_degenerate_grid",
    "ParallelMLP",
    "ACTIVATIONS",
]
