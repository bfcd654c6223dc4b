"""Mixture-of-Experts extension: the authors' tensor-expert-data line.

The paper's reference [17] (Singh et al., ICS '23) extends AxoNN with a
hybrid tensor-expert-data parallelism for MoE models; this package
implements the MoE substrate — top-k routing, sparse expert dispatch,
the Switch load-balance loss — serially and under expert parallelism
(all-to-all dispatch/combine), verified equivalent.
"""

from .expert_parallel import ExpertParallelMoE
from .schedule import MoEPerfResult, all_to_all_time, simulate_moe_layer
from .layer import Expert, MoELayer, TopKRouter, load_balance_loss

__all__ = [
    "Expert",
    "TopKRouter",
    "MoELayer",
    "load_balance_loss",
    "ExpertParallelMoE",
    "MoEPerfResult",
    "all_to_all_time",
    "simulate_moe_layer",
]
