"""Mapping of global ranks to nodes and devices.

Ranks are placed on nodes in block order (ranks ``0..k-1`` fill node 0,
``k..2k-1`` fill node 1, ...), matching how SLURM/PBS launchers place
processes on Perlmutter, Frontier, and Alps.  Combined with the
hierarchical process-group construction of :mod:`repro.core.grid`
(X innermost, data outermost), this is the placement that the paper's
bandwidth model (Section V-B) assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import MachineSpec

__all__ = ["Placement", "node_of", "local_rank_of"]


def node_of(rank: int, gpus_per_node: int) -> int:
    """Node index hosting ``rank`` under block placement."""
    return rank // gpus_per_node


def local_rank_of(rank: int, gpus_per_node: int) -> int:
    """Device index of ``rank`` within its node under block placement."""
    return rank % gpus_per_node


@dataclass(frozen=True)
class Placement:
    """A job allocation: ``num_gpus`` devices of ``machine``.

    ``strategy`` controls the rank -> device mapping:

    * ``"block"`` (default, and what SLURM/PBS do): consecutive ranks
      fill a node before moving to the next — the mapping the paper's
      hierarchical bandwidth model (Section V-B) assumes;
    * ``"round_robin"``: rank ``r`` lands on node ``r % num_nodes`` — a
      pathological mapping that scatters every inner process group
      across nodes, provided to *quantify* why the block assumption
      matters (cf. the task-mapping literature the paper cites
      [30]-[33]).
    """

    machine: MachineSpec
    num_gpus: int
    strategy: str = "block"

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        if self.num_gpus > self.machine.total_gpus:
            raise ValueError(
                f"{self.num_gpus} devices exceeds {self.machine.name}'s "
                f"{self.machine.total_gpus}"
            )
        if self.strategy not in ("block", "round_robin"):
            raise ValueError(
                f"unknown placement strategy {self.strategy!r}"
            )
        if self.strategy == "round_robin" and self.num_gpus % self.num_nodes:
            raise ValueError(
                "round-robin placement needs num_gpus divisible by nodes"
            )

    @property
    def gpus_per_node(self) -> int:
        return self.machine.gpus_per_node

    @property
    def num_nodes(self) -> int:
        return self.machine.num_nodes(self.num_gpus)

    def node_of(self, rank: int) -> int:
        """Node hosting global rank ``rank``."""
        self._check(rank)
        if self.strategy == "round_robin":
            return rank % self.num_nodes
        return node_of(rank, self.gpus_per_node)

    def local_rank_of(self, rank: int) -> int:
        """Intra-node device index of global rank ``rank``."""
        self._check(rank)
        if self.strategy == "round_robin":
            return rank // self.num_nodes
        return local_rank_of(rank, self.gpus_per_node)

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.num_gpus:
            raise ValueError(
                f"rank {rank} outside allocation of {self.num_gpus}"
            )
