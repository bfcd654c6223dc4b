"""Layer-to-stage partitioning for pipeline parallelism.

Pipeline parallelism (GPipe [15], Megatron-LM's PP dimension [6]) is the
model-parallel approach the paper *contrasts* with: entire layers are
assigned to each GPU instead of parallelizing within layers.  This
module provides the balanced contiguous partitioning used by those
systems: ``num_layers`` transformer blocks split into ``num_stages``
contiguous runs whose sizes differ by at most one, with the embedding
attached to the first stage and the LM head to the last.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StagePlan", "partition_layers"]


@dataclass(frozen=True)
class StagePlan:
    """Which transformer blocks each pipeline stage owns."""

    ranges: tuple[tuple[int, int], ...]  # [start, end) per stage

    @property
    def num_stages(self) -> int:
        return len(self.ranges)

    def layers_in(self, stage: int) -> range:
        lo, hi = self.ranges[stage]
        return range(lo, hi)

    def max_layers_per_stage(self) -> int:
        return max(hi - lo for lo, hi in self.ranges)


def partition_layers(num_layers: int, num_stages: int) -> StagePlan:
    """Balanced contiguous partition: sizes differ by at most one, with
    the larger stages first (they also carry the embedding)."""
    if num_stages < 1:
        raise ValueError("need at least one stage")
    if num_stages > num_layers:
        raise ValueError(
            f"{num_stages} stages exceed {num_layers} layers — empty "
            "stages waste GPUs"
        )
    base = num_layers // num_stages
    extra = num_layers % num_stages
    ranges = []
    start = 0
    for s in range(num_stages):
        size = base + (1 if s < extra else 0)
        ranges.append((start, start + size))
        start += size
    return StagePlan(tuple(ranges))
