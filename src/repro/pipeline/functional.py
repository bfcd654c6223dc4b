"""Functional pipeline-parallel training over virtual stages.

A GPipe-style execution of the serial GPT: the model's blocks are
partitioned across virtual stages; each microbatch flows forward stage
by stage with the activation *physically cut* at every stage boundary,
and gradients flow back across the same boundaries during the backward
pass.  Every boundary crossing is a :func:`repro.runtime.send_recv`
message from one stage (virtual rank) to its neighbour, so it is traced,
counted by telemetry and a fault site like any other message.  The
final parameter gradients are verified equal to serial large-batch
training (microbatch losses are averaged, the GPipe convention).

This substrate exists because the paper's baselines (Megatron-LM's
hybrid, MT-NLG, Megatron-DeepSpeed — Table I) all use pipeline
parallelism; :mod:`repro.pipeline.schedule` models their performance.
"""

from __future__ import annotations

import numpy as np

from ..nn.transformer import GPT
from ..runtime import CommTracer, send_recv
from ..tensor import Tensor
from ..tensor import functional as F

__all__ = ["PipelineGPT"]


class PipelineGPT:
    """A serial GPT executed as a GPipe pipeline over virtual stages.

    ``model`` keeps owning the parameters (each stage holds a disjoint
    subset of blocks, plus embeddings on stage 0 and the LN+head on the
    last stage); this class orchestrates the microbatched schedule.
    Stage ``i`` is virtual rank ``i``; ``tracer`` records each boundary
    message as a send + recv event pair, tagged
    ``pipeline.<activation|gradient>:mb<m>``.
    """

    def __init__(
        self,
        model: GPT,
        stage_plan,
        tracer: CommTracer | None = None,
    ) -> None:
        from .partition import StagePlan

        if not isinstance(stage_plan, StagePlan):
            raise TypeError("stage_plan must be a StagePlan")
        if stage_plan.ranges[-1][1] != model.cfg.num_layers:
            raise ValueError(
                f"plan covers {stage_plan.ranges[-1][1]} layers but the "
                f"model has {model.cfg.num_layers}"
            )
        self.model = model
        self.plan = stage_plan
        self.tracer = tracer

    def _send(
        self, kind: str, src: int, dst: int, microbatch: int, arr: np.ndarray
    ) -> np.ndarray:
        return send_recv(
            arr, src, dst, tracer=self.tracer,
            tag=f"pipeline.{kind}:mb{microbatch}",
        )

    @property
    def num_stages(self) -> int:
        return self.plan.num_stages

    # -- stage-local computation ------------------------------------------

    def _stage_forward(self, stage: int, x: Tensor, ids: np.ndarray) -> Tensor:
        model = self.model
        if stage == 0:
            b, s = ids.shape
            pos = np.arange(s)[None, :].repeat(b, axis=0)
            x = model.wte(ids) + model.wpe(pos)
        for layer in self.plan.layers_in(stage):
            x = model.blocks[layer](x)
        if stage == self.num_stages - 1:
            x = model.ln_f(x)
            x = x @ model.wte.weight.t()
        return x

    # -- the GPipe schedule --------------------------------------------------

    def loss(
        self,
        ids: np.ndarray,
        num_microbatches: int,
        loss_mask: np.ndarray | None = None,
    ) -> float:
        """One full training iteration: forward all microbatches through
        all stages, then backward.  Gradients accumulate into the model's
        parameters (averaged over microbatches); the mean loss is
        returned as a float (the graph is consumed internally — this is
        an iteration driver, not a graph node)."""
        ids = np.asarray(ids)
        b = ids.shape[0]
        if b % num_microbatches:
            raise ValueError(
                f"batch {b} not divisible into {num_microbatches} microbatches"
            )
        mb = b // num_microbatches
        total_loss = 0.0

        # Per-microbatch, per-boundary cut tensors kept for backward.
        cuts: list[list[tuple[Tensor, Tensor]]] = []  # [micro][boundary] = (out, re-wrapped in)
        outputs: list[Tensor] = []
        inputs_list: list[np.ndarray] = []
        masks: list[np.ndarray | None] = []

        for m in range(num_microbatches):
            chunk = ids[m * mb : (m + 1) * mb]
            inputs = chunk[:, :-1]
            inputs_list.append(chunk)
            masks.append(
                None if loss_mask is None else np.asarray(loss_mask)[m * mb : (m + 1) * mb]
            )
            x: Tensor | None = None
            boundary_pairs = []
            for stage in range(self.num_stages):
                out = self._stage_forward(stage, x, inputs)
                if stage < self.num_stages - 1:
                    # The activation leaves this stage's graph and
                    # re-enters the next as a fresh leaf.
                    received = self._send("activation", stage, stage + 1, m, out.data)
                    nxt = Tensor(received, requires_grad=True)
                    boundary_pairs.append((out, nxt))
                    x = nxt
                else:
                    outputs.append(out)
            cuts.append(boundary_pairs)

        # Backward, microbatch by microbatch (GPipe's flush phase).
        scale = 1.0 / num_microbatches
        for m in range(num_microbatches):
            chunk = inputs_list[m]
            targets = chunk[:, 1:]
            mask = None if masks[m] is None else masks[m][:, 1:]
            loss = F.cross_entropy(outputs[m], targets, loss_mask=mask)
            total_loss += loss.item()
            loss.backward(np.asarray(scale))
            # Propagate across stage boundaries, last to first.
            for stage in reversed(range(self.num_stages - 1)):
                out, nxt = cuts[m][stage]
                g = nxt.grad
                assert g is not None, "boundary received no gradient"
                out.backward(self._send("gradient", stage + 1, stage, m, g))
        return total_loss / num_microbatches
