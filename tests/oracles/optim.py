"""The optimizer of the equivalence tests."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


class SGD:
    """Plain (optionally momentum) SGD — used in equivalence tests where
    optimizer statefulness would obscure gradient comparisons."""

    def __init__(
        self, params: list[Parameter], lr: float, momentum: float = 0.0
    ) -> None:
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
