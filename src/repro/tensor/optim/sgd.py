"""Stochastic gradient descent with optional momentum and weight decay."""

from __future__ import annotations

import numpy as np

from repro.tensor.optim.optimizer import FlatImage, Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """Plain / momentum SGD (Algorithm 2's generic parameter update)."""

    def __init__(self, params, lr: float = 1e-3, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)

    def direction(self, image: FlatImage) -> np.ndarray:
        """The weight-decayed gradient (momentum is not applied under LARC)."""
        if self.weight_decay:
            return image.grad + self.weight_decay * image.data
        return image.grad

    def step(self) -> None:
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                state = self.state.setdefault(id(param), {})
                buf = state.get("momentum_buffer")
                if buf is None:
                    buf = np.zeros_like(param.data)
                buf = self.momentum * buf + grad
                state["momentum_buffer"] = buf
                update = buf
            else:
                update = grad
            param.data = param.data - self.lr * update
