"""Dense layers and simple activations as modules."""

from __future__ import annotations

import math

from repro.tensor import functional as F
from repro.tensor.nn import init
from repro.tensor.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor

__all__ = ["Linear", "ReLU", "Flatten"]


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with PyTorch-compatible weight layout."""

    def __init__(self, in_features: int, out_features: int, rng=None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng=rng))
        bound = 1.0 / math.sqrt(in_features) if in_features > 0 else 0.0
        self.bias = Parameter(init.uniform((out_features,), -bound, bound, rng=rng))

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear(in={self.in_features}, out={self.out_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
