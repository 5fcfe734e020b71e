"""3D convolution and pooling modules for the observation-embedding CNN.

The paper's observation embedding (Section 4.3) is::

    Conv3D(1, 64, 3) - Conv3D(64, 64, 3) - MaxPool3D(2) - Conv3D(64, 128, 3)
    - Conv3D(128, 128, 3) - Conv3D(128, 128, 3) - MaxPool3D(2) - FC(2048, 256)

These modules provide the building blocks; the full stack is assembled in
:mod:`repro.ppl.nn.embeddings` (scaled to the configured observation size).
"""

from __future__ import annotations

import math
from typing import Tuple, Union

from repro.tensor import functional as F
from repro.tensor.nn import init
from repro.tensor.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor

__all__ = ["Conv3d", "MaxPool3d"]


class Conv3d(Module):
    """3D convolution layer over ``(N, C_in, D, H, W)`` inputs, stride 1, with a bias.

    ``padding`` is one width for every side, one per dimension, or a
    ``(before, after)`` pair per dimension (:func:`F.conv_padding`).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, Tuple[int, int, int]] = 3,
        padding: F.Padding = 0,
        rng=None,
    ) -> None:
        super().__init__()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size, kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = tuple(kernel_size)
        self.padding = padding
        weight_shape = (out_channels, in_channels) + self.kernel_size
        self.weight = Parameter(init.kaiming_uniform(weight_shape, rng=rng))
        fan_in = in_channels * int(math.prod(self.kernel_size))
        bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
        self.bias = Parameter(init.uniform((out_channels,), -bound, bound, rng=rng))

    def forward(self, x: Tensor) -> Tensor:
        return F.conv3d(x, self.weight, self.bias, padding=self.padding)

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Spatial output shape for a given spatial input shape."""
        padding = F.conv_padding(self.padding)
        return tuple(
            input_shape[i] + sum(padding[i]) - self.kernel_size[i] + 1 for i in range(3)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Conv3d({self.in_channels}, {self.out_channels}, "
            f"kernel={self.kernel_size}, padding={self.padding})"
        )


class MaxPool3d(Module):
    """3D max-pooling layer over ``(N, C, D, H, W)`` inputs, in non-overlapping windows."""

    def __init__(self, kernel_size: Union[int, Tuple[int, int, int]] = 2) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool3d(x, kernel_size=self.kernel_size)

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        kernel = self.kernel_size
        if isinstance(kernel, int):
            kernel = (kernel, kernel, kernel)
        return tuple(input_shape[i] // kernel[i] for i in range(3))

    def __repr__(self) -> str:  # pragma: no cover
        return f"MaxPool3d(kernel={self.kernel_size})"
