"""Optimizer base class."""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.tensor.nn.module import Parameter

__all__ = ["Optimizer", "FlatImage"]


class FlatImage(NamedTuple):
    """The parameters one step moves — those with a gradient — laid end to end."""

    #: per registered parameter: does it have a gradient (is it in this image)
    present: np.ndarray
    params: List[Parameter]
    sizes: List[int]
    data: np.ndarray
    grad: np.ndarray

    def write(self, values: np.ndarray) -> None:
        """Rebind each parameter's ``data`` to a new array holding its span of
        ``values``: no buffer a caller holds is changed in place, and a
        parameter that sits out later steps keeps only its own values alive,
        not the whole image of its last step."""
        offset = 0
        for param, size in zip(self.params, self.sizes):
            param.data = values[offset : offset + size].reshape(param.data.shape).copy()
            offset += size


class Optimizer:
    """Base class for gradient-based optimizers.

    Parameters can be supplied either as a flat list (like
    ``optim.Adam(model.parameters())``) or as ``named_parameters()`` pairs,
    whose names are dropped.
    """

    def __init__(self, params: Union[Iterable[Parameter], Iterable], lr: float) -> None:
        params = list(params)
        if params and isinstance(params[0], tuple):
            params = [p for _, p in params]
        self.params: List[Parameter] = params
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.lr = float(lr)

    def add_param_group(self, params: Sequence[Parameter]) -> None:
        """Register newly created parameters (dynamic layer growth in online mode)."""
        self.params.extend(params)

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def flat_image(self) -> Optional[FlatImage]:
        """The parameters that have a gradient, as one flat image (``None``: none has)."""
        present = np.array([param.grad is not None for param in self.params], dtype=bool)
        params = [param for param in self.params if param.grad is not None]
        if not params:
            return None
        return FlatImage(
            present,
            params,
            [param.data.size for param in params],
            np.concatenate([param.data.reshape(-1) for param in params]),
            np.concatenate([param.grad.reshape(-1) for param in params]),
        )

    def direction(self, image: FlatImage) -> np.ndarray:
        """The learning-rate-free update over ``image``; LARC rescales it per tensor."""
        return image.grad

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError
