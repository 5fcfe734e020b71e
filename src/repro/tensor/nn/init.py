"""Weight initialisation schemes."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.common.rng import RandomState, get_rng

__all__ = ["kaiming_uniform", "uniform"]


def _rng(rng: RandomState = None) -> np.random.Generator:
    return (rng or get_rng()).generator


def uniform(shape: Tuple[int, ...], low: float, high: float, rng: RandomState = None) -> np.ndarray:
    return _rng(rng).uniform(low, high, size=shape)


#: the gain of PyTorch's Linear/Conv default, negative slope ``a = sqrt(5)``
_KAIMING_GAIN = math.sqrt(2.0 / (1.0 + math.sqrt(5) ** 2))


def kaiming_uniform(shape: Tuple[int, ...], rng: RandomState = None) -> np.ndarray:
    """He/Kaiming uniform initialisation (PyTorch's default for Linear/Conv)."""
    if len(shape) < 2:
        fan_in = shape[0]
    else:
        receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
        fan_in = shape[1] * receptive
    bound = _KAIMING_GAIN * math.sqrt(3.0 / fan_in)
    return _rng(rng).uniform(-bound, bound, size=shape)
