"""Optimizers and learning-rate schedules."""

from repro.tensor.optim.optimizer import Optimizer
from repro.tensor.optim.adam import Adam
from repro.tensor.optim.larc import LARC
from repro.tensor.optim.lr_scheduler import ConstantLR, LRScheduler, PolynomialDecayLR

__all__ = [
    "Optimizer",
    "Adam",
    "LARC",
    "LRScheduler",
    "ConstantLR",
    "PolynomialDecayLR",
]
