"""Learning-rate schedules used in Section 7.1.2.

The paper compares: no decay, multi-step (per-epoch) decay, and polynomial
decay of order 1 or 2 computed per iteration, finding order-2 polynomial decay
most effective, decaying from 5.7e-4 to 2e-5 over 12 epochs for the 128k-run.
The trainers offer no decay and polynomial decay.
"""

from __future__ import annotations

from repro.tensor.optim.optimizer import Optimizer

__all__ = [
    "LRScheduler",
    "ConstantLR",
    "PolynomialDecayLR",
]


class LRScheduler:
    """Base class: call :meth:`step` once per iteration (or epoch)."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_step = 0

    def get_lr(self, step: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self) -> float:
        self.last_step += 1
        lr = self.get_lr(self.last_step)
        self.optimizer.lr = lr
        return lr


class ConstantLR(LRScheduler):
    """No decay."""

    def get_lr(self, step: int) -> float:
        return self.base_lr


class PolynomialDecayLR(LRScheduler):
    """Polynomial decay from ``base_lr`` to ``end_lr`` over ``total_steps``.

    ``lr(t) = end + (base - end) * (1 - t/total)^power`` with ``power`` 1 or 2;
    the paper uses order 2, decaying 5.7e-4 -> 2e-5 over 12 epochs.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        total_steps: int,
        end_lr: float = 0.0,
        power: float = 2.0,
    ) -> None:
        super().__init__(optimizer)
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.total_steps = int(total_steps)
        self.end_lr = float(end_lr)
        self.power = float(power)

    def get_lr(self, step: int) -> float:
        progress = min(step, self.total_steps) / self.total_steps
        return self.end_lr + (self.base_lr - self.end_lr) * (1.0 - progress) ** self.power
