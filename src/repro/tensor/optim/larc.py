"""Layer-wise Adaptive Rate Control (LARC).

The paper's best-converging configuration for the 128k global minibatch is the
"Adam-LARC" optimizer (Ginsburg et al.; You et al. LARS): the base optimizer's
update for each layer is rescaled so that the *local* learning rate is
proportional to ``||w|| / ||update||``, clipped so it never exceeds the global
learning rate.  This stabilises very-large-minibatch training.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.optim.optimizer import Optimizer

__all__ = ["LARC"]


class LARC(Optimizer):
    """Wrap a base optimizer (Adam or SGD) with layer-wise adaptive rate control.

    Parameters
    ----------
    base:
        The wrapped optimizer; its update direction is reused, and the trust
        ratio is computed per tensor over views of the flat images.
    trust_coefficient:
        The eta coefficient in ``lr_local = eta * ||w|| / ||update||``.
    clip:
        If True (default) the local rate is clipped at the global rate
        (LARC-clip mode, the variant the paper uses); otherwise it scales
        freely (LARS-like).
    eps:
        Numerical floor for the update norm.
    """

    def __init__(self, base: Optimizer, trust_coefficient: float = 0.02, clip: bool = True, eps: float = 1e-8) -> None:
        # Note: we intentionally do not call super().__init__ with new params;
        # we mirror the base optimizer's parameter list.
        self.base = base
        self.params = base.params
        self._names = base._names
        self.trust_coefficient = float(trust_coefficient)
        self.clip = bool(clip)
        self.eps = float(eps)
        self._step_count = 0
        self.state = base.state

    @property
    def lr(self) -> float:
        return self.base.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.base.lr = value

    def zero_grad(self) -> None:
        self.base.zero_grad()

    def add_param_group(self, params, names=None) -> None:
        self.base.add_param_group(params, names)
        self.params = self.base.params
        self._names = self.base._names

    def step(self) -> None:
        self._step_count += 1
        self.base._step_count += 1
        image = self.base.flat_image()
        if image is None:
            return
        update = self.base.direction(image)
        global_lr = self.base.lr
        rates = []
        offset = 0
        for size in image.sizes:
            span = slice(offset, offset + size)
            offset += size
            param_norm = float(np.linalg.norm(image.data[span]))
            update_norm = float(np.linalg.norm(update[span]))
            if param_norm > 0 and update_norm > self.eps:
                local_lr = self.trust_coefficient * param_norm / (update_norm + self.eps)
                if self.clip:
                    rates.append(min(local_lr, global_lr))
                else:
                    rates.append(local_lr * global_lr)
            else:
                rates.append(global_lr)
        image.write(image.data - np.repeat(rates, image.sizes) * update)
