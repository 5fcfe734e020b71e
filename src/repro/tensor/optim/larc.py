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


#: eta in ``lr_local = eta * ||w|| / ||update||``
TRUST_COEFFICIENT = 0.02
#: numerical floor for the update norm
EPS = 1e-8


class LARC(Optimizer):
    """Wrap a base optimizer (Adam) with layer-wise adaptive rate control.

    ``base``'s update direction is reused, and the trust ratio is computed per
    tensor over views of the flat images.  The local rate is clipped at the
    global rate (LARC-clip mode, the variant the paper uses).  LARC shares
    ``base``'s parameter list, so the inherited :meth:`add_param_group`
    registers a new parameter with both.
    """

    def __init__(self, base: Optimizer) -> None:
        # Note: we intentionally do not call super().__init__ with new params;
        # we mirror the base optimizer's parameter list.
        self.base = base
        self.params = base.params

    @property
    def lr(self) -> float:
        return self.base.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.base.lr = value

    def zero_grad(self) -> None:
        self.base.zero_grad()

    def step(self) -> None:
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
            if param_norm > 0 and update_norm > EPS:
                local_lr = TRUST_COEFFICIENT * param_norm / (update_norm + EPS)
                rates.append(min(local_lr, global_lr))
            else:
                rates.append(global_lr)
        image.write(image.data - np.repeat(rates, image.sizes) * update)
