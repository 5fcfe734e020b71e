"""Adam optimizer (Kingma & Ba, 2014), the paper's baseline optimizer."""

from __future__ import annotations

import numpy as np

from repro.tensor.optim.optimizer import FlatImage, Optimizer

__all__ = ["Adam"]


#: the moments' decay rates and the denominator's floor (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam(Optimizer):
    """Adam with bias correction.

    A step runs once over the flat image of the parameters that have a
    gradient: the moments of every registered parameter live in two flat
    images, each parameter keeps its own step count ``t``, and a parameter
    without a gradient is skipped — its moments and ``t`` stay as they are.
    """

    def __init__(self, params, lr: float = 1e-3) -> None:
        super().__init__(params, lr)
        #: per registered parameter: element count and step count
        self._sizes = np.zeros(0, dtype=np.int64)
        self._t = np.zeros(0, dtype=np.int64)
        #: first and second moments of every registered parameter, end to end
        self._m = np.zeros(0)
        self._v = np.zeros(0)

    def _grow(self) -> None:
        """Give parameters registered since the last step zero moments and ``t = 0``."""
        new = self.params[len(self._t) :]
        if new:
            sizes = [param.data.size for param in new]
            self._sizes = np.concatenate([self._sizes, sizes])
            self._t = np.concatenate([self._t, np.zeros(len(new), dtype=np.int64)])
            self._m = np.concatenate([self._m, np.zeros(sum(sizes))])
            self._v = np.concatenate([self._v, np.zeros(sum(sizes))])

    def direction(self, image: FlatImage) -> np.ndarray:
        """The bias-corrected Adam direction over ``image``, advancing the moments."""
        self._grow()
        grad = image.grad
        mask = np.repeat(image.present, self._sizes)
        m = BETA1 * self._m[mask] + (1.0 - BETA1) * grad
        v = BETA2 * self._v[mask] + (1.0 - BETA2) * (grad * grad)
        self._m[mask], self._v[mask] = m, v
        self._t[image.present] += 1
        steps = self._t[image.present].tolist()
        m_hat = m / np.repeat([1.0 - BETA1**t for t in steps], image.sizes)
        v_hat = v / np.repeat([1.0 - BETA2**t for t in steps], image.sizes)
        return m_hat / (np.sqrt(v_hat) + EPS)

    def step(self) -> None:
        image = self.flat_image()
        if image is not None:
            image.write(image.data - self.lr * self.direction(image))
