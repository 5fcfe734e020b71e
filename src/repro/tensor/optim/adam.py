"""Adam optimizer (Kingma & Ba, 2014), the paper's baseline optimizer."""

from __future__ import annotations

import numpy as np

from repro.tensor.optim.optimizer import FlatImage, Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adam with bias correction and optional decoupled weight decay.

    A step runs once over the flat image of the parameters that have a
    gradient: the moments of every registered parameter live in two flat
    images, each parameter keeps its own step count ``t``, and a parameter
    without a gradient is skipped — its moments and ``t`` stay as they are.
    """

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
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
        if self.weight_decay:
            grad = grad + self.weight_decay * image.data
        mask = np.repeat(image.present, self._sizes)
        m = self.beta1 * self._m[mask] + (1.0 - self.beta1) * grad
        v = self.beta2 * self._v[mask] + (1.0 - self.beta2) * (grad * grad)
        self._m[mask], self._v[mask] = m, v
        self._t[image.present] += 1
        steps = self._t[image.present].tolist()
        m_hat = m / np.repeat([1.0 - self.beta1**t for t in steps], image.sizes)
        v_hat = v / np.repeat([1.0 - self.beta2**t for t in steps], image.sizes)
        return m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self) -> None:
        image = self.flat_image()
        if image is not None:
            image.write(image.data - self.lr * self.direction(image))
