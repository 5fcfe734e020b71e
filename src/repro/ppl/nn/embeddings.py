"""Embedding components of the IC inference network (Section 4.3).

The LSTM core receives, at each time step, a concatenation of three
embeddings:

* an **observation embedding** produced by a 3D convolutional network acting
  as a feature extractor over the detector voxels,
* a learned **address embedding** representing the identity of the random
  choice A_t, and
* an address-specific **sample embedding** encoding the value drawn at the
  previous time step.

The paper's full-size observation CNN is
``Conv3D(1,64,3)-Conv3D(64,64,3)-MaxPool3D(2)-Conv3D(64,128,3)-Conv3D(128,128,3)
-Conv3D(128,128,3)-MaxPool3D(2)-FC(2048,256)``; the default here is a scaled
configuration with the same structure (conv/conv/pool/conv/pool/FC) chosen to
fit the configured observation grid, with the paper architecture available via
:meth:`ObservationEmbedding3DCNN.paper_architecture`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.distributions import Categorical, Distribution
from repro.tensor import functional as F
from repro.tensor.nn import Conv3d, Flatten, Linear, MaxPool3d, Module, Parameter, ReLU, Sequential
from repro.tensor.tensor import Tensor

__all__ = ["ObservationEmbedding3DCNN", "ObservationEmbeddingFC", "AddressEmbedding", "SampleEmbedding"]

#: every conv of the observation CNN is 3x3x3 at stride 1: padded by one voxel
#: on each side, it keeps the grid's size
KERNEL_SIZE = 3
#: width of the fully-connected embedding's hidden layer
FC_HIDDEN_DIM = 32


class ObservationEmbedding3DCNN(Module):
    """3D-CNN feature extractor mapping a voxel grid to an embedding vector."""

    def __init__(
        self,
        observation_shape: Tuple[int, int, int],
        embedding_dim: int = 32,
        channels: Sequence[int] = (8, 16),
        rng=None,
    ) -> None:
        super().__init__()
        self.observation_shape = tuple(observation_shape)
        self.embedding_dim = embedding_dim
        self.channels = tuple(channels)
        layers = []
        in_channels = 1
        spatial = self.observation_shape
        for out_channels in channels:
            # Pool only while the grid is still large enough to halve.  The
            # floor-mode pool reads an even prefix of each dimension, so the
            # conv before it pads one voxel less after an odd dimension and
            # computes only the voxels the pool reads.  The pool runs before
            # the ReLU: max commutes with a monotone map, so this is
            # conv -> ReLU -> pool exactly, with the ReLU on the pooled (8x
            # smaller) volume.
            pooled = all(s >= 2 for s in spatial)
            padding = tuple((1, 1 - s % 2) for s in spatial) if pooled else 1
            conv = Conv3d(in_channels, out_channels, kernel_size=KERNEL_SIZE, padding=padding, rng=rng)
            layers.append(conv)
            spatial = conv.output_shape(spatial)
            if pooled:
                pool = MaxPool3d(2)
                layers.append(pool)
                spatial = pool.output_shape(spatial)
            layers.append(ReLU())
            in_channels = out_channels
        layers.append(Flatten())
        flat_dim = in_channels * int(np.prod(spatial))
        layers.append(Linear(flat_dim, embedding_dim, rng=rng))
        layers.append(ReLU())
        self.network = Sequential(*layers)
        self._flat_dim = flat_dim

    @classmethod
    def paper_architecture(cls, rng=None) -> "ObservationEmbedding3DCNN":
        """The full-size architecture from Section 4.3 (20x35x35 voxels, a 256-wide embedding)."""
        return cls(
            observation_shape=(20, 35, 35),
            embedding_dim=256,
            channels=(64, 64, 128, 128, 128),
            rng=rng,
        )

    def forward(self, observation: Tensor) -> Tensor:
        """Embed a batch of observations.

        Accepts ``(B, D, H, W)`` or ``(D, H, W)`` arrays/tensors and inserts
        the single input channel automatically.
        """
        if not isinstance(observation, Tensor):
            observation = Tensor(np.asarray(observation, dtype=float))
        if observation.ndim == 3:
            observation = observation.reshape(1, *observation.shape)
        if observation.ndim == 4:
            observation = observation.reshape(observation.shape[0], 1, *observation.shape[1:])
        elif observation.ndim != 5:
            raise ValueError(f"expected a 3D/4D/5D observation, got shape {observation.shape}")
        return self.network(observation)


class ObservationEmbeddingFC(Module):
    """A cheap fully-connected observation embedding (for tests and tiny models)."""

    def __init__(self, input_dim: int, embedding_dim: int = 16, rng=None) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.embedding_dim = embedding_dim
        self.network = Sequential(
            Linear(input_dim, FC_HIDDEN_DIM, rng=rng),
            ReLU(),
            Linear(FC_HIDDEN_DIM, embedding_dim, rng=rng),
            ReLU(),
        )

    def forward(self, observation: Tensor) -> Tensor:
        if not isinstance(observation, Tensor):
            observation = Tensor(np.asarray(observation, dtype=float))
        flat = observation.reshape(observation.shape[0], -1) if observation.ndim > 1 else observation.reshape(1, -1)
        return self.network(flat)


class AddressEmbedding(Module):
    """A learned vector representing the identity of one simulator address."""

    def __init__(self, embedding_dim: int, rng=None) -> None:
        super().__init__()
        from repro.tensor.nn import init

        self.embedding_dim = embedding_dim
        scale = 1.0 / np.sqrt(embedding_dim)
        self.vector = Parameter(init.uniform((embedding_dim,), -scale, scale, rng=rng))

    def forward(self, batch_size: int = 1) -> Tensor:
        """Return the embedding broadcast to ``(batch_size, dim)``."""
        return self.vector.reshape(1, self.embedding_dim) * Tensor(np.ones((batch_size, 1)))


class SampleEmbedding(Module):
    """Address-specific embedding of the value drawn at the previous time step.

    The input representation depends on the prior at the *previous* address:
    continuous draws are standardised scalars, categorical draws are one-hot
    vectors.  ``value_dim`` is therefore 1 for continuous and K for
    categorical priors.
    """

    def __init__(self, value_dim: int, embedding_dim: int = 4, rng=None) -> None:
        super().__init__()
        self.value_dim = value_dim
        self.embedding_dim = embedding_dim
        self.layer = Linear(value_dim, embedding_dim, rng=rng)

    def forward(self, values: Tensor) -> Tensor:
        return self.layer(values).relu()

    @staticmethod
    def value_dim_for(distribution: Distribution) -> int:
        if isinstance(distribution, Categorical):
            return distribution.num_categories
        return 1

    @staticmethod
    def encode_values(distribution: Optional[Distribution], values) -> np.ndarray:
        """Encode raw sampled values into the layer's input representation."""
        arr = np.asarray(values)
        if isinstance(distribution, Categorical):
            encoded = np.zeros((arr.size, distribution.num_categories))
            encoded[np.arange(arr.size), arr.astype(np.int64).reshape(-1)] = 1.0
            return encoded
        scalars = arr.astype(float).reshape(-1, 1)
        if distribution is not None:
            mean = float(np.mean(np.atleast_1d(distribution.mean)))
            std = float(np.sqrt(np.mean(np.atleast_1d(distribution.variance))))
            if std > 0 and np.isfinite(std):
                scalars = (scalars - mean) / std
        return scalars
