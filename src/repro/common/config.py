"""Configuration for the Etalumis reproduction.

The original system exposes a number of knobs (observation voxel shape, NN
hyperparameters, dataset locations, distributed-training parameters).  This
module centralises defaults in a single dataclass so that examples, tests and
benchmarks can be scaled down or up consistently.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

__all__ = ["Config"]


@dataclasses.dataclass
class Config:
    """Runtime configuration.

    Attributes
    ----------
    observation_shape:
        Shape ``(D, H, W)`` of the detector voxel observation.  The paper
        uses ``(20, 35, 35)``; the default here is a scaled-down grid that
        preserves 3-dimensionality while keeping CPU training tractable.
    lstm_hidden:
        Hidden size of the LSTM core of the inference network (paper: 512).
    lstm_stacks:
        Number of stacked LSTM layers (paper search: 1-4, chosen 1).
    proposal_mixture_components:
        Number of truncated-normal mixture components per continuous proposal
        (paper search: {5, 10, 25, 50}, chosen 10).
    observation_embedding_dim:
        Output dimension of the 3D-CNN observation embedding (paper: 256).
    address_embedding_dim:
        Learned per-address embedding size (paper: 64).
    sample_embedding_dim:
        Previous-sample embedding size (paper: 4).
    """

    observation_shape: Tuple[int, int, int] = (8, 11, 11)
    lstm_hidden: int = 64
    lstm_stacks: int = 1
    proposal_mixture_components: int = 5
    observation_embedding_dim: int = 32
    address_embedding_dim: int = 16
    sample_embedding_dim: int = 4

    def scaled_to_paper(self) -> "Config":
        """Return a copy using the paper's full-size hyperparameters."""
        return dataclasses.replace(
            self,
            observation_shape=(20, 35, 35),
            lstm_hidden=512,
            lstm_stacks=1,
            proposal_mixture_components=10,
            observation_embedding_dim=256,
            address_embedding_dim=64,
            sample_embedding_dim=4,
        )

    def replace(self, **kwargs) -> "Config":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)
