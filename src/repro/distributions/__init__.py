"""Probability distributions shared by the simulators, PPX and the PPL."""

from repro.distributions.distribution import (
    Distribution,
    distribution_from_dict,
    log_prob_total,
    register_distribution,
)
from repro.distributions.normal import Normal
from repro.distributions.uniform import Uniform
from repro.distributions.categorical import Categorical
from repro.distributions.truncated_normal import TruncatedNormal
from repro.distributions.mixture import Mixture
from repro.distributions.multivariate_normal import MultivariateNormal
from repro.distributions.scalars import Bernoulli, Beta, Exponential, Gamma, Poisson
from repro.distributions.batched import (
    BatchedCategorical,
    BatchedDistribution,
    BatchedMixtureOfTruncatedNormals,
)

__all__ = [
    "Distribution",
    "distribution_from_dict",
    "log_prob_total",
    "register_distribution",
    "Normal",
    "Uniform",
    "Categorical",
    "TruncatedNormal",
    "Mixture",
    "MultivariateNormal",
    "Beta",
    "Gamma",
    "Exponential",
    "Poisson",
    "Bernoulli",
    "BatchedDistribution",
    "BatchedCategorical",
    "BatchedMixtureOfTruncatedNormals",
]
