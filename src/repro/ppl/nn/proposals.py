"""Proposal layers of the IC inference network (Section 4.3).

The LSTM output at each time step is fed into *address-specific proposal
layers* which produce the parameters of the proposal distribution q(x_t | ...)
for the latent variable at that address:

* for continuous priors, a **mixture of truncated normal distributions**
  (truncated to the prior support for bounded priors such as Uniform), and
* for categorical priors, a **categorical distribution**.

Each proposal layer offers two views of the same parameterisation:

* :meth:`log_prob` — a differentiable (autograd) log-density of recorded
  values given the LSTM hidden state, used in the training loss
  ``-E[log q_phi(x|y)]`` of Algorithm 1, and
* :meth:`proposal_batch` — what guided execution draws from
  (:class:`repro.ppl.nn.inference_network.BatchedProposalSession`): one
  forward pass over a ``(B, hidden)`` batch of LSTM outputs yields ONE
  :class:`repro.distributions.batched.BatchedDistribution` holding the whole
  address group's ``(B, K)`` parameters, drawn and scored in bulk
  (``sample_rows`` / ``log_prob_rows``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (packing imports us)
    from repro.data.packing import PackedStep

from repro.distributions import (
    BatchedCategorical,
    BatchedDistribution,
    BatchedMixtureOfTruncatedNormals,
    Categorical,
    Distribution,
)
from repro.distributions.batched import MixtureScratch
from repro.distributions.geometry import PriorGeometry, prior_geometry
from repro.tensor import functional as F
from repro.tensor.nn import Linear, Module, ReLU, Sequential
from repro.tensor.tensor import Tensor

__all__ = [
    "ProposalLayer",
    "ProposalNormalMixture",
    "ProposalCategorical",
    "make_proposal_layer",
]

#: width of every proposal layer's hidden layer
HIDDEN_DIM = 32


class ProposalLayer(Module):
    """Common interface of address-specific proposal layers."""

    def log_prob(self, hidden: Tensor, values, priors: Sequence[Distribution]) -> Tensor:
        """Differentiable log q(values | hidden) summed over the batch."""
        raise NotImplementedError

    def log_prob_packed(self, hidden: Tensor, step: "PackedStep") -> Tensor:
        """Differentiable log q over an address's packed training rows.

        The vectorised training loss runs the LSTM over every step first and
        then calls each address's layer once: ``hidden`` is ``(N, hidden_dim)``
        with one row per ``(trace, step)`` at this address, across every
        step and pack of the minibatch, and ``step`` is those rows'
        :class:`repro.data.packing.PackedStep` arrays joined by
        :func:`repro.data.packing.concat_steps` (values column,
        :class:`PriorGeometry`, or category indices, precomputed at
        pack-build time).  The built-in layers override this to skip every
        per-trace Python loop; this base implementation falls back to
        :meth:`log_prob` on the joined per-trace objects, so custom layers
        keep working (and so do packs whose prior family does not match the
        layer).  Overrides must evaluate the expression :meth:`log_prob`
        evaluates on the same rows.  The ``vectorized_loss=False`` reference
        path calls :meth:`log_prob` once per step instead, so the two losses
        agree within floating-point tolerance (a sum in another order), not
        bit for bit.
        """
        return self.log_prob(hidden, step.values, step.priors)

    def proposal_batch(self, hidden: Tensor, priors: Sequence[Distribution]) -> BatchedDistribution:
        """The group's proposals as one array-parameterised batched distribution.

        ``hidden`` is ``(B, hidden_dim)`` and ``priors`` holds the B priors
        at the shared address (their parameters may differ per trace); row
        ``i`` is trace ``i``'s proposal, drawn and scored in one
        ``sample_rows`` / ``log_prob_rows`` pass.
        """
        raise NotImplementedError


class ProposalNormalMixture(ProposalLayer):
    """Mixture-of-(truncated-)normals proposal for continuous latents.

    The layer is a two-layer NN whose outputs parameterise K means, K scales
    and K mixture logits.  Means are produced in a normalised coordinate and
    rescaled to the prior's location/scale (or support, for bounded priors) at
    call time, so the same layer works even if the prior's parameters vary a
    little between traces at the same address.
    """

    def __init__(self, input_dim: int, num_components: int = 5, rng=None) -> None:
        super().__init__()
        self.num_components = num_components
        self.body = Sequential(Linear(input_dim, HIDDEN_DIM, rng=rng), ReLU())
        self.head_means = Linear(HIDDEN_DIM, num_components, rng=rng)
        self.head_scales = Linear(HIDDEN_DIM, num_components, rng=rng)
        self.head_logits = Linear(HIDDEN_DIM, num_components, rng=rng)

    # ------------------------------------------------------------- parameters
    def _raw_parameters(self, hidden: Tensor):
        features = self.body(hidden)
        raw_means = self.head_means(features)      # (B, K), in normalised space
        raw_scales = self.head_scales(features)    # (B, K)
        logits = self.head_logits(features)        # (B, K)
        return raw_means, raw_scales, logits

    def _transformed_parameters(self, hidden: Tensor, priors: Sequence[Distribution]):
        """Map raw NN outputs to per-batch-element (means, scales, log_weights)."""
        return self._transformed_from_geometry(hidden, prior_geometry(priors))

    def _transformed_from_geometry(self, hidden: Tensor, geometry: PriorGeometry):
        """The array core of :meth:`_transformed_parameters` (no prior objects).

        Emission never differentiates, so the parameters come back as plain
        arrays from the same map the training density scores under.
        """
        raw_means, raw_scales, logits = self._raw_parameters(hidden)
        means, comp_scales, log_weights = F.truncated_normal_mixture_parameters(
            raw_means.data, raw_scales.data, logits.data, geometry
        )
        return means, comp_scales, log_weights, geometry.lows, geometry.highs, geometry.bounded

    # ----------------------------------------------------------------- training
    def log_prob(self, hidden: Tensor, values, priors: Sequence[Distribution]) -> Tensor:
        values_arr = np.asarray(values, dtype=float).reshape(-1, 1)   # (B, 1)
        return self._log_prob_from_geometry(hidden, values_arr, prior_geometry(priors))

    def log_prob_packed(self, hidden: Tensor, step: "PackedStep") -> Tensor:
        geometry = step.geometry
        if geometry is None:
            # Prior family did not match this layer at pack time: score
            # through the per-object reference path.
            return self.log_prob(hidden, step.values, step.priors)
        return self._log_prob_from_geometry(hidden, step.values_column, geometry)

    def _log_prob_from_geometry(
        self, hidden: Tensor, values_column: np.ndarray, geometry: PriorGeometry
    ) -> Tensor:
        """Shared differentiable density: the per-object ``log_prob`` and the
        packed path both evaluate exactly this expression (one fused autograd
        node over the raw network outputs), so on the same rows they agree
        bit for bit.  The components are the ones
        :meth:`_transformed_from_geometry` emits proposals from."""
        raw_means, raw_scales, logits = self._raw_parameters(hidden)
        return F.truncated_normal_mixture_log_prob(
            raw_means, raw_scales, logits, values_column, geometry
        ).sum()

    # ---------------------------------------------------------------- inference
    def proposal_batch(self, hidden: Tensor, priors: Sequence[Distribution]) -> BatchedDistribution:
        """The whole group's proposals as ONE array-parameterised mixture.

        No per-trace ``Mixture`` (and no B·K component objects) is ever
        built: the batched object holds the ``(B, K)`` parameter arrays and
        samples / scores row ``i`` bit-identically to its stand-alone
        ``row_distribution(i)``.
        """
        means, scales, log_weights, lows, highs, bounded = self._transformed_parameters(hidden, list(priors))
        return BatchedMixtureOfTruncatedNormals(
            means,
            scales,
            np.exp(log_weights),
            lows,
            highs,
            bounded=bounded,
        )

    def proposal_batch_into(
        self, hidden: Tensor, geometry: PriorGeometry, scratch: MixtureScratch
    ) -> BatchedMixtureOfTruncatedNormals:
        """:meth:`proposal_batch` from the group's prior geometry, built into ``scratch``.

        A planned step's constructor: ``BatchedMixtureOfTruncatedNormals.build_into``
        evaluates ``__init__``'s expressions into the scratch's ``(B_max, K)``
        buffers, so rows sample and score bit-identically to
        :meth:`proposal_batch` on priors of this geometry, with no fresh
        ``(B, K)`` array and no validation pass.  The result aliases the
        scratch: at most one per scratch may be live.
        """
        means, scales, log_weights, lows, highs, bounded = self._transformed_from_geometry(hidden, geometry)
        weights = np.exp(log_weights, out=scratch.weights[: means.shape[0]])
        return BatchedMixtureOfTruncatedNormals.build_into(
            scratch, means, scales, weights, lows, highs, bounded
        )


class ProposalCategorical(ProposalLayer):
    """Categorical proposal for discrete latents (e.g. the decay channel)."""

    def __init__(self, input_dim: int, num_categories: int, rng=None) -> None:
        super().__init__()
        self.num_categories = num_categories
        self.network = Sequential(
            Linear(input_dim, HIDDEN_DIM, rng=rng), ReLU(), Linear(HIDDEN_DIM, num_categories, rng=rng)
        )

    def log_prob(self, hidden: Tensor, values, priors: Sequence[Distribution]) -> Tensor:
        indices = np.asarray(values, dtype=np.int64).reshape(-1)
        return self._log_prob_indices(hidden, indices)

    def log_prob_packed(self, hidden: Tensor, step: "PackedStep") -> Tensor:
        if step.indices is None:
            return self.log_prob(hidden, step.values, step.priors)
        return self._log_prob_indices(hidden, step.indices)

    def _log_prob_indices(self, hidden: Tensor, indices: np.ndarray) -> Tensor:
        logits = self.network(hidden)
        log_probs = F.log_softmax(logits, axis=-1)
        picked = F.gather(log_probs, indices, axis=-1)
        return picked.sum()

    def proposal_batch(self, hidden: Tensor, priors: Sequence[Distribution]) -> BatchedDistribution:
        """The whole group's categorical proposals as one ``(B, K)`` batch."""
        logits = self.network(hidden)
        probs = np.array(F.softmax(logits, axis=-1).data)
        for i, prior in enumerate(priors):
            # Guard against zero-probability categories that the prior allows:
            # mix a small amount of the prior so importance weights stay finite.
            if isinstance(prior, Categorical):
                probs[i] = 0.99 * probs[i] + 0.01 * prior.probs
        return BatchedCategorical(probs)


def make_proposal_layer(
    prior: Distribution,
    input_dim: int,
    num_components: int = 5,
    rng=None,
) -> ProposalLayer:
    """Factory choosing the proposal family appropriate for a prior."""
    if isinstance(prior, Categorical):
        return ProposalCategorical(input_dim, prior.num_categories, rng=rng)
    if prior.discrete:
        raise NotImplementedError(
            f"no proposal layer family implemented for discrete prior {prior.name}"
        )
    return ProposalNormalMixture(input_dim, num_components=num_components, rng=rng)
