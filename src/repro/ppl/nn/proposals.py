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
* :meth:`proposal_distribution` — a plain numpy distribution object used at
  inference time by the importance-sampling controller, and
* :meth:`proposal_distributions` — the per-object batched counterpart: one
  forward pass over a ``(B, hidden)`` batch of LSTM outputs yields the B
  per-trace proposal distribution objects at the same address (retained as
  the sequential engine's reference path), and
* :meth:`proposal_batch` — the array-parameterised path the lockstep engine
  (:mod:`repro.ppl.inference.batched`) uses: the same forward pass yields ONE
  :class:`repro.distributions.batched.BatchedDistribution` holding the whole
  group's ``(B, K)`` parameters, drawn and scored in bulk
  (``sample_rows`` / ``log_prob_rows``) in place of the B per-trace objects
  (and their B·K components) on the inference hot path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (packing imports us)
    from repro.data.packing import PackedStep

from repro.distributions import (
    BatchedCategorical,
    BatchedDistribution,
    BatchedDistributionList,
    BatchedMixtureOfTruncatedNormals,
    Categorical,
    Distribution,
    Mixture,
    Normal,
    TruncatedNormal,
)
from repro.distributions.batched import MixtureScratch
from repro.distributions.geometry import PriorGeometry, prior_bounds, prior_geometry
from repro.tensor import functional as F
from repro.tensor.nn import Linear, Module, ReLU, Sequential
from repro.tensor.tensor import Tensor

# PriorGeometry/prior_geometry moved to repro.distributions.geometry (one
# definition shared with data/packing.py and ppl/inference/plans.py); they
# stay re-exported here because this module was their historical home.
__all__ = [
    "PriorGeometry",
    "ProposalLayer",
    "ProposalNormalMixture",
    "ProposalCategorical",
    "make_proposal_layer",
    "prior_geometry",
]


class ProposalLayer(Module):
    """Common interface of address-specific proposal layers."""

    def log_prob(self, hidden: Tensor, values, priors: Sequence[Distribution]) -> Tensor:
        """Differentiable log q(values | hidden) summed over the batch."""
        raise NotImplementedError

    def log_prob_packed(self, hidden: Tensor, step: "PackedStep") -> Tensor:
        """Differentiable log q for one packed training step.

        The vectorised training loss hands the layer a
        :class:`repro.data.packing.PackedStep` whose value/prior arrays were
        precomputed at pack-build time.  The built-in layers override this to
        skip every per-trace Python loop; this base implementation falls back
        to :meth:`log_prob` on the step's retained per-trace objects, so
        custom layers keep working (and so do packs whose prior family does
        not match the layer).  Overrides must evaluate the same floating-point
        expression as :meth:`log_prob` — the ``vectorized_loss=False``
        reference path and its equivalence tests rely on it.
        """
        return self.log_prob(hidden, step.values, step.priors)

    def proposal_distribution(self, hidden: Tensor, prior: Distribution) -> Distribution:
        """A concrete (numpy) proposal distribution for one execution."""
        return self.proposal_distributions(hidden, [prior])[0]

    def proposal_distributions(self, hidden: Tensor, priors: Sequence[Distribution]) -> List[Distribution]:
        """Per-trace proposal distributions for a batch of guided executions.

        ``hidden`` is ``(B, hidden_dim)`` and ``priors`` holds the B priors at
        the shared address (their parameters may differ per trace).
        """
        raise NotImplementedError

    def proposal_batch(self, hidden: Tensor, priors: Sequence[Distribution]) -> BatchedDistribution:
        """One array-parameterised batched distribution for the whole group.

        The lockstep engine's hot path: instead of materialising B per-trace
        objects (plus their component objects), the built-in layers emit a
        single batched object the session draws and scores in one
        ``sample_rows`` / ``log_prob_rows`` pass.  Rows are sample- and
        density-equivalent (bit-identical) to the objects
        ``proposal_distributions`` would build.  This base
        implementation wraps the per-object list so custom layers that only
        implement ``proposal_distributions`` keep working, just without the
        O(1)-objects win.
        """
        return BatchedDistributionList(self.proposal_distributions(hidden, priors))


class ProposalNormalMixture(ProposalLayer):
    """Mixture-of-(truncated-)normals proposal for continuous latents.

    The layer is a two-layer NN whose outputs parameterise K means, K scales
    and K mixture logits.  Means are produced in a normalised coordinate and
    rescaled to the prior's location/scale (or support, for bounded priors) at
    call time, so the same layer works even if the prior's parameters vary a
    little between traces at the same address.
    """

    def __init__(self, input_dim: int, num_components: int = 5, hidden_dim: int = 32, rng=None) -> None:
        super().__init__()
        self.num_components = num_components
        self.body = Sequential(Linear(input_dim, hidden_dim, rng=rng), ReLU())
        self.head_means = Linear(hidden_dim, num_components, rng=rng)
        self.head_scales = Linear(hidden_dim, num_components, rng=rng)
        self.head_logits = Linear(hidden_dim, num_components, rng=rng)

    # ------------------------------------------------------------- parameters
    def _raw_parameters(self, hidden: Tensor):
        features = self.body(hidden)
        raw_means = self.head_means(features)      # (B, K), in normalised space
        raw_scales = self.head_scales(features)    # (B, K)
        logits = self.head_logits(features)        # (B, K)
        return raw_means, raw_scales, logits

    # Kept as a delegating alias: the geometry derivation lives in
    # repro.distributions.geometry so packing and plan compilation share it.
    _prior_bounds = staticmethod(prior_bounds)

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
        node over the raw network outputs), which is what makes them
        bit-identical in loss and gradients.  The components are the ones
        :meth:`_transformed_from_geometry` emits proposals from."""
        raw_means, raw_scales, logits = self._raw_parameters(hidden)
        return F.truncated_normal_mixture_log_prob(
            raw_means, raw_scales, logits, values_column, geometry
        ).sum()

    # ---------------------------------------------------------------- inference
    def proposal_distributions(self, hidden: Tensor, priors: Sequence[Distribution]) -> List[Distribution]:
        means_np, scales_np, log_weights, lows, highs, bounded = self._transformed_parameters(hidden, list(priors))
        weights_np = np.exp(log_weights)
        num_components = self.num_components
        # All truncated components across the batch are built in one
        # vectorized pass (two ndtr calls total instead of two per object).
        bounded_rows = np.flatnonzero(bounded)
        truncated_per_row = {}
        if bounded_rows.size:
            built = TruncatedNormal.batch_build(
                means_np[bounded_rows].reshape(-1),
                scales_np[bounded_rows].reshape(-1),
                np.repeat(lows[bounded_rows], num_components),
                np.repeat(highs[bounded_rows], num_components),
            )
            for j, row in enumerate(bounded_rows):
                truncated_per_row[int(row)] = built[j * num_components : (j + 1) * num_components]
        distributions: List[Distribution] = []
        for i in range(len(priors)):
            if i in truncated_per_row:
                components: List[Distribution] = truncated_per_row[i]
            else:
                components = [Normal(means_np[i, k], scales_np[i, k]) for k in range(num_components)]
            distributions.append(Mixture(components, weights_np[i]))
        return distributions

    def proposal_batch(self, hidden: Tensor, priors: Sequence[Distribution]) -> BatchedDistribution:
        """The whole group's proposals as ONE array-parameterised mixture.

        Same transformed parameters as :meth:`proposal_distributions`, but no
        per-trace ``Mixture`` (and no B·K component objects) is ever built:
        the batched object holds the ``(B, K)`` parameter arrays and samples
        / scores its rows bit-identically to the per-object path.
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

        The lockstep engine's constructor: ``BatchedMixtureOfTruncatedNormals.build_into``
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

    def __init__(self, input_dim: int, num_categories: int, hidden_dim: int = 32, rng=None) -> None:
        super().__init__()
        self.num_categories = num_categories
        self.network = Sequential(
            Linear(input_dim, hidden_dim, rng=rng), ReLU(), Linear(hidden_dim, num_categories, rng=rng)
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

    def proposal_distributions(self, hidden: Tensor, priors: Sequence[Distribution]) -> List[Distribution]:
        logits = self.network(hidden)
        probs = F.softmax(logits, axis=-1).data
        distributions: List[Distribution] = []
        for i, prior in enumerate(priors):
            row = probs[i]
            # Guard against zero-probability categories that the prior allows:
            # mix a small amount of the prior so importance weights stay finite.
            if isinstance(prior, Categorical):
                row = 0.99 * row + 0.01 * prior.probs
            distributions.append(Categorical(row))
        return distributions

    def proposal_batch(self, hidden: Tensor, priors: Sequence[Distribution]) -> BatchedDistribution:
        """The whole group's categorical proposals as one ``(B, K)`` batch."""
        logits = self.network(hidden)
        probs = np.array(F.softmax(logits, axis=-1).data)
        for i, prior in enumerate(priors):
            # Same prior smoothing as the per-object path (keeps importance
            # weights finite at categories the NN zeroes out).
            if isinstance(prior, Categorical):
                probs[i] = 0.99 * probs[i] + 0.01 * prior.probs
        return BatchedCategorical(probs)


def make_proposal_layer(
    prior: Distribution,
    input_dim: int,
    num_components: int = 5,
    hidden_dim: int = 32,
    rng=None,
) -> ProposalLayer:
    """Factory choosing the proposal family appropriate for a prior."""
    if isinstance(prior, Categorical):
        return ProposalCategorical(input_dim, prior.num_categories, hidden_dim=hidden_dim, rng=rng)
    if prior.discrete:
        raise NotImplementedError(
            f"no proposal layer family implemented for discrete prior {prior.name}"
        )
    return ProposalNormalMixture(input_dim, num_components=num_components, hidden_dim=hidden_dim, rng=rng)
