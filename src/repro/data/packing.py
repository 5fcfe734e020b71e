"""Packed sub-minibatches: precomputed array inputs for the training loss.

Algorithm 1 trains the inference network on sub-minibatches of identical
trace type, so every training iteration used to re-derive the same per-step
arrays from the same per-trace objects: stack B observation arrays, walk B
sample lists per LSTM step, score values against B per-trace prior objects,
and re-encode the previous step's values through
:meth:`~repro.ppl.nn.embeddings.SampleEmbedding.encode_values`.  None of that
work depends on the network parameters — for an offline dataset it is
*identical* across epochs.

:class:`PackedSubMinibatch` does it once.  For one same-trace-type group it
stacks the observations, and per LSTM step packs

* the recorded values as a ``(B,)`` array (plus the ``(B, 1)`` float column
  the continuous density consumes and the ``(B,)`` int64 indices the
  categorical one gathers with),
* the per-trace prior parameters as arrays — :class:`PriorGeometry` rows for
  continuous priors, ``(B,)`` category indices for categorical ones (the PR 3
  ``(B, K)`` batched-distribution form stays one lazy
  :meth:`PackedStep.packed_priors` call away, via the new
  ``from_distributions`` constructors),
* the precomputed previous-sample embedding input.

Packs are the one input of the training loss: ``InferenceNetwork.loss`` is
``loss_packed(pack_minibatch(traces))``, and every batch source of the
training loop (:mod:`repro.distributed.trainer`) hands it
``List[PackedSubMinibatch]``.  The vectorised loss
(:meth:`InferenceNetwork._sub_minibatch_loss_packed`) runs pure tensor ops
per step; the ``vectorized_loss=False`` reference path scores a pack's
retained per-trace objects instead.

:class:`PackedEpochPlan` is the single-process offline source: the dataset is
sorted by trace type once (:func:`repro.data.sorting.sorted_indices_by_trace_type`),
chunked into token-budgeted minibatches
(:func:`repro.data.batching.dynamic_token_batches` — the Section 7.2
NMT-style batching), and the packs built for a minibatch are cached across
epochs, so offline training pays the numpy prep once per dataset instead of
once per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.data.batching import dynamic_token_batches, split_into_sub_minibatches
from repro.data.dataset import InMemoryTraceDataset, observation_array
from repro.data.sorting import sorted_indices_by_trace_type
from repro.distributions import (
    BatchedCategorical,
    BatchedDistribution,
    BatchedMixtureOfTruncatedNormals,
    BatchedNormal,
    Categorical,
    Distribution,
    Mixture,
    Normal,
    TruncatedNormal,
)
from repro.ppl.nn.embeddings import SampleEmbedding
from repro.distributions.geometry import PriorGeometry, prior_geometry
from repro.trace.trace import Trace

__all__ = [
    "PackedStep",
    "PackedSubMinibatch",
    "PackedEpochPlan",
    "observation_array",
    "pack_sub_minibatch",
    "pack_minibatch",
]


#: sentinel distinguishing "not built yet" from "family has no array form"
_UNBUILT = object()


@dataclass(eq=False)
class PackedStep:
    """One LSTM step of a packed sub-minibatch (one shared address, B traces).

    ``values``/``priors`` retain the raw per-trace data for fallback scoring
    (custom proposal layers, pack/layer family mismatches); everything else
    is the precomputed array form the vectorised loss consumes.
    """

    address: str
    values: np.ndarray                   #: (B,) raw recorded values
    priors: List[Distribution]           #: per-trace prior objects (reference path)
    encoded_values: np.ndarray           #: (B, value_dim) SampleEmbedding input
    values_column: Optional[np.ndarray] = None   #: (B, 1) float values (continuous)
    geometry: Optional[PriorGeometry] = None     #: (B,) prior geometry (continuous)
    indices: Optional[np.ndarray] = None         #: (B,) int64 categories (categorical)
    _packed_priors_cache: Any = field(default=_UNBUILT, repr=False)

    @property
    def batch_size(self) -> int:
        return len(self.priors)

    def packed_priors(self) -> Optional[BatchedDistribution]:
        """The step's B priors as ONE array-parameterised batched object.

        ``BatchedCategorical`` (``(B, K)`` probabilities) for categorical
        priors, ``BatchedNormal`` for scalar normal ones,
        ``BatchedMixtureOfTruncatedNormals`` for truncated-normal / mixture
        priors, ``None`` for families without an array form (e.g. Uniform —
        its support lives in :attr:`geometry`) or heterogeneous groups.
        Built lazily and cached: the training loss itself never reads prior
        parameters (geometry and indices cover it), so this costs nothing
        unless a vectorised consumer — prior smoothing, diagnostics, tests —
        actually asks for it.
        """
        if self._packed_priors_cache is _UNBUILT:
            self._packed_priors_cache = _pack_priors(self.priors)
        return self._packed_priors_cache

    def __getstate__(self):
        # The sentinel is identity-compared, which pickling would break (the
        # copy is a different object()): ship the state without it and let
        # __setstate__ restore "not built yet".  A built cache rides along.
        state = dict(self.__dict__)
        if state.get("_packed_priors_cache") is _UNBUILT:
            del state["_packed_priors_cache"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("_packed_priors_cache", _UNBUILT)


def _pack_priors(priors: Sequence[Distribution]) -> Optional[BatchedDistribution]:
    try:
        if isinstance(priors[0], Categorical):
            return BatchedCategorical.from_distributions(priors)
        if isinstance(priors[0], Normal):
            return BatchedNormal.from_distributions(priors)
        if isinstance(priors[0], (TruncatedNormal, Mixture)):
            return BatchedMixtureOfTruncatedNormals.from_distributions(priors)
    except ValueError:
        return None
    return None


@dataclass(eq=False)
class PackedSubMinibatch:
    """One same-trace-type group, fully packed for the vectorised loss."""

    trace_type: str
    traces: List[Trace]          #: the packed traces (reference-path input)
    observations: np.ndarray     #: (B, ...) stacked observation arrays
    steps: List[PackedStep]      #: one entry per controlled latent draw

    @property
    def batch_size(self) -> int:
        return len(self.traces)

    @property
    def num_steps(self) -> int:
        return len(self.steps)


def _pack_step(samples_t: Sequence[Any]) -> PackedStep:
    """Pack the B samples at one step (same address across the group)."""
    address = samples_t[0].address
    values_list = [s.value for s in samples_t]
    priors = [s.distribution for s in samples_t]
    values = np.asarray(values_list)
    # Same call the reference loss makes per iteration, now made once: the
    # encoding standardises against priors[0], matching the reference exactly.
    encoded = SampleEmbedding.encode_values(priors[0], values)
    values_column = geometry = indices = None
    prior0 = priors[0]
    if isinstance(prior0, Categorical):
        indices = np.asarray(values_list, dtype=np.int64).reshape(-1)
    elif not prior0.discrete:
        values_column = np.asarray(values_list, dtype=float).reshape(-1, 1)
        geometry = prior_geometry(priors)
    return PackedStep(
        address=address,
        values=values,
        priors=priors,
        encoded_values=encoded,
        values_column=values_column,
        geometry=geometry,
        indices=indices,
    )


def pack_sub_minibatch(traces: Sequence[Trace], observe_key: Optional[str] = None) -> PackedSubMinibatch:
    """Pack one group of same-trace-type traces.

    Raises ``ValueError`` if the traces do not share a trace type (the
    grouping contract of Algorithm 1 — callers split by type first).
    """
    traces = list(traces)
    if len(traces) == 0:
        raise ValueError("pack_sub_minibatch needs at least one trace")
    trace_type = traces[0].trace_type
    controlled = [
        [s for s in trace.samples if s.controlled and s.distribution is not None]
        for trace in traces
    ]
    num_steps = len(controlled[0])
    for trace, steps in zip(traces, controlled):
        if trace.trace_type != trace_type or len(steps) != num_steps:
            raise ValueError("pack_sub_minibatch needs traces of one trace type")
    packed_steps: List[PackedStep] = []
    for t in range(num_steps):
        samples_t = [controlled[i][t] for i in range(len(traces))]
        address = samples_t[0].address
        if any(s.address != address for s in samples_t[1:]):
            raise ValueError(f"step {t} mixes addresses within one trace type")
        packed_steps.append(_pack_step(samples_t))
    observations = np.stack(
        [observation_array(trace, observe_key) for trace in traces], axis=0
    )
    return PackedSubMinibatch(
        trace_type=trace_type, traces=traces, observations=observations, steps=packed_steps
    )


def pack_minibatch(traces: Sequence[Trace], observe_key: Optional[str] = None) -> List[PackedSubMinibatch]:
    """Split a minibatch by trace type and pack each group (Algorithm 1)."""
    return [
        pack_sub_minibatch(group, observe_key=observe_key)
        for group in split_into_sub_minibatches(traces)
    ]


class PackedEpochPlan:
    """Sorted, token-budgeted offline minibatch schedule with cached packs.

    Built once per ``train(dataset=...)`` call:

    * the dataset order is sorted by ``(trace_type, length)`` so consecutive
      traces share a type (Section 4.4.3 — what makes sub-minibatches large),
    * the sorted order is chunked by :func:`dynamic_token_batches` under a
      token (= latent draw) budget of ``minibatch_size`` times the mean trace
      length, so a batch holds ~``minibatch_size`` average-length traces but
      fewer long ones (the Section 7.2 dynamic batching),
    * each epoch visits every minibatch once, in an order shuffled from the
      engine rng, and
    * the :class:`PackedSubMinibatch` groups built for a minibatch are cached
      and reused by every later epoch.
    """

    def __init__(
        self,
        traces: Sequence[Trace],
        minibatch_size: int,
        observe_key: Optional[str] = None,
        tokens_per_batch: Optional[int] = None,
    ) -> None:
        self.traces = list(traces)
        if len(self.traces) == 0:
            raise ValueError("an epoch plan needs a non-empty dataset")
        if minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")
        self.observe_key = observe_key
        lengths = [trace.length for trace in self.traces]
        order = sorted_indices_by_trace_type(InMemoryTraceDataset(self.traces))
        if tokens_per_batch is None:
            mean_length = max(1.0, sum(lengths) / len(lengths))
            tokens_per_batch = max(
                1, int(round(min(minibatch_size, len(self.traces)) * mean_length))
            )
        self.tokens_per_batch = int(tokens_per_batch)
        self.batches = dynamic_token_batches(lengths, self.tokens_per_batch, indices=order)
        self._packs: Dict[int, List[PackedSubMinibatch]] = {}
        self._epoch_order: List[int] = []
        self._cursor = 0
        self.epochs_started = 0

    def __len__(self) -> int:
        return len(self.batches)

    @property
    def num_minibatches(self) -> int:
        return len(self.batches)

    def next_batch_id(self, rng) -> int:
        """The next minibatch id, reshuffling the visit order each epoch."""
        if self._cursor >= len(self._epoch_order):
            self._epoch_order = [int(i) for i in rng.generator.permutation(len(self.batches))]
            self._cursor = 0
            self.epochs_started += 1
        batch_id = self._epoch_order[self._cursor]
        self._cursor += 1
        return batch_id

    def minibatch(self, batch_id: int) -> List[Trace]:
        return [self.traces[i] for i in self.batches[batch_id]]

    def packs(self, batch_id: int) -> List[PackedSubMinibatch]:
        """The packed groups of one minibatch, built on first visit and cached."""
        cached = self._packs.get(batch_id)
        if cached is None:
            cached = self._packs[batch_id] = pack_minibatch(
                self.minibatch(batch_id), observe_key=self.observe_key
            )
        return cached
