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
  continuous priors, ``(B,)`` category indices for categorical ones,
* the precomputed previous-sample embedding input.

Packs are the one input of the training loss: ``InferenceNetwork.loss`` is
``loss_packed(pack_minibatch(traces))``, and every batch source of the
training loop (:mod:`repro.distributed.trainer`) hands it
``List[PackedSubMinibatch]``.  One step packer builds them all:
:func:`pack_sub_minibatch` feeds it each trace's controlled draws as
``(address, value, prior)`` columns, and so does the record decode of
:func:`read_packs`, which turns a dealt chunk of a :class:`TraceDataset`
into packs straight from its stored records, with no ``Trace`` in between:
records grouped by the dataset's stored trace types, one prior object per
bit-identical payload of the read, and ``restore_trace``'s check kept as one
``log_prob`` per distinct prior per step.  The vectorised loss
(:meth:`InferenceNetwork._packed_loss`) scores all packs of a minibatch
together: the LSTM runs once over every pack's steps, as one ragged
time-major sequence, and each address's proposal head scores that address's
steps of every pack at once, as one step joined by :func:`concat_steps`.  It
sums the same terms as the ``vectorized_loss=False`` reference path (which
scores a pack's steps one by one against their per-trace prior objects) in a
different order, so the two agree within floating-point tolerance (the loss
to rtol 1e-12), not bit for bit.

:class:`PackedEpochPlan` is the single-process offline source: the dataset is
sorted by trace type once (:func:`repro.data.sorting.sorted_indices_by_trace_type`),
chunked into token-budgeted minibatches
(:func:`repro.data.batching.dynamic_token_batches` — the Section 7.2
NMT-style batching), and the packs built for a minibatch are cached across
epochs, so offline training pays the numpy prep once per dataset instead of
once per iteration.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.batching import dynamic_token_batches, split_into_sub_minibatches
from repro.data.dataset import InMemoryTraceDataset, TraceDataset, observation_array
from repro.data.sorting import sorted_indices_by_trace_type
from repro.distributions import Categorical, Distribution, distribution_from_dict
from repro.ppl.nn.embeddings import SampleEmbedding
from repro.distributions.geometry import PriorGeometry, prior_geometry
from repro.trace.pruning import stored_observation, stored_sample
from repro.trace.trace import Trace

__all__ = [
    "PackedStep",
    "PackedSubMinibatch",
    "PackedEpochPlan",
    "concat_steps",
    "observation_array",
    "pack_sub_minibatch",
    "pack_minibatch",
    "read_packs",
]


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


def concat_steps(steps: Sequence[PackedStep]) -> PackedStep:
    """The rows of several packed steps at one address, as one step.

    Every array is joined along its rows in the order given, so row blocks
    follow ``steps``.  An array form missing from any step (a prior family
    that did not match at pack time) is missing from the result, which the
    proposal layers then score through their per-object fallback.  One step
    comes back as it is.
    """
    if len(steps) == 1:
        return steps[0]

    def joined(parts):
        return None if any(part is None for part in parts) else np.concatenate(parts)

    geometries = [step.geometry for step in steps]
    geometry = None
    if all(g is not None for g in geometries):
        geometry = PriorGeometry(
            lows=np.concatenate([g.lows for g in geometries]),
            highs=np.concatenate([g.highs for g in geometries]),
            locs=np.concatenate([g.locs for g in geometries]),
            scales=np.concatenate([g.scales for g in geometries]),
            bounded=np.concatenate([g.bounded for g in geometries]),
        )
    return PackedStep(
        address=steps[0].address,
        values=np.concatenate([step.values for step in steps]),
        priors=[prior for step in steps for prior in step.priors],
        encoded_values=np.concatenate([step.encoded_values for step in steps]),
        values_column=joined([step.values_column for step in steps]),
        geometry=geometry,
        indices=joined([step.indices for step in steps]),
    )


@dataclass(eq=False)
class PackedSubMinibatch:
    """One same-trace-type group, fully packed for the loss."""

    trace_type: str
    observations: np.ndarray     #: (B, ...) stacked observation arrays
    steps: List[PackedStep]      #: one entry per controlled latent draw

    @property
    def batch_size(self) -> int:
        return int(self.observations.shape[0])

    @property
    def num_steps(self) -> int:
        return len(self.steps)


def _pack_step(address: str, values_list: List[Any], priors: List[Distribution]) -> PackedStep:
    """Pack the B draws at one step (same address across the group)."""
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


def _pack_group(
    trace_type: str, draws: Sequence[Sequence[Tuple[str, Any, Distribution]]], observations: np.ndarray
) -> PackedSubMinibatch:
    """The one step packer: ``draws[i]`` is trace ``i``'s controlled draws, in
    order, as ``(address, value, prior)``.

    Traces and stored records both reach the loss through here, so a pack
    is the same whichever one it was built from.
    """
    num_steps = len(draws[0])
    if any(len(row) != num_steps for row in draws):
        raise ValueError("pack_sub_minibatch needs traces of one trace type")
    steps: List[PackedStep] = []
    for t in range(num_steps):
        addresses, values, priors = zip(*(row[t] for row in draws))
        if any(address != addresses[0] for address in addresses[1:]):
            raise ValueError(f"step {t} mixes addresses within one trace type")
        steps.append(_pack_step(addresses[0], list(values), list(priors)))
    return PackedSubMinibatch(trace_type=trace_type, observations=observations, steps=steps)


def pack_sub_minibatch(traces: Sequence[Trace], observe_key: Optional[str] = None) -> PackedSubMinibatch:
    """Pack one group of same-trace-type traces.

    Raises ``ValueError`` if the traces do not share a trace type (the
    grouping contract of Algorithm 1 — callers split by type first).
    """
    traces = list(traces)
    if len(traces) == 0:
        raise ValueError("pack_sub_minibatch needs at least one trace")
    trace_type = traces[0].trace_type
    if any(trace.trace_type != trace_type for trace in traces):
        raise ValueError("pack_sub_minibatch needs traces of one trace type")
    draws = [
        [(s.address, s.value, s.distribution) for s in trace.samples if s.controlled and s.distribution is not None]
        for trace in traces
    ]
    observations = np.stack([observation_array(trace.observation, observe_key) for trace in traces], axis=0)
    return _pack_group(trace_type, draws, observations)


def pack_minibatch(traces: Sequence[Trace], observe_key: Optional[str] = None) -> List[PackedSubMinibatch]:
    """Split a minibatch by trace type and pack each group (Algorithm 1)."""
    return [
        pack_sub_minibatch(group, observe_key=observe_key)
        for group in split_into_sub_minibatches(traces)
    ]


def read_packs(dataset, indices: Sequence[int], observe_key: Optional[str] = None) -> List[PackedSubMinibatch]:
    """The packs of ``dataset``'s traces at ``indices``: ``pack_minibatch(dataset.get_batch(indices))``.

    A :class:`TraceDataset` decodes its stored records straight into packs,
    array for array the same, without building a trace; any other dataset
    packs its traces.
    """
    if not isinstance(dataset, TraceDataset):
        return pack_minibatch(dataset.get_batch(indices), observe_key)
    groups: Dict[str, List[int]] = {}
    for index in indices:
        groups.setdefault(dataset.trace_types[index], []).append(index)
    priors: Dict[bytes, Distribution] = {}  # this read's one prior object per bit-identical payload
    return [
        _decode_group(dataset, trace_type, members, observe_key, priors)
        for trace_type, members in groups.items()
    ]


def _decode_group(
    dataset: TraceDataset, trace_type: str, members: List[int], observe_key, priors: Dict[bytes, Distribution]
) -> PackedSubMinibatch:
    """One same-trace-type group of stored records, packed.

    Each sample with a stored distribution becomes ``(address, value,
    prior, controlled)``; a record that :func:`restore_trace` would refuse is
    re-read through it, which raises the dataset's ``ValueError``.
    """
    records = [dataset.store[index] for index in members]
    scored: List[List[Tuple[str, Any, Distribution, bool]]] = []
    for index, record in zip(members, records):
        row = []
        for sample in record["samples"]:
            if "distribution" in sample:
                address, value = stored_sample(sample, dataset.address_dictionary)
                prior = _prior(dataset, index, sample["distribution"], priors)
                row.append((address, value, prior, bool(sample.get("controlled", True))))
        scored.append(row)
    _check_scores(dataset, members, scored)
    draws = [[(address, value, prior) for address, value, prior, controlled in row if controlled] for row in scored]
    observations = np.stack(
        [observation_array(stored_observation(record), observe_key) for record in records], axis=0
    )
    return _pack_group(trace_type, draws, observations)


def _prior(dataset: TraceDataset, index: int, payload, priors: Dict[bytes, Distribution]) -> Distribution:
    """The prior of a stored payload, built once per bit-identical payload of a read."""
    key = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    prior = priors.get(key)
    if prior is None:
        try:
            prior = priors[key] = distribution_from_dict(payload)
        except Exception:
            _reread(dataset, [index])
            raise
    return prior


def _check_scores(dataset: TraceDataset, members: List[int], scored) -> None:
    """:func:`restore_trace`'s check over a group: every stored value is
    scored by its own stored distribution, one ``log_prob`` per distinct prior
    per step over that prior's rows.  Rows whose call fails, or whose result
    has not one leading entry per row, are re-read through ``restore_trace``."""
    for t in range(max(len(row) for row in scored)):
        rows_of: Dict[int, List[int]] = {}
        for r, row in enumerate(scored):
            if t < len(row):
                rows_of.setdefault(id(row[t][2]), []).append(r)
        for rows in rows_of.values():
            prior = scored[rows[0]][t][2]
            try:
                result = np.shape(prior.log_prob(np.asarray([scored[r][t][1] for r in rows])))
            except Exception:
                result = ()
            if result[:1] != (len(rows),):
                _reread(dataset, [members[r] for r in rows])


def _reread(dataset: TraceDataset, indices: Sequence[int]) -> None:
    """Restore the records at ``indices``; raises the dataset's ``ValueError``
    naming the index and address of the first one that cannot be scored."""
    for index in indices:
        dataset[index]


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
    ) -> None:
        self.traces = list(traces)
        if len(self.traces) == 0:
            raise ValueError("an epoch plan needs a non-empty dataset")
        if minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")
        self.observe_key = observe_key
        lengths = [trace.length for trace in self.traces]
        order = sorted_indices_by_trace_type(InMemoryTraceDataset(self.traces))
        mean_length = max(1.0, sum(lengths) / len(lengths))
        self.tokens_per_batch = max(1, int(round(min(minibatch_size, len(self.traces)) * mean_length)))
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
