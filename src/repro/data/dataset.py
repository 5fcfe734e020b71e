"""Offline trace datasets (Section 4.3/4.4: the "offline" training mode).

A :class:`TraceDataset` stores pruned execution traces on disk (via
:class:`repro.data.shelf.ShardStore`) together with the light-weight metadata
needed by the training pipeline without loading trace contents:

* the trace type and the trace length of every entry (for sorting, the
  sampler's chunk costs and sub-minibatch construction),
* the shared :class:`repro.trace.AddressDictionary` (shorthand address ids).

An in-memory variant (:class:`InMemoryTraceDataset`) backs small tests and the
online-training path.
"""

from __future__ import annotations

import os
import pickle
from typing import List, Optional, Sequence

import numpy as np

from repro.common.rng import RandomState, get_rng
from repro.data.shelf import ShardStore
from repro.trace.pruning import AddressDictionary, prune_trace, restore_trace
from repro.trace.trace import Trace

__all__ = ["TraceDataset", "InMemoryTraceDataset", "generate_dataset", "observation_array"]


def observation_array(observation, observe_key: Optional[str] = None) -> np.ndarray:
    """A trace's observation as a float array ready for batching.

    The one observation-to-array rule of the minibatch packing layer, for
    traces and stored records alike: dict observations are resolved through
    ``observe_key`` (or the single entry), and scalars become length-1
    vectors so stacking over traces always yields a ``(batch, ...)`` array.
    """
    if isinstance(observation, dict):
        if observe_key is not None:
            observation = observation[observe_key]
        elif len(observation) == 1:
            observation = next(iter(observation.values()))
        else:
            raise ValueError(
                "trace has multiple observes; construct the InferenceNetwork with observe_key"
            )
    return np.atleast_1d(np.asarray(observation, dtype=float))


class TraceDataset:
    """A file-backed dataset of pruned traces."""

    META_FILE = "dataset_meta.pkl"

    def __init__(self, directory: str, records_per_shard: int = 100) -> None:
        self.directory = directory
        self.store = ShardStore(directory, records_per_shard=records_per_shard)
        self.address_dictionary = AddressDictionary()
        self.trace_types: List[str] = []
        self.trace_lengths: List[int] = []
        meta_path = os.path.join(directory, self.META_FILE)
        if os.path.exists(meta_path):
            self._load_meta()

    # ----------------------------------------------------------------- writing
    def add_trace(self, trace: Trace) -> int:
        pruned = prune_trace(trace, address_dictionary=self.address_dictionary)
        index = self.store.append(pruned)
        self.trace_types.append(trace.trace_type)
        self.trace_lengths.append(trace.length)
        return index

    def flush(self) -> None:
        self.store.flush()
        with open(os.path.join(self.directory, self.META_FILE), "wb") as handle:
            pickle.dump(
                {
                    "address_dictionary": self.address_dictionary.to_dict(),
                    "trace_types": self.trace_types,
                    "trace_lengths": self.trace_lengths,
                },
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )

    def _load_meta(self) -> None:
        with open(os.path.join(self.directory, self.META_FILE), "rb") as handle:
            payload = pickle.load(handle)
        self.address_dictionary = AddressDictionary.from_dict(payload["address_dictionary"])
        self.trace_types = payload["trace_types"]
        self.trace_lengths = payload["trace_lengths"]

    # ----------------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self.store)

    def __getitem__(self, index: int) -> Trace:
        try:
            return restore_trace(self.store[index], address_dictionary=self.address_dictionary)
        except ValueError as error:
            raise ValueError(f"dataset index {index}: {error}") from error

    def get_batch(self, indices: Sequence[int]) -> List[Trace]:
        return [self[i] for i in indices]

    def trace_type_of(self, index: int) -> str:
        return self.trace_types[index]

    def trace_length_of(self, index: int) -> int:
        return self.trace_lengths[index]

    def num_trace_types(self) -> int:
        return len(set(self.trace_types))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


class InMemoryTraceDataset:
    """A list-backed dataset exposing the same read interface as :class:`TraceDataset`."""

    def __init__(self, traces: Optional[Sequence[Trace]] = None) -> None:
        self.traces: List[Trace] = list(traces or [])
        self.trace_types: List[str] = [t.trace_type for t in self.traces]
        self.trace_lengths: List[int] = [t.length for t in self.traces]

    def add_trace(self, trace: Trace) -> int:
        self.traces.append(trace)
        self.trace_types.append(trace.trace_type)
        self.trace_lengths.append(trace.length)
        return len(self.traces) - 1

    def flush(self) -> None:  # interface parity with TraceDataset
        pass

    def __len__(self) -> int:
        return len(self.traces)

    def __getitem__(self, index: int) -> Trace:
        return self.traces[index]

    def get_batch(self, indices: Sequence[int]) -> List[Trace]:
        return [self.traces[i] for i in indices]

    def trace_type_of(self, index: int) -> str:
        return self.trace_types[index]

    def trace_length_of(self, index: int) -> int:
        return self.trace_lengths[index]

    def num_trace_types(self) -> int:
        return len(set(self.trace_types))

    def __iter__(self):
        return iter(self.traces)


def generate_dataset(
    model,
    num_traces: int,
    directory: Optional[str] = None,
    records_per_shard: int = 100,
    rng: Optional[RandomState] = None,
):
    """Sample ``num_traces`` prior executions of ``model`` into a dataset.

    With ``directory=None`` an in-memory dataset is returned; otherwise traces
    are pruned and written to disk (the offline-mode dataset of Section 5.4,
    where 15M traces were generated once and reused).
    """
    rng = rng or get_rng()
    if directory is None:
        dataset = InMemoryTraceDataset()
    else:
        dataset = TraceDataset(directory, records_per_shard=records_per_shard)
    for _ in range(num_traces):
        dataset.add_trace(model.prior_trace(rng))
    dataset.flush()
    return dataset
