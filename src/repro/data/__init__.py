"""Offline trace datasets, I/O, sorting, batching and distributed sampling."""

from repro.data.shelf import ShardStore
from repro.data.dataset import InMemoryTraceDataset, TraceDataset, generate_dataset
from repro.data.sorting import regroup_dataset, sorted_indices_by_trace_type
from repro.data.batching import (
    dynamic_token_batches,
    effective_minibatch_size,
    split_into_sub_minibatches,
    sub_minibatch_count,
)
from repro.data.sampler import DistributedTraceSampler

#: packing exports resolved lazily (PEP 562): repro.data.packing pulls in the
#: NN layer stack (repro.ppl.nn), which data-only consumers (shard tooling,
#: dataset generation) should not pay for — and which itself imports
#: repro.data submodules, so an eager import here would be cycle-fragile.
_PACKING_EXPORTS = {
    "PackedEpochPlan",
    "PackedStep",
    "PackedSubMinibatch",
    "pack_minibatch",
    "pack_sub_minibatch",
}


def __getattr__(name):
    if name in _PACKING_EXPORTS:
        from repro.data import packing

        return getattr(packing, name)
    raise AttributeError(f"module 'repro.data' has no attribute {name!r}")


__all__ = [
    "ShardStore",
    "TraceDataset",
    "InMemoryTraceDataset",
    "generate_dataset",
    "sorted_indices_by_trace_type",
    "regroup_dataset",
    "split_into_sub_minibatches",
    "sub_minibatch_count",
    "effective_minibatch_size",
    "dynamic_token_batches",
    "DistributedTraceSampler",
    "PackedEpochPlan",
    "PackedStep",
    "PackedSubMinibatch",
    "pack_minibatch",
    "pack_sub_minibatch",
]
