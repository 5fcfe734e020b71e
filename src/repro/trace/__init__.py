"""Execution-trace infrastructure: samples, traces, trace types and pruning."""

from repro.trace.sample import Sample
from repro.trace.trace import Trace
from repro.trace.trace_type import trace_type_id
from repro.trace.pruning import AddressDictionary, prune_trace, pruned_size_bytes, restore_trace

__all__ = [
    "Sample",
    "Trace",
    "trace_type_id",
    "AddressDictionary",
    "prune_trace",
    "restore_trace",
    "pruned_size_bytes",
]
