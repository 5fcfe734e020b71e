"""Sub-minibatching and dynamic batching (Sections 4.4.1 and 7.2).

At training time each minibatch is divided into *sub-minibatches* by trace
type, because only traces sharing the same address sequence can be pushed
through the dynamic NN in a single forward execution (Algorithm 1).  The
*effective* minibatch size is therefore the average sub-minibatch size, and
sorting by trace type (Section 4.4.3) is what raises it.

:func:`dynamic_token_batches` is the *dynamic batching* of Section 7.2: a
batch holds a budget of "tokens" (random draws) rather than a fixed number of
traces, so a batch of long traces holds fewer of them.  The single-process
offline schedule (:class:`repro.data.packing.PackedEpochPlan`) cuts its
minibatches with it; the distributed trainer deals fixed-size chunks
(:class:`repro.data.sampler.DistributedTraceSampler`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "split_into_sub_minibatches",
    "effective_minibatch_size",
    "sub_minibatch_count",
    "dynamic_token_batches",
]


def split_into_sub_minibatches(traces: Sequence) -> List[List]:
    """Group traces by trace type; each group is one NN forward execution."""
    groups: Dict[str, List] = defaultdict(list)
    for trace in traces:
        groups[trace.trace_type].append(trace)
    return list(groups.values())


def sub_minibatch_count(trace_types: Sequence[str]) -> int:
    """Number of sub-minibatches a minibatch with these trace types splits into."""
    return len(set(trace_types))


def effective_minibatch_size(trace_types: Sequence[str]) -> float:
    """Average sub-minibatch size = |minibatch| / #trace types present."""
    if len(trace_types) == 0:
        return 0.0
    return len(trace_types) / sub_minibatch_count(trace_types)


def dynamic_token_batches(
    lengths: Sequence[int],
    tokens_per_batch: int,
    indices: Sequence[int] = None,
) -> List[List[int]]:
    """Partition traces into batches holding approximately ``tokens_per_batch`` tokens.

    A "token" is one random draw in a trace, so a batch can contain many short
    traces or a few long ones.  Returns a list of index lists.  Every trace is
    assigned to exactly one batch; a single trace longer than the budget gets
    its own batch.
    """
    if tokens_per_batch <= 0:
        raise ValueError("tokens_per_batch must be positive")
    if indices is None:
        indices = list(range(len(lengths)))
    batches: List[List[int]] = []
    current: List[int] = []
    current_tokens = 0
    for index in indices:
        length = int(lengths[index])
        if current and current_tokens + length > tokens_per_batch:
            batches.append(current)
            current = []
            current_tokens = 0
        current.append(index)
        current_tokens += length
    if current:
        batches.append(current)
    return batches
