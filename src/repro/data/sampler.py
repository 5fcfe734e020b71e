"""Distributed minibatch sampler (Section 4.4.3).

The paper's distributed sampler, re-implemented as one schedule for all ranks:

1. split the (trace-type-sorted) trace indices into minibatch-sized **chunks**
   (a short remainder is dropped), so that all traces within a chunk are
   highly likely to share a trace type;
2. sort the chunks by :func:`chunk_cost` and cut them into **cost-matched
   groups** of one chunk per rank, so the ranks of a step do similar work.
   When the chunk count is not a multiple of the rank count, the last group
   takes the costliest chunks, repeating some: no chunk is dropped;
3. each epoch, shuffle the order of the groups randomly (without replacement)
   and deal one group per iteration, chunk ``r`` to rank ``r``: every chunk is
   dealt once per epoch, and minibatches come from different regions of the
   sorted dataset, so the gradient stays unbiased in expectation.

The paper's Section 7.2 also tried length buckets (every step drawn from one
bucket of like-length chunks); they hurt convergence and it shipped without
them.  The cost-matched groups already pair chunks of like cost, so there is
no bucket layer here either.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.common.rng import RandomState

__all__ = ["DistributedTraceSampler", "chunk_cost"]


def chunk_cost(chunk: Sequence[int], lengths: Sequence[int], trace_types: Sequence[Hashable]) -> Tuple[int, int]:
    """``(summed type lengths, trace types)`` of the traces ``chunk``.

    A packed minibatch holds one pack per trace type in it.  The cost sums
    each distinct type's length once and breaks ties by the number of types.
    The LSTM runs one time-major sequence over every pack — as many steps
    as the longest pack, as many rows per step as the packs still running —
    so the sum only approximates a rank's work; the deal has not been
    measured against the sequence kernel.
    """
    steps = {trace_types[i]: lengths[i] for i in chunk}
    return sum(steps.values()), len(steps)


class DistributedTraceSampler:
    """Yields, per iteration, one group of dataset-index chunks: chunk ``r`` for rank ``r``.

    ``lengths`` and ``trace_types`` are indexed by dataset index; they cost
    the chunks for :func:`chunk_cost`.
    """

    def __init__(
        self,
        sorted_indices: Sequence[int],
        minibatch_size: int,
        num_ranks: int,
        lengths: Sequence[int],
        trace_types: Sequence[Hashable],
        seed: int = 0,
    ) -> None:
        if minibatch_size <= 0:
            raise ValueError("minibatch_size must be positive")
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        indices = list(sorted_indices)
        chunks = [
            indices[start : start + minibatch_size]
            for start in range(0, len(indices) - minibatch_size + 1, minibatch_size)
        ]
        if not chunks:
            raise ValueError(f"{len(indices)} traces fill no minibatch of {minibatch_size}: nothing to deal")
        chunks.sort(key=lambda chunk: chunk_cost(chunk, lengths, trace_types))
        self._groups: List[List[List[int]]] = []
        for start in range(0, len(chunks), num_ranks):
            # A short last group takes the `num_ranks` costliest chunks, or
            # all of them, some twice, when there are fewer.
            members = chunks[start : start + num_ranks] if start + num_ranks <= len(chunks) else chunks[-num_ranks:]
            self._groups.append([members[k * len(members) // num_ranks] for k in range(num_ranks)])
        self.seed = seed
        self.epoch = 0

    def set_epoch(self, epoch: int) -> None:
        """Change the shuffling seed (call once per epoch)."""
        self.epoch = epoch

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[List[List[int]]]:
        order = np.arange(len(self._groups))
        # (seed, epoch) mixed as separate entropy words — additive keying
        # (seed + epoch) collides across (seed=4, epoch=1)/(seed=5, epoch=0).
        rng = RandomState(self.seed).spawn(self.epoch)
        rng.generator.shuffle(order)
        for position in order:
            yield [list(chunk) for chunk in self._groups[position]]
