"""Distributed minibatch sampler (Section 4.4.3).

The paper's distributed sampler, re-implemented as one schedule for all ranks:

1. split the (trace-type-sorted) trace indices into minibatch-sized **chunks**,
   so that all traces within a chunk are highly likely to share a trace type;
2. optionally group the chunks into several **buckets** by trace length
   (Section 7.2's multi-bucketing scheme);
3. within each bucket, sort the chunks by :func:`chunk_cost` and cut them into
   **cost-matched groups** of one chunk per rank, so the ranks of a step do
   similar work.  A bucket whose chunk count is not a multiple of the rank
   count fills its last group with its costliest chunks, repeating some: no
   chunk is dropped, and no group mixes buckets;
4. each epoch, shuffle the order of the groups randomly (without replacement)
   and deal one group per iteration, chunk ``r`` to rank ``r``: every chunk is
   dealt once per epoch, and minibatches come from different regions of the
   sorted dataset, so the gradient stays unbiased in expectation.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.rng import RandomState

__all__ = ["DistributedTraceSampler", "chunk_cost"]


def chunk_cost(chunk: Sequence[int], lengths: Sequence[int], trace_types: Sequence[Hashable]) -> Tuple[int, int]:
    """``(LSTM steps, sub-minibatches)`` of training on the traces ``chunk``.

    A packed minibatch runs one sub-minibatch per trace type in it, and the
    LSTM steps through each as many times as that type's traces are long: a
    rank's compute follows the sum of its distinct types' lengths, and the
    number of sub-minibatches breaks ties.
    """
    steps = {trace_types[i]: lengths[i] for i in chunk}
    return sum(steps.values()), len(steps)


class DistributedTraceSampler:
    """Yields, per iteration, one group of dataset-index chunks: chunk ``r`` for rank ``r``.

    Without ``lengths`` and ``trace_types`` every chunk costs the same and a
    bucket's groups follow the sorted order.
    """

    def __init__(
        self,
        sorted_indices: Sequence[int],
        minibatch_size: int,
        num_ranks: int = 1,
        num_buckets: int = 1,
        lengths: Optional[Sequence[int]] = None,
        trace_types: Optional[Sequence[Hashable]] = None,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = True,
    ) -> None:
        if minibatch_size <= 0:
            raise ValueError("minibatch_size must be positive")
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.sorted_indices = list(sorted_indices)
        self.minibatch_size = minibatch_size
        self.num_ranks = num_ranks
        self.num_buckets = num_buckets
        self.lengths = list(lengths) if lengths is not None else None
        self.trace_types = list(trace_types) if trace_types is not None else None
        self.shuffle = shuffle
        self.seed = seed
        self.drop_last = drop_last
        self.epoch = 0
        self._chunks = self._build_chunks()
        self._buckets = self._build_buckets(self._chunks)
        self._groups = self._build_groups(self._buckets)

    # ------------------------------------------------------------------ chunks
    def _build_chunks(self) -> List[List[int]]:
        chunks = []
        indices = self.sorted_indices
        for start in range(0, len(indices), self.minibatch_size):
            chunk = indices[start : start + self.minibatch_size]
            if len(chunk) < self.minibatch_size and self.drop_last:
                continue
            chunks.append(chunk)
        return chunks

    def _build_buckets(self, chunks: List[List[int]]) -> List[List[List[int]]]:
        if self.num_buckets == 1 or self.lengths is None:
            return [chunks]
        # Bucket chunks by their mean trace length: equal-count groups in length
        # order, and no more buckets than leave each one a chunk per rank.
        num_buckets = max(1, min(self.num_buckets, len(chunks) // self.num_ranks))
        mean_lengths = [np.mean([self.lengths[i] for i in chunk]) for chunk in chunks]
        by_length = np.argsort(mean_lengths, kind="stable")
        return [[chunks[i] for i in group] for group in np.array_split(by_length, num_buckets)]

    def _build_groups(self, buckets: List[List[List[int]]]) -> List[List[List[int]]]:
        """Each bucket's chunks in cost order, cut into groups of one chunk per rank."""
        ranks = self.num_ranks
        groups = []
        for bucket in buckets:
            if self.lengths is not None and self.trace_types is not None:
                bucket = sorted(bucket, key=lambda chunk: chunk_cost(chunk, self.lengths, self.trace_types))
            for start in range(0, len(bucket), ranks):
                # A short last group takes the bucket's `ranks` costliest
                # chunks, or all of them, some twice, when it has fewer.
                members = bucket[start : start + ranks] if start + ranks <= len(bucket) else bucket[-ranks:]
                groups.append([members[k * len(members) // ranks] for k in range(ranks)])
        return groups

    # --------------------------------------------------------------- iteration
    def set_epoch(self, epoch: int) -> None:
        """Change the shuffling seed (call once per epoch)."""
        self.epoch = epoch

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[List[List[int]]]:
        order = np.arange(len(self._groups))
        if self.shuffle:
            # (seed, epoch) mixed as separate entropy words — additive keying
            # (seed + epoch) collides across (seed=4, epoch=1)/(seed=5, epoch=0).
            rng = RandomState(self.seed).spawn(self.epoch)
            rng.generator.shuffle(order)
        for position in order:
            yield [list(chunk) for chunk in self._groups[position]]
