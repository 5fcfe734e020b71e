"""Distributed minibatch sampler (Section 4.4.3).

The paper's distributed sampler, re-implemented:

1. split the (trace-type-sorted) trace indices into minibatch-sized **chunks**,
   so that all traces within a chunk are highly likely to share a trace type;
2. optionally group the chunks into several **buckets** by trace length
   (Section 7.2's multi-bucketing scheme);
3. within each bucket, assign chunks **round-robin** to ranks so every rank
   sees a similar workload distribution;
4. each epoch, shuffle the chunk order randomly (without replacement), so that
   minibatches come from different regions of the sorted dataset and the
   gradient stays unbiased in expectation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.common.rng import RandomState, get_rng

__all__ = ["DistributedTraceSampler"]


class DistributedTraceSampler:
    """Yields per-rank minibatches of dataset indices."""

    def __init__(
        self,
        sorted_indices: Sequence[int],
        minibatch_size: int,
        num_ranks: int = 1,
        rank: int = 0,
        num_buckets: int = 1,
        lengths: Optional[Sequence[int]] = None,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = True,
    ) -> None:
        if minibatch_size <= 0:
            raise ValueError("minibatch_size must be positive")
        if not (0 <= rank < num_ranks):
            raise ValueError("rank must be in [0, num_ranks)")
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.sorted_indices = list(sorted_indices)
        self.minibatch_size = minibatch_size
        self.num_ranks = num_ranks
        self.rank = rank
        self.num_buckets = num_buckets
        self.lengths = list(lengths) if lengths is not None else None
        self.shuffle = shuffle
        self.seed = seed
        self.drop_last = drop_last
        self.epoch = 0
        self._chunks = self._build_chunks()
        self._buckets = self._build_buckets(self._chunks)
        self._rank_chunks = self._assign_round_robin(self._buckets)

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
        # order, and no more buckets than leave each one a chunk per rank —
        # a bucket with fewer chunks than ranks starves the higher ranks.
        num_buckets = max(1, min(self.num_buckets, len(chunks) // self.num_ranks))
        mean_lengths = [np.mean([self.lengths[i] for i in chunk]) for chunk in chunks]
        by_length = np.argsort(mean_lengths, kind="stable")
        return [[chunks[i] for i in group] for group in np.array_split(by_length, num_buckets)]

    def _assign_round_robin(self, buckets: List[List[List[int]]]) -> List[List[int]]:
        """Chunks assigned to this rank, preserving bucket grouping."""
        mine: List[List[int]] = []
        for bucket in buckets:
            for position, chunk in enumerate(bucket):
                if position % self.num_ranks == self.rank:
                    mine.append(chunk)
        return mine

    # --------------------------------------------------------------- iteration
    def set_epoch(self, epoch: int) -> None:
        """Change the shuffling seed (call once per epoch, same value on all ranks)."""
        self.epoch = epoch

    def __len__(self) -> int:
        return len(self._rank_chunks)

    def __iter__(self) -> Iterator[List[int]]:
        order = np.arange(len(self._rank_chunks))
        if self.shuffle:
            # (seed, epoch) mixed as separate entropy words — additive keying
            # (seed + epoch) collides across (seed=4, epoch=1)/(seed=5, epoch=0).
            rng = RandomState(self.seed).spawn(self.epoch)
            rng.generator.shuffle(order)
        for position in order:
            yield list(self._rank_chunks[position])

    # -------------------------------------------------------------- statistics
    def iterations_per_epoch(self) -> int:
        return len(self._rank_chunks)

    def workload_tokens(self) -> int:
        """Total number of tokens (random draws) this rank processes per epoch."""
        if self.lengths is None:
            return sum(len(chunk) for chunk in self._rank_chunks)
        return int(sum(self.lengths[i] for chunk in self._rank_chunks for i in chunk))
