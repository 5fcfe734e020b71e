"""Gradient allreduce strategies (Section 4.4.4).

In Etalumis the set of non-null gradient tensors differs per rank (each rank's
minibatch touches a different subset of the address-specific layers), so a
naive allreduce over every parameter is wasteful.  The paper's strategy, which
this module implements and quantifies, is:

1. allreduce a small **presence map** so every rank knows the union of tensors
   that have gradients anywhere,
2. reduce only tensors in that union, filling local nulls with zeros
   (the reported 4x improvement in allreduce time), and
3. **fuse** small tensors into a contiguous buffer so that one collective call
   is issued per bucket instead of one per tensor, eliminating per-call
   latency and making the communication bandwidth-bound.

The ranks' gradients arrive as one flat image per rank: the rows of a
``(ranks, elements)`` array in which tensor ``i`` owns the ``sizes[i]``
elements after those of tensors ``0 .. i-1``, plus a ``(ranks, tensors)``
presence mask.  A tensor a rank has no gradient for holds zeros in that rank's
row.  Every strategy averages the rows in one pass and returns the averaged
image with the mask of tensors that come out with a gradient: every tensor for
``dense`` (absent ones as zeros), the union of present tensors for ``sparse``
and ``fused_sparse``.  The values are identical; the strategies differ only in
the :class:`CommunicationStats` they produce (number of collective calls,
elements moved, and modelled wall-clock time under a latency/bandwidth model),
which is what the ablation benchmark compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["CommunicationStats", "dense_allreduce", "sparse_allreduce", "fused_sparse_allreduce", "average_gradients"]

#: bytes per element (single precision on the wire, as in the paper's training)
_BYTES_PER_ELEMENT = 4


@dataclass
class CommunicationStats:
    """Accounting of one gradient-synchronisation step."""

    num_calls: int = 0
    elements: int = 0
    latency_s: float = 50e-6           # per-call latency of the interconnect
    bandwidth_bytes_per_s: float = 8e9  # effective allreduce bandwidth

    @property
    def bytes(self) -> int:
        return self.elements * _BYTES_PER_ELEMENT

    @property
    def modeled_time(self) -> float:
        """Latency + bandwidth model of the allreduce wall-clock time."""
        return self.num_calls * self.latency_s + self.bytes / self.bandwidth_bytes_per_s

    def add_call(self, elements: int) -> None:
        self.num_calls += 1
        self.elements += int(elements)


def _mean_of_rows(gradients: np.ndarray) -> np.ndarray:
    """The ranks' images summed in rank order from zeros, then divided by the rank count."""
    total = np.zeros(gradients.shape[1])
    for row in gradients:
        total += row
    total /= len(gradients)
    return total


def dense_allreduce(
    gradients: np.ndarray,
    present: np.ndarray,
    sizes: Sequence[int],
    stats: Optional[CommunicationStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Baseline: one allreduce per parameter over the *full* parameter set.

    Every rank contributes every tensor (zeros where it has no gradient), and
    one collective call is issued per tensor — the list-comprehension-over-
    ``all_reduce`` pattern the paper starts from.
    """
    stats = stats if stats is not None else CommunicationStats()
    for size in sizes:
        stats.add_call(size)
    return _mean_of_rows(gradients), np.ones(len(sizes), dtype=bool)


def sparse_allreduce(
    gradients: np.ndarray,
    present: np.ndarray,
    sizes: Sequence[int],
    stats: Optional[CommunicationStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce only the union of non-null gradients (the paper's 4x improvement).

    A presence-map allreduce (one element per parameter) establishes the union
    of tensors present on any rank; only those are then reduced, one call per
    tensor.
    """
    stats = stats if stats is not None else CommunicationStats()
    stats.add_call(len(sizes))  # presence map
    union = present.any(axis=0)
    for size, reduced in zip(sizes, union):
        if reduced:
            stats.add_call(size)
    return _mean_of_rows(gradients), union


def fused_sparse_allreduce(
    gradients: np.ndarray,
    present: np.ndarray,
    sizes: Sequence[int],
    bucket_elements: int = 1_000_000,
    stats: Optional[CommunicationStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse reduction with tensor fusion: concatenate small tensors into buffers.

    Tensors in the union are packed, in image order, into contiguous buckets of
    at most ``bucket_elements`` elements; one collective call is issued per
    bucket.
    """
    stats = stats if stats is not None else CommunicationStats()
    stats.add_call(len(sizes))  # presence map
    union = present.any(axis=0)
    bucket, members = 0, 0
    for size, reduced in zip(sizes, union):
        if not reduced:
            continue
        if members and bucket + size > bucket_elements:
            stats.add_call(bucket)
            bucket, members = 0, 0
        bucket += size
        members += 1
    if members:
        stats.add_call(bucket)
    return _mean_of_rows(gradients), union


def average_gradients(
    gradients: np.ndarray,
    present: np.ndarray,
    sizes: Sequence[int],
    strategy: str = "fused_sparse",
    stats: Optional[CommunicationStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dispatch to the requested allreduce strategy."""
    if strategy == "dense":
        return dense_allreduce(gradients, present, sizes, stats)
    if strategy == "sparse":
        return sparse_allreduce(gradients, present, sizes, stats)
    if strategy == "fused_sparse":
        return fused_sparse_allreduce(gradients, present, sizes, stats=stats)
    raise ValueError(f"unknown allreduce strategy {strategy!r}")
