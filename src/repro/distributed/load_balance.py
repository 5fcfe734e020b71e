"""Load-balancing schemes and their evaluation (Sections 6.2 and 7.2).

Per-rank compute time depends on the execution-trace lengths and trace types
in the minibatch each rank happens to draw, which makes load imbalance the
dominant scaling limiter once the allreduce is optimised.  The paper explores
(and this module implements) three mitigation schemes on top of the plain
sorted-chunk sampler:

* **multi-bucketing** — chunks are grouped into length buckets and every
  global minibatch is drawn from a single bucket, which both balances ranks
  and raises the effective minibatch size (30-60% throughput gain at 128-256
  nodes), at the cost of convergence when combined with same-type batching;
* **dynamic (token) batching** — each rank receives a fixed token budget
  instead of a fixed trace count (helps the LSTM, hurts the 3DCNN whose cost
  scales with trace count);
* **none** — the configuration the paper ultimately ships, with sorting and
  same-type chunking only.

:func:`evaluate_scheme` quantifies a scheme on a dataset without running the
NN: it reports the per-rank imbalance and the effective minibatch size, the
two quantities that translate into throughput.  Imbalance is measured in the
trainer's own cost model — :func:`repro.data.sampler.chunk_cost`'s LSTM steps,
the quantity a rank's measured compute follows — over the schedule the
trainer deals, so there is no second cost model to keep in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.batching import dynamic_token_batches, effective_minibatch_size
from repro.data.sampler import DistributedTraceSampler, chunk_cost
from repro.data.sorting import sorted_indices_by_trace_type

__all__ = ["SchemeEvaluation", "evaluate_scheme", "compare_schemes"]


@dataclass
class SchemeEvaluation:
    """Summary statistics of one load-balancing scheme on one dataset."""

    scheme: str
    mean_effective_minibatch: float
    mean_imbalance_percent: float
    iterations: int

    @property
    def throughput_proxy(self) -> float:
        """Higher is better: effective minibatch scaled down by load imbalance.

        Effective minibatch size is proportional to forward-pass vectorisation
        (fewer sub-minibatches), and imbalance inflates the per-iteration time
        by its percentage; the proxy combines both exactly as the wall-clock
        model in the performance model does.
        """
        return self.mean_effective_minibatch / (1.0 + self.mean_imbalance_percent / 100.0)


def _imbalance_percent(per_rank_costs: Sequence[float]) -> float:
    arr = np.asarray(per_rank_costs, dtype=float)
    if arr.size == 0 or arr.mean() == 0:
        return 0.0
    return 100.0 * (arr.max() - arr.mean()) / arr.mean()


def evaluate_scheme(
    dataset,
    scheme: str = "sorted",
    num_ranks: int = 4,
    local_minibatch_size: int = 16,
    num_buckets: int = 10,
    tokens_per_rank: Optional[int] = None,
    max_iterations: int = 50,
    seed: int = 0,
) -> SchemeEvaluation:
    """Evaluate a load-balancing scheme without running the network.

    Schemes: ``"unsorted"``, ``"sorted"``, ``"bucketing"``, ``"dynamic"``.
    """
    lengths = [dataset.trace_length_of(i) for i in range(len(dataset))]
    types = [dataset.trace_type_of(i) for i in range(len(dataset))]

    if scheme == "unsorted":
        order = list(range(len(dataset)))
        buckets = 1
    elif scheme == "sorted":
        order = sorted_indices_by_trace_type(dataset)
        buckets = 1
    elif scheme == "bucketing":
        order = sorted_indices_by_trace_type(dataset)
        buckets = num_buckets
    elif scheme == "dynamic":
        return _evaluate_dynamic(dataset, lengths, types, num_ranks, local_minibatch_size, tokens_per_rank, max_iterations)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    sampler = DistributedTraceSampler(
        order,
        minibatch_size=local_minibatch_size,
        num_ranks=num_ranks,
        num_buckets=buckets,
        lengths=lengths,
        trace_types=types,
        shuffle=True,
        seed=seed,
    )
    effective_sizes: List[float] = []
    imbalances: List[float] = []
    iterations = min(max_iterations, len(sampler))
    for _, group in zip(range(iterations), sampler):
        imbalances.append(_imbalance_percent([chunk_cost(chunk, lengths, types)[0] for chunk in group]))
        effective_sizes.append(effective_minibatch_size([types[i] for chunk in group for i in chunk]))
    return SchemeEvaluation(
        scheme=scheme,
        mean_effective_minibatch=float(np.mean(effective_sizes)) if effective_sizes else 0.0,
        mean_imbalance_percent=float(np.mean(imbalances)) if imbalances else 0.0,
        iterations=iterations,
    )


def _evaluate_dynamic(
    dataset,
    lengths: Sequence[int],
    types: Sequence[str],
    num_ranks: int,
    local_minibatch_size: int,
    tokens_per_rank: Optional[int],
    max_iterations: int,
) -> SchemeEvaluation:
    """Token-budget batching: every rank gets ~equal tokens per iteration."""
    order = sorted_indices_by_trace_type(dataset)
    if tokens_per_rank is None:
        tokens_per_rank = int(np.mean(lengths) * local_minibatch_size)
    batches = dynamic_token_batches(lengths, tokens_per_rank, indices=order)
    effective_sizes: List[float] = []
    imbalances: List[float] = []
    iterations = 0
    for start in range(0, len(batches) - num_ranks + 1, num_ranks):
        if iterations >= max_iterations:
            break
        group = batches[start : start + num_ranks]
        imbalances.append(_imbalance_percent([chunk_cost(batch, lengths, types)[0] for batch in group]))
        effective_sizes.append(effective_minibatch_size([types[i] for batch in group for i in batch]))
        iterations += 1
    return SchemeEvaluation(
        scheme="dynamic",
        mean_effective_minibatch=float(np.mean(effective_sizes)) if effective_sizes else 0.0,
        mean_imbalance_percent=float(np.mean(imbalances)) if imbalances else 0.0,
        iterations=iterations,
    )


def compare_schemes(
    dataset,
    schemes: Sequence[str] = ("unsorted", "sorted", "bucketing", "dynamic"),
    **kwargs,
) -> Dict[str, SchemeEvaluation]:
    """Evaluate several schemes on the same dataset (Section 7.2's comparison)."""
    return {scheme: evaluate_scheme(dataset, scheme=scheme, **kwargs) for scheme in schemes}
