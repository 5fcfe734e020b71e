"""Distributed amortized inference: per-rank batched IS, merged at the end.

IC inference is embarrassingly parallel (Section 6.4: the paper's 2M-trace
posterior ran on 24 nodes in 30 minutes): every rank runs an independent
importance-sampling stream against the same trained network and observation,
and the per-rank traces are concatenated — importance weights need no
renormalisation across ranks because they share the same target and proposal
densities.

The parent derives every rank's stream and every trace's stream, cuts each
rank into cohort shards of :class:`~repro.ppl.inference.batched.TraceJob`
lists, and hands the shards to an executor; each shard runs through
:func:`repro.ppl.inference.batched.execute_trace_jobs` wherever the executor
puts it (inline, a thread, a worker process).  Results are identical on
every backend because no stream is derived outside the parent.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.rng import RandomState, get_rng
from repro.ppl.empirical import Empirical
from repro.ppl.inference.batched import (
    TraceJob,
    execute_trace_jobs,
    form_log_weights,
    merge_engine_stats,
    new_engine_stats,
    per_trace_rngs,
    resolve_observation_array,
)
from repro.ppl.model import RemoteModel

__all__ = ["distributed_importance_sampling", "partition_traces", "shard_jobs"]


def partition_traces(num_traces: int, num_ranks: int) -> List[int]:
    """Split ``num_traces`` across ranks as evenly as possible.

    The first ``num_traces % num_ranks`` ranks receive one extra trace, so
    per-rank sizes may be unequal — :meth:`Empirical.combine` handles that.
    """
    if num_traces <= 0:
        raise ValueError("num_traces must be positive")
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    base, extra = divmod(num_traces, num_ranks)
    return [base + (1 if rank < extra else 0) for rank in range(num_ranks)]


def shard_jobs(jobs: List, num_shards: int, min_shard_size: int = 1) -> List[List]:
    """Split a flat job list into contiguous, evenly sized shards.

    The rank-partitioning rule of :func:`partition_traces` applied to an
    explicit work list: used by the serving layer's worker pool to spread one
    flushed micro-batch over idle workers (each shard becomes its own lockstep
    cohort, which is safe because every job carries an independent random
    stream).  ``min_shard_size`` caps the shard count so that tiny batches are
    not splintered below a useful NN batch size.
    """
    if min_shard_size < 1:
        raise ValueError("min_shard_size must be >= 1")
    if not jobs:
        return []
    num_shards = max(1, min(num_shards, len(jobs) // min_shard_size))
    sizes = partition_traces(len(jobs), num_shards)
    shards: List[List] = []
    start = 0
    for size in sizes:
        if size:
            shards.append(jobs[start : start + size])
        start += size
    return shards


def _run_on_processes(
    model, network, shards: Sequence[List[TraceJob]], num_workers: int
) -> List[Tuple[List[Any], Dict[str, int]]]:
    """Execute every shard on worker processes; one ``(traces, stats)`` per shard."""
    # Imported lazily: repro.serving imports this module (shard_jobs), so a
    # top-level import of the pool would be circular.
    from repro.serving.procpool import ProcessCohortPool

    results: List[Any] = [None] * len(shards)
    stats: List[Dict[str, int]] = [{} for _ in shards]
    errors: List[BaseException] = []
    finished = threading.Semaphore(0)

    # Both callbacks run on the pool's single collector thread, stats first.
    def on_stats(index: int, shard_stats, _elapsed) -> None:
        stats[index] = shard_stats

    def on_done(index: int, _entries, traces, error) -> None:
        if error is not None:
            errors.append(error)
        else:
            results[index] = (traces, stats[index])
        finished.release()

    with ProcessCohortPool(model, network, num_workers=num_workers) as pool:
        for index, jobs in enumerate(shards):
            pool.submit(jobs, partial(on_done, index), stats_callback=partial(on_stats, index))
        for _ in shards:
            finished.acquire()
    if errors:
        raise errors[0]
    return results


def distributed_importance_sampling(
    model,
    observation: Dict[str, Any],
    num_traces: int = 1000,
    num_ranks: int = 1,
    network=None,
    batch_size: int = 64,
    observe_key: Optional[str] = None,
    rng: Optional[RandomState] = None,
    backend: str = "sequential",
    num_workers: Optional[int] = None,
) -> Empirical:
    """Run batched IS on every rank and merge the per-rank posteriors.

    Parameters
    ----------
    num_ranks:
        Number of independent IS streams; rank r draws its randomness from a
        child stream mixed from ``(base, r)`` via
        :func:`repro.ppl.inference.batched.per_trace_rngs`, so the merged
        result is reproducible and independent of the execution backend.
    backend:
        Where the cohort shards execute: ``"sequential"`` (inline, the
        default), ``"thread"`` (``num_ranks`` shards at a time on threads —
        useful when the simulator releases the GIL), or ``"process"``
        (persistent worker processes via
        :class:`repro.serving.procpool.ProcessCohortPool` — sidesteps the GIL
        entirely for CPU-bound Python simulators, the MPI-sharding shape of
        the source paper).  All three produce the same seeded posterior.
    num_workers:
        Process-backend pool width (default ``num_ranks``).

    Returns
    -------
    Empirical
        The concatenation of all per-rank weighted posteriors, with
        ``engine_stats`` aggregated across ranks.
    """
    if backend not in ("sequential", "thread", "process"):
        raise ValueError(
            f"backend must be 'sequential', 'thread' or 'process', got {backend!r}"
        )
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    # A remote simulator multiplexes one PPX transport; concurrent shards
    # would interleave its request/reply protocol (and the transport cannot
    # cross a process boundary), so serialize them — the per-trace streams
    # make the result identical either way.
    if isinstance(model, RemoteModel):
        backend = "sequential"
    sizes = [size for size in partition_traces(num_traces, num_ranks) if size]
    rank_rngs = per_trace_rngs(rng or get_rng(), num_ranks)
    observation_array = resolve_observation_array(network, observation, observe_key)
    # Rank boundaries are cohort boundaries: rank r's traces and counters are
    # those of a one-request run of sizes[r] traces on rank r's stream.
    shards: List[List[TraceJob]] = []
    for rank, size in enumerate(sizes):
        jobs = TraceJob.for_request(rank, observation, observation_array, size, rank_rngs[rank])
        shards.extend(jobs[start : start + batch_size] for start in range(0, size, batch_size))

    if backend == "process":
        results = _run_on_processes(
            model, network, shards, num_workers if num_workers is not None else num_ranks
        )
    elif backend == "thread":
        with ThreadPoolExecutor(max_workers=num_ranks, thread_name_prefix="is-rank") as pool:
            results = list(pool.map(lambda jobs: execute_trace_jobs(model, jobs, network), shards))
    else:
        results = [execute_trace_jobs(model, jobs, network) for jobs in shards]

    traces = [trace for shard_traces, _ in results for trace in shard_traces]
    merged = Empirical(
        traces,
        form_log_weights(traces, network),
        name="distributed_importance_sampling_posterior",
    )
    merged.engine_stats = new_engine_stats()
    for _, shard_stats in results:
        merge_engine_stats(merged.engine_stats, shard_stats)
    merged.per_rank_sizes = sizes
    return merged
