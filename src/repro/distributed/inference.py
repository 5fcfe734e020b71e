"""Distributed amortized inference: per-rank batched IS, merged at the end.

IC inference is embarrassingly parallel (Section 6.4: the paper's 2M-trace
posterior ran on 24 nodes in 30 minutes): every rank runs an independent
importance-sampling stream against the same trained network and observation,
and the per-rank traces are concatenated — importance weights need no
renormalisation across ranks because they share the same target and proposal
densities.

The parent derives every rank's stream key and every trace's stream key and
cuts each rank into cohort shards of
:class:`~repro.ppl.inference.batched.TraceJob` lists.  Where the shards run
is one small decision: ``"sequential"`` calls
:func:`repro.ppl.inference.batched.execute_trace_jobs` inline (the reference,
and the only choice for a remote simulator); ``"thread"`` and ``"process"``
hand them to a cohort pool of the one executor contract
(:mod:`repro.serving.workers`) — ``submit(shard, callback)`` per shard,
counters summed through the pool's ``on_stats``.  Results are identical on
every backend because no key is derived outside the parent, and a job's
generator is a pure function of its key.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.common.rng import RandomState, get_rng
from repro.common.utils import partition_traces
from repro.ppl.empirical import Empirical
from repro.ppl.inference.batched import (
    TraceJob,
    execute_trace_jobs,
    form_log_weights,
    merge_engine_stats,
    new_engine_stats,
    per_trace_keys,
    request_key,
    resolve_observation_array,
)
from repro.ppl.model import RemoteModel
from repro.serving.procpool import ProcessCohortPool
from repro.serving.workers import CohortWorkerPool

__all__ = ["distributed_importance_sampling"]


def _run_on_pool(
    pool_class, model, network, shards: List[List[TraceJob]], num_workers: int
) -> Tuple[List[Any], Dict[str, int]]:
    """Submit every shard to a cohort pool; traces in shard order + summed counters."""
    stats = new_engine_stats()
    outcomes: List[Any] = [None] * len(shards)
    # Thread workers report concurrently; the process pool's collector alone.
    stats_lock = threading.Lock()
    finished = threading.Semaphore(0)

    def on_stats(shard_stats: Dict[str, int], _elapsed: float) -> None:
        with stats_lock:
            merge_engine_stats(stats, shard_stats)

    def on_done(index: int, _shard, traces, error) -> None:
        outcomes[index] = (traces, error)
        finished.release()

    with pool_class(model, network, num_workers=num_workers, on_stats=on_stats) as pool:
        for index, shard in enumerate(shards):
            pool.submit(shard, partial(on_done, index))
        for _ in shards:
            finished.acquire()
    for _, error in outcomes:
        if error is not None:
            raise error
    return [trace for traces, _ in outcomes for trace in traces], stats


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
        child stream keyed ``(seed, base, r)`` via
        :func:`repro.ppl.inference.batched.per_trace_keys`, so the merged
        result is reproducible and independent of the execution backend.
    backend:
        Where the cohort shards execute: ``"sequential"`` (inline, the
        default), ``"thread"`` (:class:`repro.serving.workers.CohortWorkerPool`
        — useful when the simulator releases the GIL), or ``"process"``
        (persistent worker processes via
        :class:`repro.serving.procpool.ProcessCohortPool` — sidesteps the GIL
        entirely for CPU-bound Python simulators, the MPI-sharding shape of
        the source paper).  All three produce the same seeded posterior.
    num_workers:
        Width of the thread or process pool — how many shards run at once
        (default ``num_ranks``; ignored by ``"sequential"``).

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
    rank_keys = per_trace_keys(rng or get_rng(), num_ranks)
    observation_array = resolve_observation_array(network, observation, observe_key)
    # Rank boundaries are cohort boundaries: rank r's traces and counters are
    # those of a one-request run of sizes[r] traces on rank r's stream.
    shards: List[List[TraceJob]] = []
    for rank, size in enumerate(sizes):
        rank_rng = RandomState.from_key(rank_keys[rank])
        jobs = TraceJob.for_request(rank, observation, observation_array, size, request_key(rank_rng))
        shards.extend(jobs[start : start + batch_size] for start in range(0, size, batch_size))

    if backend == "sequential":
        traces, stats = [], new_engine_stats()
        for shard in shards:
            shard_traces, shard_stats = execute_trace_jobs(model, shard, network)
            traces.extend(shard_traces)
            merge_engine_stats(stats, shard_stats)
    else:
        pool_class = CohortWorkerPool if backend == "thread" else ProcessCohortPool
        traces, stats = _run_on_pool(
            pool_class, model, network, shards, num_workers if num_workers is not None else num_ranks
        )

    merged = Empirical(
        traces,
        form_log_weights(traces, network),
        name="distributed_importance_sampling_posterior",
    )
    merged.engine_stats = stats
    merged.per_rank_sizes = sizes
    return merged
