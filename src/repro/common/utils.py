"""Small generic helpers used across the code base."""

from __future__ import annotations

import ctypes
import math
import os
import threading
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "ensure_list",
    "flatten_dict",
    "format_bytes",
    "format_seconds",
    "partition_traces",
    "prod",
    "shard_jobs",
    "start_piped_child",
    "usable_cores",
    "weighted_quantile",
]


def prod(values: Iterable[int]) -> int:
    """Integer product of an iterable (empty product is 1)."""
    out = 1
    for v in values:
        out *= int(v)
    return out


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
    explicit work list: the serving layer spreads one flushed micro-batch over
    idle workers with it (each shard becomes its own lockstep cohort, which is
    safe because every job carries an independent stream key).
    ``min_shard_size`` caps the shard count so that tiny batches are not
    splintered below a useful NN batch size.
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


def usable_cores(pin: Optional[int] = None) -> List[int]:
    """The cores this process may run on: its affinity mask, in core order.

    With ``pin`` the calling process then confines itself to
    ``cores[pin % len(cores)]`` of that mask, so processes pinned with
    distinct indices from one parent get distinct cores until the mask runs
    out.  Where the platform has no affinity calls every core is usable and
    pinning does nothing.
    """
    if not hasattr(os, "sched_getaffinity"):
        return list(range(os.cpu_count() or 1))
    cores = sorted(os.sched_getaffinity(0))
    if pin is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cores[pin % len(cores)]})
    return cores


#: Held from a pipe's creation until the parent has closed its copy of the
#: child end, so no other piped child is forked holding that end open.
_PIPE_START_LOCK = threading.Lock()

try:  # glibc only: elsewhere the C heap is left as it is
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def start_piped_child(context, target, args: Sequence, parent_ends: Sequence = (), name=None):
    """Start ``target(connection, parent_ends, *args)`` in a daemon child on one duplex pipe.

    Returns ``(process, connection)``, ``connection`` being the parent's end.
    The child must first close every connection in ``parent_ends`` — this
    pipe's parent end and the other parent-side ends it inherits under
    ``fork`` — so that each pipe reads end-of-file as soon as the one process
    on its other side is gone: the parent sees a dead child, a child sees a
    parent that let go of it.

    A forked child starts with every page the parent holds resident, freed
    heap included, and keeps it for its life.  How much freed heap glibc
    still holds depends on which allocation last landed at the top of the
    heap, so without ``malloc_trim`` first a serving worker's resident size
    varied by about 11 MB from one start to the next.
    """
    if _malloc_trim is not None and context.get_start_method() == "fork":
        _malloc_trim(0)
    with _PIPE_START_LOCK:
        connection, remote = context.Pipe()
        process = context.Process(
            target=target, args=(remote, [connection, *parent_ends], *args), name=name, daemon=True
        )
        process.start()
        remote.close()
    return process, connection


def ensure_list(value) -> List:
    """Wrap scalars in a list, pass lists/tuples through as a list."""
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def flatten_dict(d: Dict, prefix: str = "", sep: str = ".") -> Dict[str, object]:
    """Flatten a nested dict into dotted keys (used for config/metric logging)."""
    out: Dict[str, object] = {}
    for key, value in d.items():
        full = f"{prefix}{sep}{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(flatten_dict(value, prefix=full, sep=sep))
        else:
            out[full] = value
    return out


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte count (e.g. ``1.7 TB`` for the paper's dataset)."""
    num = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB", "PB"):
        if abs(num) < 1024.0 or unit == "PB":
            return f"{num:.1f} {unit}"
        num /= 1024.0
    return f"{num:.1f} PB"


def format_seconds(seconds: float) -> str:
    """Human-readable duration."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 60:
        return f"{seconds:.2f} s"
    if seconds < 3600:
        return f"{seconds / 60:.1f} min"
    return f"{seconds / 3600:.2f} h"


def weighted_quantile(values: Sequence[float], quantiles, weights=None) -> np.ndarray:
    """Weighted quantiles of a 1-D sample.

    Used by :class:`repro.ppl.empirical.Empirical` to summarise weighted
    posterior samples (importance-sampling / IC output).
    """
    values = np.asarray(values, dtype=float)
    quantiles = np.atleast_1d(np.asarray(quantiles, dtype=float))
    if np.any((quantiles < 0) | (quantiles > 1)):
        raise ValueError("quantiles must be in [0, 1]")
    if weights is None:
        weights = np.ones_like(values)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ValueError("values and weights must have the same shape")
    if values.size == 0:
        raise ValueError("cannot compute quantiles of an empty sample")
    sorter = np.argsort(values)
    values = values[sorter]
    weights = weights[sorter]
    cum_weights = np.cumsum(weights) - 0.5 * weights
    total = np.sum(weights)
    if total <= 0 or not math.isfinite(total):
        raise ValueError("weights must sum to a positive finite value")
    cum_weights /= total
    return np.interp(quantiles, cum_weights, values)
