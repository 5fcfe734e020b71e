"""Observation-keyed posterior cache (LRU).

Amortized inference makes repeated queries for the same observation pure
waste: the trained network is deterministic given (observation, num_traces,
seed policy), so the service memoizes finished posteriors under a fingerprint
of the observation tensor, the model identity and the trace budget.  Entries
are :class:`repro.ppl.empirical.FrozenPosterior` summaries — trace-free and
immutable, so one entry can be handed to any number of concurrent clients
without pinning simulator traces in memory.

For a fixed network a cached posterior never goes out of date; it goes wrong
only when the network is retrained in place, because it answers for a
proposal distribution that no longer exists.  :meth:`PosteriorCache.invalidate`
(optionally scoped to one ``model_id``) drops those entries; the service wires
it to the network's update notifications.  An entry lives until then or until
it is evicted.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.ppl.empirical import FrozenPosterior
from repro.testing import faults

__all__ = ["PosteriorCache", "observation_fingerprint"]


def _integrity_token(value: FrozenPosterior) -> Tuple[float, float, int]:
    """Cheap checksum of a frozen posterior's scalar summaries.

    Computed at :meth:`PosteriorCache.put` and re-verified on every lookup: a
    cached posterior whose summaries no longer match what was stored (cache
    poisoning, an aliasing bug mutating a "frozen" entry, a chaos-injected
    corruption) is dropped and counted instead of served.
    """
    return (
        float(getattr(value, "log_evidence", 0.0)),
        float(value.effective_sample_size()),
        int(len(value)),
    )


def observation_fingerprint(observation: Dict[str, Any], model_id: str, num_traces: int) -> str:
    """A stable digest of (observation tensor(s), model id, trace budget).

    Observation entries are hashed by name, dtype, shape and raw bytes, so two
    numerically identical arrays collide (the point of the cache) while any
    reshaped / retyped / perturbed observation gets its own entry.
    """
    digest = hashlib.sha256()
    digest.update(model_id.encode())
    digest.update(str(int(num_traces)).encode())
    for name in sorted(observation):
        array = np.ascontiguousarray(np.asarray(observation[name]))
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class PosteriorCache:
    """Thread-safe LRU cache of frozen posterior summaries.

    ``capacity`` bounds the entry count (least-recently-used eviction);
    ``capacity=0`` disables caching entirely (every lookup is a miss).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        #: key -> (frozen posterior, owning model id, integrity token)
        self._entries: "OrderedDict[str, Tuple[FrozenPosterior, Optional[str], Any]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.poison_detected = 0

    def lookup(self, key: str, record_miss: bool = True) -> Optional[FrozenPosterior]:
        """The entry stored under ``key``, or ``None``; a found entry counts as a hit.

        ``record_miss=False`` defers the miss accounting to the caller — the
        service uses this because a lookup miss may still be answered by
        single-flight coalescing, which it then folds back in via
        :meth:`record_hit`/:meth:`record_miss`.  These counters are the
        service's ``cache_hits`` / ``cache_misses``: no other component
        counts cache outcomes.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, _model_id, token = entry
                if token is None or _integrity_token(value) == token:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return value
                # The entry mutated after storage (poisoning/aliasing): drop
                # it and fall through to a miss — a corrupted posterior must
                # never be served.
                del self._entries[key]
                self.poison_detected += 1
            if record_miss:
                self.misses += 1
            return None

    def record_hit(self) -> None:
        """Count an externally-resolved hit (e.g. single-flight coalescing)."""
        with self._lock:
            self.hits += 1

    def record_miss(self) -> None:
        """Count a deferred miss (see :meth:`lookup` with ``record_miss=False``)."""
        with self._lock:
            self.misses += 1

    def put(self, key: str, value: FrozenPosterior, model_id: Optional[str] = None) -> None:
        """Insert/refresh an entry (``model_id`` scopes later invalidation)."""
        if self.capacity == 0:
            return
        try:
            token = _integrity_token(value)
        except Exception:
            token = None  # duck-typed test doubles without summaries: skip the check
        # Chaos hook: corrupt the entry *after* the token is computed — the
        # injected mutation models a post-storage bit flip, which the
        # integrity check must catch at lookup time.
        action = faults.fault_point("cache.poison", key=key)
        if action is not None and action.kind == "poison" and hasattr(value, "log_evidence"):
            value.log_evidence = float(value.log_evidence) + 1.0e6
        with self._lock:
            self._entries[key] = (value, model_id, token)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, model_id: Optional[str] = None) -> int:
        """Drop entries (all of them, or only those stored under ``model_id``).

        Wired by the service to in-place network retraining: the moment the
        proposal network's parameters change, every posterior computed under
        the old parameters is wrong.  Returns the number of entries dropped.
        """
        with self._lock:
            if model_id is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                doomed = [
                    key
                    for key, (_value, entry_model, _token) in self._entries.items()
                    if entry_model == model_id
                ]
                for key in doomed:
                    del self._entries[key]
                dropped = len(doomed)
            self.invalidations += dropped
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            size = len(self._entries)
        return {
            "size": size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "poison_detected": self.poison_detected,
            "hit_rate": self.hit_rate,
        }
