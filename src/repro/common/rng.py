"""Deterministic random-number management.

Every stochastic component in the reproduction (simulators, inference engines,
neural-network initialisation, the distributed trainer) draws its randomness
through this module so that experiments are reproducible end to end.  The
paper's workflow depends on reproducibility for comparing trained networks
without ambiguity (synchronous updates were chosen partly for this reason), so
we mirror that discipline here.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional, Tuple, Union

import numpy as np

__all__ = ["RandomState", "get_rng", "seed_all", "temporary_seed"]


class RandomState:
    """A named wrapper around :class:`numpy.random.Generator`.

    The wrapper exists so that callers can hold a stable handle while the
    underlying generator is re-seeded (e.g. by :func:`seed_all` at the start
    of an experiment, or per-rank in the distributed trainer).
    """

    def __init__(self, seed: Optional[int] = None, name: str = "default") -> None:
        self.name = name
        self._seed = seed
        self._gen = np.random.default_rng(seed)

    @classmethod
    def _around(cls, generator: np.random.Generator, seed, name: str) -> "RandomState":
        """A state holding ``generator`` under the seed identity ``seed``.

        Skips ``__init__``, whose ``default_rng(None)`` would read OS entropy
        for a generator that is replaced at once.
        """
        state = cls.__new__(cls)
        state.name = name
        state._seed = seed
        state._gen = generator
        return state

    @property
    def seed(self) -> Optional[int]:
        """The last seed this state was (re-)initialised with."""
        return self._seed

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._gen

    def reseed(self, seed: Optional[int]) -> None:
        """Re-initialise the underlying generator with ``seed``."""
        self._seed = seed
        self._gen = np.random.default_rng(seed)

    def spawn(self, key: Union[int, Tuple[int, ...]]) -> "RandomState":
        """Derive an independent child stream keyed by ``key``.

        Used to give every simulated MPI rank / every worker its own stream
        that is a pure function of (parent seed, key).  The derivation uses a
        :class:`numpy.random.SeedSequence` so that different keys give
        statistically independent streams.

        ``key`` may also be a tuple of ints: each element becomes its own
        SeedSequence entropy word, so composite keys such as ``(base, index)``
        are *mixed* rather than summed — ``(b, i)`` and ``(b + 1, i - 1)``
        yield unrelated streams, which is what
        :func:`repro.ppl.inference.batched.per_trace_rngs` relies on to keep
        concurrent requests' trace streams collision-free.

        An unseeded parent has no seed identity to derive from, so its
        children take their base from fresh entropy: two unseeded parents
        never hand out the same child stream.  The child records that base,
        so its own snapshot still restores its lineage.
        """
        if self._seed is None:
            base = int(np.random.SeedSequence().entropy) & 0xFFFFFFFF
        elif isinstance(self._seed, int):
            base = self._seed
        else:
            base = hash(self._seed) & 0xFFFFFFFF
        keys: Tuple[int, ...] = key if isinstance(key, tuple) else (key,)
        entropy = [int(base) & 0xFFFFFFFF] + [int(k) & 0xFFFFFFFF for k in keys]
        seq = np.random.SeedSequence(entropy=entropy)
        label = "/".join(str(k) for k in keys)
        return RandomState._around(np.random.default_rng(seq), (base,) + keys, f"{self.name}/{label}")

    def snapshot(self) -> dict:
        """Portable snapshot of this stream: the seed identity plus generator state.

        Both halves matter for exact restoration: the bit-generator state
        replays the draw sequence, and ``seed`` is the entropy base
        :meth:`spawn` mixes into child streams — restoring state alone would
        reproduce draws but derive different children.  The snapshot is plain
        ints/strings/tuples, so it JSON-serialises (the capture/replay file
        format relies on this).
        """
        return {"seed": self._seed, "state": self._gen.bit_generator.state}

    @classmethod
    def restore(cls, snapshot: dict, name: str = "restored") -> "RandomState":
        """Rebuild a stream from a :meth:`snapshot` (bit-identical draws).

        The one sanctioned way to resurrect a serialized stream — callers
        (capture replay, retry rewind) must not construct generators
        themselves.  Tolerates JSON round-trips: a list-form seed is a tuple
        seed that went through JSON.
        """
        seed = snapshot["seed"]
        if isinstance(seed, list):
            seed = tuple(seed)
        # Any fixed seed will do: the snapshot's state overwrites it.
        generator = np.random.default_rng(0)
        generator.bit_generator.state = snapshot["state"]
        return cls._around(generator, seed, name)

    # Convenience passthroughs --------------------------------------------------
    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def choice(self, a, size=None, replace=True, p=None):
        return self._gen.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self._gen.permutation(x)

    def random(self, size=None):
        return self._gen.random(size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def gamma(self, shape, scale=1.0, size=None):
        return self._gen.gamma(shape, scale, size)

    def beta(self, a, b, size=None):
        return self._gen.beta(a, b, size)

    def poisson(self, lam, size=None):
        return self._gen.poisson(lam, size)

    def exponential(self, scale=1.0, size=None):
        return self._gen.exponential(scale, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomState(name={self.name!r}, seed={self._seed!r})"


_lock = threading.Lock()
_global_state = RandomState(seed=0, name="global")


def get_rng() -> RandomState:
    """Return the process-global random state."""
    return _global_state


def seed_all(seed: int) -> None:
    """Seed the process-global random state (and numpy's legacy global RNG)."""
    with _lock:
        _global_state.reseed(seed)
        np.random.seed(seed % (2**32))


@contextlib.contextmanager
def temporary_seed(seed: int) -> Iterator[RandomState]:
    """Context manager that runs a block under a temporary global seed.

    The previous generator is restored on exit, so test isolation is
    preserved even when library code uses :func:`get_rng` internally.
    """
    with _lock:
        prev_gen = _global_state._gen
        prev_seed = _global_state._seed
        _global_state.reseed(seed)
    try:
        yield _global_state
    finally:
        with _lock:
            _global_state._gen = prev_gen
            _global_state._seed = prev_seed
