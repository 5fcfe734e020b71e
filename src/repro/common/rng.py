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
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["RandomState", "StreamKey", "get_rng", "seed_all", "temporary_seed"]

#: a stream key: one ``SeedSequence`` entropy word per element
StreamKey = Tuple[int, ...]


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
    def from_key(cls, key: Sequence[int], name: str = "default") -> "RandomState":
        """The stream of a stream key: a pure function of ``key`` and nothing else.

        Each element of ``key`` is one ``SeedSequence`` entropy word (taken
        modulo 2**32), so the words are *mixed*: ``(b, i)`` and
        ``(b + 1, i - 1)`` are unrelated streams.  A key is plain ints, so it
        pickles and JSON-serialises as it is, and every build from one key
        starts at the same first draw — a trace job ships its key instead of
        a generator, and a retry or a replay simply builds the stream again.
        ``key`` becomes the stream's seed identity, which its own
        :meth:`spawn` children derive from.  Builds exactly one generator and
        reads no OS entropy.
        """
        key = tuple(key)
        state = cls.__new__(cls)
        state.name = name
        state._seed = key
        state._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=[word & 0xFFFFFFFF for word in key])
        )
        return state

    @property
    def seed(self) -> Union[None, int, StreamKey]:
        """The seed identity: the last int seed, or the key of a keyed stream."""
        return self._seed

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._gen

    def reseed(self, seed: Optional[int]) -> None:
        """Re-initialise the underlying generator with ``seed``."""
        self._seed = seed
        self._gen = np.random.default_rng(seed)

    def child_key(self, key: Union[int, StreamKey]) -> StreamKey:
        """The stream key of this stream's child ``key``: its identity word, then ``key``.

        The identity word is the int seed, or a keyed stream's key hashed to
        32 bits (a tuple of ints hashes the same in every process).  An
        unseeded stream has no identity, so each call takes the word from
        fresh entropy: two unseeded parents never hand out the same child.
        The key records the word either way, so the child it names can be
        rebuilt with :meth:`from_key`.
        """
        if self._seed is None:
            base = int(np.random.SeedSequence().entropy) & 0xFFFFFFFF
        elif isinstance(self._seed, int):
            base = self._seed
        else:
            base = hash(self._seed) & 0xFFFFFFFF
        keys = key if isinstance(key, tuple) else (key,)
        return (base,) + tuple(int(k) for k in keys)

    def spawn(self, key: Union[int, StreamKey]) -> "RandomState":
        """Derive an independent child stream keyed by ``key``.

        Used to give every simulated MPI rank / every epoch its own stream
        that is a pure function of (parent seed, key): the stream of
        :meth:`child_key`.  ``key`` may be an int or a tuple of ints; each
        element is its own entropy word, so composite keys such as
        ``(base, index)`` are *mixed* rather than summed.
        """
        key = self.child_key(key)
        return RandomState.from_key(key, name="/".join([self.name, *map(str, key[1:])]))

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
