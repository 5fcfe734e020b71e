"""Execution traces.

A single sample from an Etalumis inference engine corresponds to a full run of
the simulator (Section 4.2).  :class:`Trace` records that run: the ordered
latent samples, the observed (conditioning) statements, the simulator's return
value, and the log-probability decomposition used by every inference engine.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.trace.sample import Sample

__all__ = ["Trace"]


class Trace:
    """An execution trace of a probabilistic program / simulator."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []          # latent (controlled) draws, in order
        self.observes: List[Sample] = []          # conditioning statements, in order
        self.result: Any = None                   # simulator return value
        self.observation: Any = None              # the y fed to inference (e.g. 3D voxels)
        self._address_counts: Dict[str, int] = {}
        self._trace_type: Optional[str] = None

    # ------------------------------------------------------------------ build
    def add_sample(self, sample: Sample) -> None:
        if sample.observed:
            self.observes.append(sample)
        else:
            count = self._address_counts.get(sample.address, 0)
            sample.instance = count
            self._address_counts[sample.address] = count + 1
            self.samples.append(sample)
            self._trace_type = None

    def freeze(self, result: Any = None, observation: Any = None) -> "Trace":
        self.result = result
        if observation is not None:
            self.observation = observation
        return self

    # ------------------------------------------------------------- properties
    @property
    def length(self) -> int:
        """Number of latent draws (the probabilistic trace length)."""
        return len(self.samples)

    @property
    def addresses(self) -> Tuple[str, ...]:
        return tuple(s.address for s in self.samples)

    @property
    def trace_type(self) -> str:
        """A stable identifier of the address sequence (the 'trace type').

        Traces of the same type share the same sequence of addresses and
        therefore the same dynamic NN structure; minibatches are subdivided
        into same-type sub-minibatches before the forward pass (Algorithm 1).

        The id is hashed once and cached: training touches it for every trace
        of every minibatch (grouping, sorted scheduling, polymorph fast-path),
        and the address sequence is immutable once the trace is built.
        """
        # getattr: traces unpickled from older payloads predate the cache slot
        if getattr(self, "_trace_type", None) is None:
            from repro.trace.trace_type import trace_type_id

            self._trace_type = trace_type_id(self.addresses)
        return self._trace_type

    @property
    def log_prior(self) -> float:
        return float(sum(s.log_prob for s in self.samples))

    @property
    def log_likelihood(self) -> float:
        return float(sum(s.log_prob for s in self.observes))

    @property
    def log_joint(self) -> float:
        return self.log_prior + self.log_likelihood

    # ------------------------------------------------------------ name access
    def named_values(self) -> Dict[str, Any]:
        """Map of sample name -> value for all named latent draws.

        When a rejection loop revisits a named draw, the accepted (last)
        occurrence wins, which is the value the rest of the simulator actually
        used.
        """
        out: Dict[str, Any] = {}
        for sample in self.samples:
            if sample.name is not None:
                out[sample.name] = sample.value
        return out

    def __getitem__(self, name: str) -> Any:
        values = self.named_values()
        if name in values:
            return values[name]
        raise KeyError(f"no named sample {name!r} in trace")

    def get(self, name: str, default: Any = None) -> Any:
        try:
            return self[name]
        except KeyError:
            return default

    # ----------------------------------------------------------- serialisation
    def to_dict(self, include_distributions: bool = True) -> Dict[str, Any]:
        observation = self.observation
        if isinstance(observation, np.ndarray):
            observation = observation.tolist()
        result = self.result
        if isinstance(result, np.ndarray):
            result = result.tolist()
        return {
            "samples": [s.to_dict(include_distributions) for s in self.samples],
            "observes": [s.to_dict(include_distributions) for s in self.observes],
            "result": result,
            "observation": observation,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(length={self.length}, observes={len(self.observes)}, "
            f"log_joint={self.log_joint:.3f})"
        )
