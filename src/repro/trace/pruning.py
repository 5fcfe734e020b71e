"""Trace pruning and address dictionaries (Section 4.4.3).

Training data consists of execution traces with a complex hierarchy (variable
sequences of sample objects containing tensors, strings, ...).  The paper
reports two storage optimisations which this module reproduces:

* a **pruning** function that shrinks traces by removing structures that are
  not needed for training (distribution objects are re-derivable from the
  model; only address, value and name survive), and
* an **address dictionary** that replaces the fairly long address strings by
  shorthand integer ids used in serialisation, giving a ~40% memory reduction
  and large disk-space savings.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.trace.sample import Sample
from repro.trace.trace import Trace

__all__ = [
    "AddressDictionary",
    "prune_trace",
    "restore_trace",
    "stored_observation",
    "stored_sample",
    "pruned_size_bytes",
]


class AddressDictionary:
    """Bidirectional mapping between address strings and shorthand ids."""

    def __init__(self) -> None:
        self._to_id: Dict[str, int] = {}
        self._to_address: List[str] = []

    def id_for(self, address: str) -> int:
        if address not in self._to_id:
            self._to_id[address] = len(self._to_address)
            self._to_address.append(address)
        return self._to_id[address]

    def address_for(self, shorthand: int) -> str:
        return self._to_address[shorthand]

    def __len__(self) -> int:
        return len(self._to_address)

    def __contains__(self, address: str) -> bool:
        return address in self._to_id

    def to_dict(self) -> Dict[str, Any]:
        return {"addresses": list(self._to_address)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AddressDictionary":
        obj = cls()
        for address in payload["addresses"]:
            obj.id_for(address)
        return obj


def prune_trace(
    trace: Trace,
    address_dictionary: Optional[AddressDictionary] = None,
) -> Dict[str, Any]:
    """Shrink a trace to the minimal record needed for IC training.

    The pruned record keeps, per latent sample: (shorthand address, value,
    name, controlled flag) plus the prior-distribution summary needed to build
    proposal layers, and the observation tensor.  Log-probs, the simulator
    result and observe distributions are dropped (they are not inputs to the
    NN loss).
    """
    samples: List[Dict[str, Any]] = []
    for sample in trace.samples:
        record: Dict[str, Any] = {
            "value": np.asarray(sample.value).tolist()
            if isinstance(sample.value, np.ndarray)
            else sample.value,
            "name": sample.name,
            "controlled": sample.controlled,
        }
        if address_dictionary is not None:
            record["address_id"] = address_dictionary.id_for(sample.address)
        else:
            record["address"] = sample.address
        if sample.distribution is not None:
            record["distribution"] = sample.distribution.to_dict()
        samples.append(record)

    observation = trace.observation
    if isinstance(observation, np.ndarray):
        observation = observation.tolist()
    return {"samples": samples, "observation": observation}


def stored_sample(record: Dict[str, Any], address_dictionary: Optional[AddressDictionary] = None):
    """The ``(address, value)`` of one pruned sample record.

    The one reading of a stored sample, shared by :func:`restore_trace` and
    the record decode of :mod:`repro.data.packing`: shorthand address ids are
    resolved through ``address_dictionary`` and list values become arrays.
    """
    if "address_id" in record:
        if address_dictionary is None:
            raise ValueError("pruned record uses an address dictionary; pass it to restore_trace")
        address = address_dictionary.address_for(record["address_id"])
    else:
        address = record["address"]
    value = record["value"]
    if isinstance(value, list):
        value = np.asarray(value)
    return address, value


def stored_observation(pruned: Dict[str, Any]) -> Any:
    """The observation of a pruned record (``None`` if it was not kept), list values as an array."""
    observation = pruned.get("observation")
    if isinstance(observation, list):
        observation = np.asarray(observation)
    return observation


def restore_trace(
    pruned: Dict[str, Any], address_dictionary: Optional[AddressDictionary] = None
) -> Trace:
    """Rebuild a :class:`Trace` from its pruned record (inverse of :func:`prune_trace`)."""
    from repro.distributions import distribution_from_dict, log_prob_total

    trace = Trace()
    for record in pruned["samples"]:
        address, value = stored_sample(record, address_dictionary)
        distribution, log_prob = None, 0.0
        if "distribution" in record:
            # A record its own distribution cannot rebuild or score is corrupt:
            # training on it with a made-up prior term would be silent damage.
            try:
                distribution = distribution_from_dict(record["distribution"])
                log_prob = log_prob_total(distribution, value)
            except Exception as error:
                raise ValueError(
                    f"sample at address {address!r}: stored value cannot be scored by its "
                    f"stored distribution ({type(error).__name__}: {error})"
                ) from error
        trace.add_sample(
            Sample(
                address=address,
                distribution=distribution,
                value=value,
                observed=False,
                log_prob=log_prob,
                controlled=bool(record.get("controlled", True)),
                name=record.get("name"),
            )
        )
    trace.observation = stored_observation(pruned)
    return trace


def pruned_size_bytes(payload: Any) -> int:
    """Rough in-memory size of a pruned record (for the 40%-reduction ablation)."""
    import pickle

    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
