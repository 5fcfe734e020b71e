"""Trace types: stable identifiers for address sequences.

Execution traces from the simulator come in many different *trace types* (a
unique sequence of addresses, Section 4.4.1); some types occur thousands of
times in a dataset while others are seen only once.  Training efficiency
depends on grouping traces of the same type into sub-minibatches, and the I/O
pipeline pre-sorts the offline dataset by trace type.  This module provides
the hashing.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

__all__ = ["trace_type_id"]


def trace_type_id(addresses: Sequence[str]) -> str:
    """Return a short stable hash of an address sequence."""
    hasher = hashlib.sha1()
    for address in addresses:
        hasher.update(address.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()[:16]

