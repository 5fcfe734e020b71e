"""Request capture and deterministic replay for the posterior service.

A production debugging loop needs two halves: *capture* (record exactly what
the service admitted — observations, stream keys, admission order,
model/network identity) and *replay* (drive the same requests through a
service again and verify the posteriors are bit-identical).  Failing chaos
seeds become regression cases: capture the run, commit the file, replay it in
CI.

The capture file is JSON Lines — one header record, then one ``admission``
record per admitted request (in admission order) and one
``outcome`` record per resolution.  Observations are stored as
base64(raw bytes) + dtype + shape, and the request's random stream is stored
as its stream key (:func:`repro.ppl.inference.batched.request_key`, a few
ints), which is what makes replay exact: every trace job's generator is a
pure function of that key plus the trace index, regardless of cohort packing,
backend, how the original run interleaved requests, or whether the request
was seeded at all.

Bit-identity is checked through :func:`posterior_digest`: a sha256 over every
trace's controlled draws (addresses + raw value bytes) and the posterior's
log-weight bytes.  Equal digests mean equal samples, equal weights and
therefore equal generator trajectories — the replay gate CI runs.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional

import numpy as np

from repro.common.rng import StreamKey

__all__ = [
    "RequestCapture",
    "ReplayMismatch",
    "ReplayReport",
    "load_capture",
    "posterior_digest",
    "replay_capture",
]


def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    contiguous = np.ascontiguousarray(array)
    return {
        "dtype": str(contiguous.dtype),
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def _decode_array(payload: Dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, dtype=np.dtype(payload["dtype"])).reshape(
        payload["shape"]
    ).copy()


def posterior_digest(posterior) -> str:
    """sha256 over a posterior's controlled draws and log-weights.

    Covers, per trace in submission order: every sample's address and raw
    value bytes; then the full log-weight vector.  Two runs with equal
    digests drew identical values at identical addresses with identical
    weights — the strongest bit-identity statement available without
    persisting whole traces.
    """
    digest = hashlib.sha256()
    for trace in getattr(posterior, "values", []):
        for sample in trace.samples:
            digest.update(sample.address.encode())
            value = np.ascontiguousarray(np.asarray(sample.value, dtype=float))
            digest.update(value.tobytes())
    log_weights = np.ascontiguousarray(
        np.asarray(posterior.log_weights, dtype=float)
    )
    digest.update(log_weights.tobytes())
    return digest.hexdigest()


class RequestCapture:
    """Append-only recorder the service writes admissions and outcomes to.

    Thread-safe: admissions happen under the service's admission lock but
    outcomes land from worker/collector threads, so every write takes the
    capture's own lock and flushes (a crashed chaos run must leave a usable
    file behind — that is the point).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._file: Optional[IO[str]] = None
        self._order = 0
        self._header_written = False

    # ------------------------------------------------------------------ writing
    def _write(self, record: Dict[str, Any]) -> None:
        if self._file is None:
            self._file = open(self.path, "w")
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()

    def write_header(self, model_id: str, network_version: int) -> None:
        with self._lock:
            if self._header_written:
                return
            self._header_written = True
            self._write(
                {
                    "kind": "header",
                    "version": 2,
                    "model_id": model_id,
                    "network_version": int(network_version),
                }
            )

    def record_admission(
        self,
        request_id: int,
        observation: Dict[str, Any],
        num_traces: int,
        stream_key: StreamKey,
        network_version: int,
    ) -> int:
        """Record one admission and its stream key; returns its capture order index."""
        record = {
            "kind": "admission",
            "request_id": int(request_id),
            "num_traces": int(num_traces),
            "network_version": int(network_version),
            "key": [int(word) for word in stream_key],
            "observation": {
                name: _encode_array(np.asarray(value))
                for name, value in observation.items()
            },
        }
        with self._lock:
            order = self._order
            self._order += 1
            record["order"] = order
            self._write(record)
        return order

    def record_outcome(
        self,
        order: int,
        status: str,
        digest: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        record: Dict[str, Any] = {"kind": "outcome", "order": int(order), "status": status}
        if digest is not None:
            record["digest"] = digest
        if error is not None:
            record["error"] = error
        with self._lock:
            self._write(record)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "RequestCapture":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reading + replay
# ---------------------------------------------------------------------------


def load_capture(path: str) -> Dict[str, Any]:
    """Parse a capture file into ``{"header", "admissions", "outcomes"}``.

    ``admissions`` is sorted by capture order; ``outcomes`` maps order to the
    final outcome record (last writer wins, matching first-resolution-wins on
    the live futures).
    """
    header: Optional[Dict[str, Any]] = None
    admissions: List[Dict[str, Any]] = []
    outcomes: Dict[int, Dict[str, Any]] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "header":
                header = record
            elif kind == "admission":
                admissions.append(record)
            elif kind == "outcome":
                outcomes[record["order"]] = record
    admissions.sort(key=lambda record: record["order"])
    return {"header": header, "admissions": admissions, "outcomes": outcomes}


class ReplayMismatch(RuntimeError):
    """Replay produced a posterior whose digest differs from the capture."""


@dataclass
class ReplayReport:
    """Outcome of :func:`replay_capture`."""

    total: int = 0
    replayed: int = 0
    matched: int = 0
    skipped: int = 0          # original never completed (failed/shed): nothing to match
    mismatches: List[int] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.errors


def replay_capture(path: str, service, *, verify: bool = True, timeout: float = 60.0) -> ReplayReport:
    """Drive a capture file's requests through ``service`` in admission order.

    Each admission is resubmitted under its recorded stream key
    (``use_cache=False`` so every replay runs real inference) and, for
    admissions whose original outcome completed, the replayed posterior's
    digest is compared to the recorded one.  With ``verify=True`` the first
    divergence raises :class:`ReplayMismatch`; with ``verify=False`` all
    divergences are collected into the returned :class:`ReplayReport`.

    Requests are replayed sequentially.  That is *allowed* to differ from the
    original interleaving: every trace's stream is a pure function of its
    request's key, so cohort packing and admission concurrency never change a
    request's posterior — the same contract that makes seeded serving match
    the one-shot engine.
    """
    capture = load_capture(path)
    report = ReplayReport(total=len(capture["admissions"]))
    for admission in capture["admissions"]:
        order = admission["order"]
        outcome = capture["outcomes"].get(order)
        observation = {
            name: _decode_array(payload)
            for name, payload in admission["observation"].items()
        }
        try:
            future = service.submit(
                observation,
                admission["num_traces"],
                use_cache=False,
                stream_key=tuple(admission["key"]),
            )
            served = future.result(timeout=timeout)
        except BaseException as error:  # noqa: BLE001 - collected per record
            if outcome is not None and outcome.get("status") == "completed":
                message = f"order {order}: replay failed ({type(error).__name__}: {error})"
                if verify:
                    raise ReplayMismatch(message) from error
                report.errors.append(message)
            else:
                report.skipped += 1  # original failed too: nothing to compare
            continue
        report.replayed += 1
        if outcome is None or outcome.get("status") != "completed":
            report.skipped += 1
            continue
        recorded = outcome.get("digest")
        replayed = posterior_digest(served.posterior)
        if recorded == replayed:
            report.matched += 1
        else:
            report.mismatches.append(order)
            if verify:
                raise ReplayMismatch(
                    f"order {order}: replayed posterior digest {replayed[:12]}… "
                    f"differs from captured {str(recorded)[:12]}…"
                )
    return report
