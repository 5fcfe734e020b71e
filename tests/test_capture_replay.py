"""Tests of request capture and deterministic replay.

The acceptance contract: a capture file records enough (observations, stream
keys, admission order, model/network version) that replaying it through
a fresh service reproduces every completed posterior *bit-identically* —
equal sample values, equal log-weights, equal generator trajectories — across
backends and regardless of how the original run interleaved requests.
"""

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.ppl import FunctionModel
from repro.ppl.inference.batched import request_key
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.serving import (
    PosteriorService,
    ReplayMismatch,
    RequestCapture,
    load_capture,
    posterior_digest,
    replay_capture,
)
from tests.test_batched_inference import OBSERVATION, lockstep_program

OBSERVATION_B = {"obs": np.array([0.2, -0.4, 0.8, 0.6])}


@pytest.fixture(scope="module")
def served_engine():
    model = FunctionModel(lockstep_program, name="lockstep")
    engine = InferenceCompilation(
        observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=16),
        observe_key="obs",
        rng=RandomState(0),
    )
    engine.train(model, num_traces=400, minibatch_size=20, learning_rate=3e-3)
    return model, engine


def make_service(model, engine, **kwargs):
    defaults = dict(observe_key="obs", max_batch=32, max_latency=0.01, num_workers=2)
    defaults.update(kwargs)
    return PosteriorService(model, engine.network, **defaults)


class TestPosteriorDigest:
    def test_digest_is_deterministic_and_sensitive(self, served_engine):
        model, engine = served_engine
        from repro.ppl.inference.batched import batched_importance_sampling

        same = [
            batched_importance_sampling(
                model, OBSERVATION, num_traces=8, batch_size=8,
                network=engine.network, rng=RandomState(3),
            )
            for _ in range(2)
        ]
        other = batched_importance_sampling(
            model, OBSERVATION, num_traces=8, batch_size=8,
            network=engine.network, rng=RandomState(4),
        )
        assert posterior_digest(same[0]) == posterior_digest(same[1])
        assert posterior_digest(same[0]) != posterior_digest(other)


class TestCaptureFile:
    def test_capture_records_header_admissions_and_outcomes(self, served_engine, tmp_path):
        model, engine = served_engine
        path = str(tmp_path / "capture.jsonl")
        with make_service(model, engine, capture=path) as service:
            service.posterior(OBSERVATION, num_traces=6, seed=11, use_cache=False, timeout=60)
            service.posterior(OBSERVATION_B, num_traces=4, seed=12, use_cache=False, timeout=60)
        capture = load_capture(path)
        assert capture["header"]["model_id"] == service._model_id
        assert [a["order"] for a in capture["admissions"]] == [0, 1]
        assert [a["num_traces"] for a in capture["admissions"]] == [6, 4]
        # The request's stream is recorded as its key: a few ints, no state.
        assert [a["key"] for a in capture["admissions"]] == [
            list(request_key(RandomState(11))), list(request_key(RandomState(12)))
        ]
        for order in (0, 1):
            assert capture["outcomes"][order]["status"] == "completed"
            assert len(capture["outcomes"][order]["digest"]) == 64
        decoded = capture["admissions"][0]["observation"]["obs"]
        restored = np.frombuffer(
            __import__("base64").b64decode(decoded["data"]),
            dtype=np.dtype(decoded["dtype"]),
        ).reshape(decoded["shape"])
        assert np.array_equal(restored, np.asarray(OBSERVATION["obs"]))

    def test_cache_hits_and_internal_refreshes_are_not_captured(self, served_engine, tmp_path):
        model, engine = served_engine
        path = str(tmp_path / "capture.jsonl")
        with make_service(model, engine, capture=path) as service:
            service.posterior(OBSERVATION, num_traces=6, seed=1, timeout=60)
            hit = service.posterior(OBSERVATION, num_traces=6, seed=2, timeout=60)
            assert hit.cached
        capture = load_capture(path)
        assert len(capture["admissions"]) == 1  # the hit never reached admission

    def test_failed_requests_record_their_error(self, tmp_path):
        def broken_program():
            raise RuntimeError("simulator exploded")

        path = str(tmp_path / "capture.jsonl")
        model = FunctionModel(broken_program, name="broken")
        with PosteriorService(model, None, num_workers=1, capture=path,
                              max_latency=0.001) as service:
            future = service.submit({"obs": 1.0}, num_traces=2, use_cache=False)
            with pytest.raises(RuntimeError):
                future.result(timeout=30)
        capture = load_capture(path)
        outcome = capture["outcomes"][0]
        assert outcome["status"] == "failed"
        assert "simulator exploded" in outcome["error"]


class TestReplay:
    def _capture_run(self, model, engine, path, backend="thread", seeds=(11, 12, 13)):
        with make_service(model, engine, capture=path, backend=backend) as service:
            futures = []
            for index, seed in enumerate(seeds):
                observation = OBSERVATION if index % 2 == 0 else OBSERVATION_B
                futures.append(
                    service.submit(observation, num_traces=8, seed=seed, use_cache=False)
                )
            return [future.result(timeout=120) for future in futures]

    def test_replay_is_bit_identical_thread_backend(self, served_engine, tmp_path):
        model, engine = served_engine
        path = str(tmp_path / "capture.jsonl")
        self._capture_run(model, engine, path)
        with make_service(model, engine) as replay_service:
            report = replay_capture(path, replay_service)
        assert report.ok
        assert report.total == report.replayed == report.matched == 3
        assert report.skipped == 0

    def test_replay_is_bit_identical_through_the_process_backend(self, served_engine, tmp_path):
        model, engine = served_engine
        path = str(tmp_path / "capture.jsonl")
        # Captured on threads, replayed on processes: per-trace streams are
        # derived in the parent at admission, so the digests must still agree.
        self._capture_run(model, engine, path, seeds=(21, 22))
        with make_service(model, engine, backend="process") as replay_service:
            report = replay_capture(path, replay_service)
        assert report.ok
        assert report.matched == 2

    def test_an_unseeded_capture_replays(self, served_engine, tmp_path):
        # Neither the service's stream nor a request's own has a seed: the
        # key recorded at admission is the derivation itself, so replay
        # needs nothing the capture did not write down.
        model, engine = served_engine
        path = str(tmp_path / "capture.jsonl")
        with make_service(model, engine, capture=path, rng=RandomState()) as service:
            futures = [
                service.submit(OBSERVATION, num_traces=8, use_cache=False),
                service.submit(OBSERVATION_B, num_traces=8, rng=RandomState(), use_cache=False),
            ]
            for future in futures:
                future.result(timeout=60)
        with make_service(model, engine, backend="process") as replay_service:
            report = replay_capture(path, replay_service)
        assert report.ok and report.matched == 2

    def test_replay_detects_divergence(self, served_engine, tmp_path):
        model, engine = served_engine
        path = str(tmp_path / "capture.jsonl")
        self._capture_run(model, engine, path, seeds=(31,))
        # Corrupt the recorded digest: replay must refuse to call that a match.
        lines = open(path).read().splitlines()
        import json

        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("kind") == "outcome":
                record["digest"] = "0" * 64
            doctored.append(json.dumps(record))
        open(path, "w").write("\n".join(doctored) + "\n")
        with make_service(model, engine) as replay_service:
            with pytest.raises(ReplayMismatch):
                replay_capture(path, replay_service)
            lenient = replay_capture(path, replay_service, verify=False)
        assert lenient.mismatches == [0]
        assert not lenient.ok

    def test_replay_skips_requests_that_never_completed(self, served_engine, tmp_path):
        model, engine = served_engine
        path = str(tmp_path / "capture.jsonl")
        capture = RequestCapture(path)
        capture.write_header("m", 0)
        order = capture.record_admission(0, OBSERVATION, 4, request_key(RandomState(5)), 0)
        capture.record_outcome(order, "failed", error="WorkerCrashed: boom")
        capture.close()
        with make_service(model, engine) as replay_service:
            report = replay_capture(path, replay_service)
        assert report.ok
        assert report.skipped == 1 and report.matched == 0
