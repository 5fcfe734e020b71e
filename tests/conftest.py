"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.rng import RandomState, seed_all
from repro.distributions import Categorical, Normal, Uniform
from repro.ppl.inference.batched import TraceJob
from repro import ppl


@pytest.fixture(autouse=True)
def _seed_everything():
    """Every test starts from the same global seed for reproducibility."""
    seed_all(1234)
    yield


@pytest.fixture
def rng() -> RandomState:
    return RandomState(2024, name="test")


@pytest.fixture
def small_config() -> Config:
    """A tiny network configuration that keeps NN tests fast."""
    return Config(
        observation_shape=(4, 5, 5),
        lstm_hidden=16,
        lstm_stacks=1,
        proposal_mixture_components=2,
        observation_embedding_dim=8,
        address_embedding_dim=4,
        sample_embedding_dim=3,
    )


def gaussian_program():
    """mu ~ N(0,1); y ~ N(mu, 0.5): conjugate, with known posterior."""
    mu = ppl.sample(Normal(0.0, 1.0), name="mu")
    ppl.observe(Normal(mu, 0.5), name="obs")
    return mu


def gaussian_posterior(y: float):
    """Analytic posterior mean/std for the conjugate Gaussian program."""
    prior_var, lik_var = 1.0, 0.25
    post_var = prior_var * lik_var / (prior_var + lik_var)
    post_mean = y * prior_var / (prior_var + lik_var)
    return post_mean, np.sqrt(post_var)


def mixed_program():
    """A small model with continuous + categorical latents and a vector observation."""
    mu = ppl.sample(Uniform(-2.0, 2.0), name="mu")
    k = ppl.sample(Categorical([0.5, 0.3, 0.2]), name="k")
    loc = np.array([mu, mu + k, mu - k, 2.0 * mu])
    ppl.observe(Normal(loc, 0.3), name="obs")
    return {"mu": mu, "k": k}


@pytest.fixture
def gaussian_model():
    return ppl.FunctionModel(gaussian_program, name="gaussian")


@pytest.fixture
def mixed_model():
    return ppl.FunctionModel(mixed_program, name="mixed")


@pytest.fixture
def tau_model():
    from repro.simulators import TauDecayModel

    return TauDecayModel()


@pytest.fixture
def tiny_tau_dataset(tau_model, rng):
    """A small in-memory dataset of tau-decay traces."""
    from repro.data import generate_dataset

    return generate_dataset(tau_model, 60, rng=rng)


@pytest.fixture
def dealt_indices(monkeypatch):
    """``dealt_indices(trainer)`` -> the list that fills with every index list
    the trainer deals, in deal order (rank 0, rank 1, ... per step).  A rank's
    ``dataset.get_batch`` may run in a forked rank process, out of a spy's
    sight; what the parent deals is what every rank reads."""

    def spy(trainer):
        dealt = []
        deal = trainer._deal

        def recording_deal(rank):
            dealt.append(list(deal(rank)))
            return dealt[-1]

        monkeypatch.setattr(trainer, "_deal", recording_deal)
        return dealt

    return spy


#: the dicts of every open ``built_streams`` block, in any thread
_stream_recorders: list = []
_stream_recorders_lock = threading.Lock()
_build_stream = TraceJob.stream


def _recording_stream(job):
    rng = _build_stream(job)
    for streams in list(_stream_recorders):
        streams[job.key] = rng
    return rng


@contextlib.contextmanager
def built_streams():
    """Yield a dict that fills with ``job.key -> generator`` for every stream
    an in-process execution builds from a trace job's key while the block is
    open (the last build of a key wins; blocks may be open in several threads
    at once).  A job carries no generator, so this is how a test reads a
    job's post-run generator state."""
    streams = {}
    with _stream_recorders_lock:
        _stream_recorders.append(streams)
        TraceJob.stream = _recording_stream
    try:
        yield streams
    finally:
        with _stream_recorders_lock:
            _stream_recorders.remove(streams)
            if not _stream_recorders:
                TraceJob.stream = _build_stream
