"""Benchmark: micro-batched posterior serving vs serial one-shot inference.

The serving subsystem's claim: when many *independent* posterior requests are
in flight at once, coalescing their trace jobs into shared lockstep cohorts
amortizes the per-request costs that serial ``posterior()`` calls pay every
time — the observation-embedding forward and tiny-cohort NN stepping — which
is the amortized-inference payoff at the traffic level rather than the trace
level.

The workload is the latency-sensitive serving shape: ``NUM_REQUESTS``
concurrent low-budget queries (``TRACES_PER_REQUEST`` traces each, distinct
seeds so every request is genuine inference, not a cache hit) against one
observation.  Serially each request runs its own 2-trace cohort and its own
observation embedding; coalesced, all of them share full 64-slot cohorts and
a single embedding.  Required:

* every request completes, and its posterior is identical (to floating-point
  batching precision) to a direct seeded ``batched_importance_sampling`` run;
* the scheduler actually coalesced the requests (far fewer cohorts than
  requests, cohorts mixing many requests); and
* total throughput beats the serial baseline by ``SERVING_SPEEDUP_MIN``
  (default 2x; CI smoke overrides down for noisy shared runners).

The equivalence and coalescing half runs one round of each path in the
default run; the wall-clock gate is marked ``timing`` and runs only under
``-m timing``.
"""

import os
import time

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.rng import RandomState
from repro.ppl import FunctionModel, observe, sample
from repro.ppl.inference.batched import batched_importance_sampling
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.serving import PosteriorService
from repro.distributions import Normal, Uniform

from benchmarks.conftest import print_table

NUM_REQUESTS = 32
TRACES_PER_REQUEST = 2
MAX_BATCH = 64
ROUNDS = 3
MIN_SPEEDUP = float(os.environ.get("SERVING_SPEEDUP_MIN", "2.0"))

SERVING_CONFIG = Config(
    observation_shape=(12, 17, 17),
    lstm_hidden=128,
    lstm_stacks=1,
    observation_embedding_dim=64,
    address_embedding_dim=32,
    sample_embedding_dim=4,
    proposal_mixture_components=10,
)

_D, _H, _W = SERVING_CONFIG.observation_shape
_ZZ = np.linspace(-1, 1, _D)[:, None, None]
_YY = np.linspace(-1, 1, _H)[None, :, None]
_XX = np.linspace(-1, 1, _W)[None, None, :]


def _deposit(px, py, pz):
    """A cheap deterministic 'calorimeter': a Gaussian blob on the voxel grid."""
    return pz * np.exp(-((_XX - px / 3.0) ** 2 + (_YY - py / 3.0) ** 2 + _ZZ**2))


def lockstep_program():
    px = sample(Uniform(-2.0, 2.0), name="px")
    py = sample(Normal(0.0, 1.0), name="py")
    pz = sample(Uniform(0.5, 2.0), name="pz")
    observe(Normal(_deposit(px, py, pz), 0.5), name="detector")
    return px


@pytest.fixture(scope="module")
def served_model():
    model = FunctionModel(lockstep_program, name="serving-lockstep")
    engine = InferenceCompilation(config=SERVING_CONFIG, observe_key="detector", rng=RandomState(0))
    engine.train(model, num_traces=160, minibatch_size=16, learning_rate=3e-3)
    return model, engine.network, {"detector": _deposit(0.7, -0.4, 1.2)}


SEEDS = [100 + index for index in range(NUM_REQUESTS)]


def run_serial(model, network, observation):
    start = time.perf_counter()
    posteriors = [
        batched_importance_sampling(
            model, observation, num_traces=TRACES_PER_REQUEST,
            batch_size=MAX_BATCH,  # the engine default: one small cohort per request
            network=network, rng=RandomState(seed),
        )
        for seed in SEEDS
    ]
    return time.perf_counter() - start, posteriors


def run_served(service, observation):
    start = time.perf_counter()
    futures = [
        service.submit(observation, TRACES_PER_REQUEST, seed=seed, use_cache=False)
        for seed in SEEDS
    ]
    results = [future.result(timeout=300) for future in futures]
    return time.perf_counter() - start, results


def serve(model, network):
    return PosteriorService(
        model, network, observe_key="detector",
        max_batch=MAX_BATCH, max_latency=0.01, num_workers=1, shard_min=MAX_BATCH,
    )


def test_serving_coalesces_concurrent_requests(served_model):
    model, network, observation = served_model
    with serve(model, network) as service:
        _, served_results = run_served(service, observation)
        stats = service.stats()
    _, serial_posteriors = run_serial(model, network, observation)

    # Coalescing really happened: far fewer cohorts than requests, cohorts
    # mixing many requests, and the shared observation embedded once per
    # cohort instead of once per request.
    assert stats["engine"]["num_cohorts"] < NUM_REQUESTS / 4
    assert stats["mixed_cohort_fraction"] > 0.5
    assert stats["engine"]["num_observation_embeddings"] < stats["engine"]["num_cohorts"] + 1
    assert stats["completed"] == NUM_REQUESTS

    # Identical seeded posteriors: serving changes scheduling, not inference.
    for result, direct in zip(served_results, serial_posteriors):
        for latent in ("px", "py", "pz"):
            assert abs(
                result.posterior.extract(latent).mean - direct.extract(latent).mean
            ) < 1e-6, latent
        assert abs(result.posterior.log_evidence - direct.log_evidence) < 1e-6


@pytest.mark.timing
def test_serving_beats_serial_posterior_calls(served_model):
    model, network, observation = served_model
    serial_times, served_times = [], []
    with serve(model, network) as service:
        run_served(service, observation)  # warm both paths once (numpy/scipy dispatch caches)
        run_serial(model, network, observation)
        for _ in range(ROUNDS):
            served_times.append(run_served(service, observation)[0])
            serial_times.append(run_serial(model, network, observation)[0])
        stats = service.stats()

    serial_best = min(serial_times)
    served_best = min(served_times)
    speedup = serial_best / served_best
    total_traces = NUM_REQUESTS * TRACES_PER_REQUEST
    cohorts_per_round = stats["engine"]["num_cohorts"] / (ROUNDS + 1)

    print_table(
        "Micro-batched posterior serving vs serial one-shot inference "
        f"({NUM_REQUESTS} concurrent requests x {TRACES_PER_REQUEST} traces)",
        ["mode", "best wall time (s)", "traces/s", "cohorts/round", "obs embeds/round"],
        [
            ["serial posterior() calls", f"{serial_best:.3f}",
             f"{total_traces / serial_best:.1f}", NUM_REQUESTS, NUM_REQUESTS],
            ["served (coalesced)", f"{served_best:.3f}",
             f"{total_traces / served_best:.1f}", f"{cohorts_per_round:.1f}",
             f"{stats['engine']['num_observation_embeddings'] / (ROUNDS + 1):.1f}"],
        ],
    )
    print(f"speedup: {speedup:.2f}x (required: >= {MIN_SPEEDUP}x)")
    print(f"mixed-cohort fraction: {stats['mixed_cohort_fraction']:.2f}  "
          f"mean occupancy: {stats['mean_cohort_occupancy']:.2f}")
    assert speedup >= MIN_SPEEDUP
