"""Tests of the batched lockstep inference engine.

The load-bearing property: because every trace owns a child random stream
derived from (master seed, trace index), the posterior is independent of the
cohort partitioning — ``batch_size=1`` (every trace on a one-slot session)
and any ``batch_size>1`` must produce the same traces up to floating-point
batching effects.  A one-slot session is in turn bit-identical to the
step-by-step per-object reference of ``tests/reference_kernels.py``.
"""

import threading

import numpy as np
import pytest

from repro import ppl
from repro.common.rng import RandomState
from repro.distributions import Normal, Uniform
from repro.ppl import FunctionModel
from repro.ppl.inference import (
    batched_importance_sampling,
    mixed_batched_importance_sampling,
    per_trace_keys,
)
from repro.ppl.inference.batched import (
    TraceJob,
    new_engine_stats,
    request_key,
    resolve_observation_array,
    run_mixed_cohort,
)
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from tests import reference_kernels as ref
from tests.conftest import gaussian_posterior


def lockstep_program():
    """Fixed three-address control flow with per-trace prior parameters."""
    a = ppl.sample(Uniform(-2.0, 2.0), name="a", address="addr_a")
    b = ppl.sample(Normal(a, 1.0), name="b", address="addr_b")
    c = ppl.sample(Uniform(b - 1.0, b + 1.0), name="c", address="addr_c")
    ppl.observe(Normal(np.array([a, b, c, a + b + c]), 0.4), name="obs")
    return a


def loopy_program():
    """Variable trace length: cohort members finish at different rounds."""
    total = 0.0
    count = 0
    while total < 1.0 and count < 10:
        total += ppl.sample(Uniform(0.4, 0.6), name="step")
        count += 1
    ppl.observe(Normal(total, 0.1), name="obs")
    return count


OBSERVATION = {"obs": np.array([0.6, 1.1, 0.9, 2.6])}


@pytest.fixture(scope="module")
def lockstep_engine():
    model = FunctionModel(lockstep_program, name="lockstep")
    engine = InferenceCompilation(
        observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=16),
        observe_key="obs",
        rng=RandomState(0),
    )
    engine.train(model, num_traces=400, minibatch_size=20, learning_rate=3e-3)
    return model, engine


@pytest.fixture(scope="module")
def loopy_engine():
    model = FunctionModel(loopy_program, name="loopy")
    engine = InferenceCompilation(
        observation_embedding=ObservationEmbeddingFC(input_dim=1, embedding_dim=16),
        observe_key="obs",
        rng=RandomState(1),
    )
    engine.train(model, num_traces=400, minibatch_size=20, learning_rate=3e-3)
    return model, engine


class TestBatchedSequentialEquivalence:
    def test_lockstep_model_means_match_to_high_precision(self, lockstep_engine):
        model, engine = lockstep_engine
        results = {}
        for batch_size in (1, 16, 64):
            results[batch_size] = batched_importance_sampling(
                model, OBSERVATION, num_traces=64, batch_size=batch_size,
                network=engine.network, rng=RandomState(7),
            )
        reference = results[1]
        for batch_size in (16, 64):
            posterior = results[batch_size]
            for latent in ("a", "b", "c"):
                assert posterior.extract(latent).mean == pytest.approx(
                    reference.extract(latent).mean, abs=1e-6
                )
            assert posterior.log_evidence == pytest.approx(reference.log_evidence, abs=1e-6)
        stats = results[64].engine_stats
        assert stats["num_cohorts"] == 1
        assert stats["num_divergent_rounds"] == 0
        assert stats["num_fallbacks"] == 0
        # Lockstep: 3 addresses -> 3 rounds, each one batched step.
        assert stats["num_rounds"] == 3
        assert stats["num_batched_steps"] == 3

    def test_divergent_control_flow_still_matches_sequential(self, loopy_engine):
        model, engine = loopy_engine
        sequential = batched_importance_sampling(
            model, {"obs": 1.2}, num_traces=48, batch_size=1,
            network=engine.network, rng=RandomState(9),
        )
        cohort = batched_importance_sampling(
            model, {"obs": 1.2}, num_traces=48, batch_size=48,
            network=engine.network, rng=RandomState(9),
        )
        assert [t.length for t in cohort.values] == [t.length for t in sequential.values]
        numeric = [t["step"] for t in cohort.values]
        reference = [t["step"] for t in sequential.values]
        assert np.allclose(numeric, reference, atol=1e-9)
        # One lockstep round per still-running trace draw: the round count is
        # the longest trace, and the cohort shrinks as traces finish early.
        assert cohort.engine_stats["num_rounds"] == max(t.length for t in cohort.values)

    def test_address_divergence_groups_and_matches_sequential(self):
        def branching_program():
            z = ppl.sample(Uniform(0.0, 1.0), name="z", address="addr_z")
            if z < 0.5:
                x = ppl.sample(Normal(-1.0, 0.5), name="x", address="addr_left")
            else:
                x = ppl.sample(Normal(1.0, 0.5), name="x", address="addr_right")
            ppl.observe(Normal(x, 0.5), name="obs")
            return x

        model = FunctionModel(branching_program, name="branching")
        engine = InferenceCompilation(
            observation_embedding=ObservationEmbeddingFC(input_dim=1, embedding_dim=16),
            observe_key="obs",
            rng=RandomState(2),
        )
        engine.train(model, num_traces=300, minibatch_size=20, learning_rate=3e-3)
        sequential = batched_importance_sampling(
            model, {"obs": 0.4}, num_traces=32, batch_size=1,
            network=engine.network, rng=RandomState(21),
        )
        cohort = batched_importance_sampling(
            model, {"obs": 0.4}, num_traces=32, batch_size=32,
            network=engine.network, rng=RandomState(21),
        )
        assert cohort.extract("x").mean == pytest.approx(sequential.extract("x").mean, abs=1e-6)
        branch_taken = {t.samples[1].address for t in cohort.values}
        if len(branch_taken) > 1:
            # Both branches present in the cohort: the second round split into
            # per-address sub-batches.
            assert cohort.engine_stats["num_divergent_rounds"] >= 1
            assert cohort.engine_stats["num_batched_steps"] >= 3

    def test_remainder_cohort_and_partitioning_invariance(self, lockstep_engine):
        model, engine = lockstep_engine
        uneven = batched_importance_sampling(
            model, OBSERVATION, num_traces=10, batch_size=4,
            network=engine.network, rng=RandomState(3),
        )
        assert len(uneven) == 10
        assert uneven.engine_stats["num_cohorts"] == 3
        even = batched_importance_sampling(
            model, OBSERVATION, num_traces=10, batch_size=5,
            network=engine.network, rng=RandomState(3),
        )
        assert even.extract("a").mean == pytest.approx(uneven.extract("a").mean, abs=1e-6)


class TestRoundOrderIsSlotOrder:
    """The session sees each round's requests by slot, whatever order threads post in.

    A same-address group's rows are stacked in request order and BLAS rounds a
    row's result by its position in the matrix, so an arrival-ordered round
    makes the last bits of a posterior depend on thread timing (it broke
    planned-vs-dynamic bit-identity about once in 30-60 cohorts).
    """

    def test_shuffled_arrival_reaches_the_session_sorted(self):
        from repro.ppl.inference.batched import _LockstepCoordinator

        class RecordingSession:
            def __init__(self):
                self.rounds = []

            def proposals(self, pending):
                self.rounds.append([slot for slot, _, _, _ in pending])
                return {slot: None for slot, _, _, _ in pending}

        session = RecordingSession()
        coordinator = _LockstepCoordinator(session, num_workers=5)
        # Post from one thread, so the arrival order is exactly this one.
        for slot in (3, 0, 4, 1, 2):
            coordinator._post(slot, (slot, "addr", None, None))
        driver = threading.Thread(target=coordinator.serve, daemon=True)
        driver.start()
        for slot in (4, 2, 0, 3, 1):
            assert coordinator._slot_gates[slot].acquire(timeout=5.0)
            coordinator.finished(slot)
        driver.join(timeout=5.0)
        assert not driver.is_alive()
        assert session.rounds == [[0, 1, 2, 3, 4]]


class TestFallbackAndPriorModes:
    def test_unseen_address_falls_back_to_prior(self, lockstep_engine):
        _, engine = lockstep_engine
        engine.network.freeze_architecture()

        def extended_program():
            lockstep_program()
            ppl.sample(Normal(0.0, 1.0), name="extra", address="addr_extra")

        extended = FunctionModel(extended_program, name="extended")
        posterior = batched_importance_sampling(
            extended, OBSERVATION, num_traces=12, batch_size=12,
            network=engine.network, rng=RandomState(4),
        )
        assert posterior.engine_stats["num_fallbacks"] == 12
        assert np.all(np.isfinite(posterior.log_weights))

    def test_prior_mode_recovers_conjugate_posterior(self, gaussian_model):
        y = 1.2
        posterior = batched_importance_sampling(
            gaussian_model, {"obs": y}, num_traces=4000, batch_size=256,
            network=None, rng=RandomState(5),
        )
        true_mean, true_std = gaussian_posterior(y)
        mu = posterior.extract("mu")
        assert mu.mean == pytest.approx(true_mean, abs=0.08)
        assert mu.stddev == pytest.approx(true_std, abs=0.08)

    def test_validation(self, gaussian_model):
        with pytest.raises(ValueError):
            batched_importance_sampling(gaussian_model, {"obs": 0.0}, num_traces=0)
        with pytest.raises(ValueError):
            batched_importance_sampling(gaussian_model, {"obs": 0.0}, num_traces=4, batch_size=0)

    def test_guided_run_requires_trace_log_q(self, lockstep_engine):
        model, engine = lockstep_engine

        class NoLogQModel(FunctionModel):
            def get_trace(self, controller=None, observed_values=None, rng=None):
                trace = super().get_trace(controller, observed_values=observed_values, rng=rng)
                del trace.log_q
                return trace

        stripped = NoLogQModel(lockstep_program, name="no_log_q")
        with pytest.raises(ValueError, match="log_q"):
            batched_importance_sampling(
                stripped, OBSERVATION, num_traces=4, batch_size=4,
                network=engine.network, rng=RandomState(16),
            )

    def test_multiple_observes_require_observe_key(self, lockstep_engine):
        model, engine = lockstep_engine
        engine.network.observe_key = None
        try:
            with pytest.raises(ValueError):
                batched_importance_sampling(
                    model, {"a": 0.0, "b": 1.0}, num_traces=4, network=engine.network
                )
        finally:
            engine.network.observe_key = "obs"

    def test_uncontrolled_draw_between_controlled_steps(self):
        # The previous-sample embedding must come from the last *controlled*
        # draw: an uncontrolled value encoded under a categorical previous
        # prior would one-hot an out-of-range index and crash.
        from repro.distributions import Categorical

        def program():
            k = ppl.sample(Categorical([0.4, 0.3, 0.3]), name="k", address="addr_k")
            skip = ppl.sample(Normal(7.5, 0.1), name="skip", address="addr_skip", control=False)
            x = ppl.sample(Normal(float(k), 1.0), name="x", address="addr_x")
            ppl.observe(Normal(x + skip, 0.5), name="obs")
            return x

        model = FunctionModel(program, name="uncontrolled_middle")
        engine = InferenceCompilation(
            observation_embedding=ObservationEmbeddingFC(input_dim=1, embedding_dim=16),
            observe_key="obs",
            rng=RandomState(14),
        )
        engine.train(model, num_traces=200, minibatch_size=20)
        for batch_size in (1, 8):
            posterior = batched_importance_sampling(
                model, {"obs": 8.0}, num_traces=8, batch_size=batch_size,
                network=engine.network, rng=RandomState(15),
            )
            assert np.all(np.isfinite(posterior.log_weights))

    def test_per_trace_keys_are_reproducible_and_distinct(self):
        keys_a = per_trace_keys(RandomState(11), 4)
        keys_b = per_trace_keys(RandomState(11), 4)
        assert keys_a == keys_b
        draws = [RandomState.from_key(key).random() for key in keys_a]
        assert len(set(draws)) == 4

    def test_per_trace_keys_adjacent_bases_do_not_collide(self):
        # Regression: child seeds used to be base + index, so two requests
        # whose random bases landed within num_traces of each other shared
        # identical trace streams for the overlapping indices (request A,
        # base b, trace i+1 == request B, base b+1, trace i).  Pin the bases
        # to the worst case — adjacent — and require all streams distinct.
        import types

        bases = iter([1_000_000, 1_000_001])
        master = RandomState(0)
        master._gen = types.SimpleNamespace(
            integers=lambda low, high=None, size=None: next(bases)
        )
        keys = per_trace_keys(master, 6) + per_trace_keys(master, 6)
        draws = [tuple(RandomState.from_key(key).random(size=4)) for key in keys]
        assert len(set(draws)) == len(draws)


class TestBatchedDistributionObjects:
    """The lockstep engine's proposal steps build O(1) objects, not O(B*K)."""

    def test_lockstep_builds_no_per_trace_proposal_objects(self, lockstep_engine, monkeypatch):
        from repro.distributions import Mixture, TruncatedNormal

        counts = {"mixtures": 0, "truncated_batches": 0}
        original_init = Mixture.__init__
        original_build = TruncatedNormal.batch_build.__func__

        def counting_init(self, *args, **kwargs):
            counts["mixtures"] += 1
            return original_init(self, *args, **kwargs)

        def counting_build(cls, *args, **kwargs):
            counts["truncated_batches"] += 1
            return original_build(cls, *args, **kwargs)

        monkeypatch.setattr(Mixture, "__init__", counting_init)
        monkeypatch.setattr(TruncatedNormal, "batch_build", classmethod(counting_build))
        model, engine = lockstep_engine
        batched_importance_sampling(
            model, OBSERVATION, num_traces=32, batch_size=32,
            network=engine.network, rng=RandomState(23),
        )
        # All proposal emission goes through array-parameterised batched
        # objects: zero per-trace Mixtures, zero truncated-normal component
        # builds, regardless of cohort size.
        assert counts == {"mixtures": 0, "truncated_batches": 0}

    def test_single_slot_lockstep_group_bit_identical(self, lockstep_engine):
        # The degenerate single-member address group (a one-job cohort's
        # every round, and a divergence sub-batch inside larger cohorts)
        # against the step-by-step per-object reference.
        from repro.distributions import Uniform

        _, engine = lockstep_engine
        network = engine.network
        observation_array = resolve_observation_array(network, OBSERVATION)
        address = next(iter(network.address_specs))
        prior = Uniform(-2.0, 2.0)
        lockstep_session = network.batched_session([observation_array], [RandomState(5)])
        sequential_session = ref.SequentialSession(network, observation_array)
        proposal_b = lockstep_session.proposals([(0, address, prior, None)])[0]
        proposal_s = sequential_session.proposal(address, prior, None)
        value_s = proposal_s.sample(RandomState(5))
        assert float(proposal_b.value) == float(value_s)
        assert float(proposal_b.log_q) == float(proposal_s.log_prob(value_s))


class TestOneSlotCohorts:
    """One-job cohorts run on a one-slot lockstep session, on the calling
    thread: one round per controlled draw, and traces bit-identical to the
    step-by-step per-object reference."""

    @pytest.mark.parametrize("case", ["lockstep", "loopy"])
    def test_one_job_cohorts_count_rounds_and_match_the_reference(
        self, lockstep_engine, loopy_engine, case
    ):
        model, engine = {"lockstep": lockstep_engine, "loopy": loopy_engine}[case]
        observation = OBSERVATION if case == "lockstep" else {"obs": 1.2}
        network = engine.network
        jobs = TraceJob.for_request(
            0, observation, resolve_observation_array(network, observation), 6,
            request_key(RandomState(17)),
        )
        for job in jobs:
            stats = new_engine_stats()
            (trace,) = run_mixed_cohort(model, [job], network, stats)
            reference, session = ref.sequential_trace(model, job, network)
            assert stats["num_rounds"] == stats["num_batched_steps"] == trace.length
            assert stats["num_proposal_steps"] == session.num_proposal_steps == trace.length
            assert stats["num_slot_threads_started"] == 0
            assert stats["num_observation_embeddings"] == 1
            assert trace.addresses == reference.addresses
            assert [s.value for s in trace.samples] == [s.value for s in reference.samples]
            assert trace.log_q == reference.log_q
            assert trace.log_joint == reference.log_joint

    def test_batch_size_one_posterior_is_the_reference_posterior(self, loopy_engine):
        model, engine = loopy_engine
        network = engine.network
        posterior = batched_importance_sampling(
            model, {"obs": 1.2}, num_traces=8, batch_size=1, network=network, rng=RandomState(9)
        )
        jobs = TraceJob.for_request(
            0, {"obs": 1.2}, resolve_observation_array(network, {"obs": 1.2}), 8,
            request_key(RandomState(9)),
        )
        references = [ref.sequential_trace(model, job, network)[0] for job in jobs]
        assert posterior.log_weights.tolist() == [t.log_joint - t.log_q for t in references]
        assert posterior.engine_stats["num_rounds"] == sum(t.length for t in references)


class TestMixedObservationEngine:
    """Requests for different observations share cohorts without changing results."""

    OBSERVATION_B = {"obs": np.array([-0.5, 0.2, 0.4, 0.1])}

    def test_mixed_requests_match_direct_runs(self, lockstep_engine):
        model, engine = lockstep_engine
        requests = [
            (OBSERVATION, 10, RandomState(31)),
            (self.OBSERVATION_B, 14, RandomState(32)),
            (OBSERVATION, 6, RandomState(33)),
        ]
        served = mixed_batched_importance_sampling(
            model, requests, batch_size=16, network=engine.network
        )
        assert [len(result) for result in served] == [10, 14, 6]
        for (observation, num_traces, _), result in zip(requests, served):
            direct = batched_importance_sampling(
                model, observation, num_traces=num_traces, batch_size=64,
                network=engine.network,
                rng=RandomState({10: 31, 14: 32, 6: 33}[num_traces]),
            )
            for latent in ("a", "b", "c"):
                assert result.extract(latent).mean == pytest.approx(
                    direct.extract(latent).mean, abs=1e-9
                )
            assert result.log_evidence == pytest.approx(direct.log_evidence, abs=1e-9)

    def test_duplicate_observations_share_embeddings(self, lockstep_engine):
        model, engine = lockstep_engine
        # Two requests for the SAME observation in one cohort: the session
        # must embed the observation once, not once per slot or per request.
        served = mixed_batched_importance_sampling(
            model,
            [(OBSERVATION, 8, RandomState(41)), (OBSERVATION, 8, RandomState(42))],
            batch_size=16,
            network=engine.network,
        )
        stats = served[0].engine_stats
        assert stats["num_cohorts"] == 1
        assert stats["num_observation_embeddings"] == 1

    def test_prior_mode_and_validation(self, gaussian_model):
        results = mixed_batched_importance_sampling(
            gaussian_model,
            [({"obs": 0.5}, 20, RandomState(1)), ({"obs": -0.5}, 20, RandomState(2))],
            batch_size=8,
            network=None,
        )
        assert results[0].extract("mu").mean > results[1].extract("mu").mean
        with pytest.raises(ValueError):
            mixed_batched_importance_sampling(gaussian_model, [({"obs": 0.0}, 0, None)])
        with pytest.raises(ValueError):
            mixed_batched_importance_sampling(
                gaussian_model, [({"obs": 0.0}, 4, None)], batch_size=0
            )


class TestInferenceCompilationWiring:
    def test_posterior_runs_through_batched_engine(self, lockstep_engine):
        model, engine = lockstep_engine
        posterior = engine.posterior(model, OBSERVATION, num_traces=32, rng=RandomState(8))
        assert posterior.engine_stats["num_batched_steps"] > 0
        sequential = engine.posterior(
            model, OBSERVATION, num_traces=32, rng=RandomState(8), batch_size=1
        )
        assert posterior.extract("a").mean == pytest.approx(
            sequential.extract("a").mean, abs=1e-6
        )


class TestRequestStreams:
    def test_repeated_calls_with_shared_rng_draw_fresh_streams(self, lockstep_engine):
        model, engine = lockstep_engine
        shared = RandomState(14)
        first, second = (
            batched_importance_sampling(
                model, OBSERVATION, num_traces=6, batch_size=3, network=engine.network, rng=shared
            )
            for _ in range(2)
        )
        first_values = [t["a"] for t in first.values]
        second_values = [t["a"] for t in second.values]
        assert not np.allclose(first_values, second_values)


class TestOneCohortEngine:
    """Every posterior entry point is a TraceJob list through run_mixed_cohort."""

    def test_every_entry_point_reaches_the_one_cohort_function(self, lockstep_engine, monkeypatch):
        from repro.ppl.inference import batched

        model, engine = lockstep_engine
        cohorts = []
        original = batched.run_mixed_cohort

        def counting(model, jobs, *args, **kwargs):
            assert all(isinstance(job, batched.TraceJob) for job in jobs)
            cohorts.append(len(jobs))
            return original(model, jobs, *args, **kwargs)

        monkeypatch.setattr(batched, "run_mixed_cohort", counting)
        common = dict(num_traces=8, batch_size=4, network=engine.network)
        entry_points = {
            "batched_importance_sampling": lambda: batched_importance_sampling(
                model, OBSERVATION, rng=RandomState(1), **common
            ),
            "posterior": lambda: engine.posterior(
                model, OBSERVATION, num_traces=8, batch_size=4, rng=RandomState(1)
            ),
            "mixed_batched_importance_sampling": lambda: mixed_batched_importance_sampling(
                model, [(OBSERVATION, 8, RandomState(1))], batch_size=4, network=engine.network
            ),
        }
        for name, run in entry_points.items():
            del cohorts[:]
            result = run()
            assert sorted(cohorts) == [4, 4], name
            stats = (result[0] if isinstance(result, list) else result).engine_stats
            assert stats["num_cohorts"] == 2, name

    def test_shared_observation_object_is_converted_and_embedded_once(self, lockstep_engine):
        # All jobs of a request share one observation object: the session
        # dedupes by identity first (no per-slot conversion/serialisation)
        # and by bytes second, without changing rows or the embedding count.
        _, engine = lockstep_engine
        network = engine.network
        shared = np.asarray(OBSERVATION["obs"], dtype=float)

        class CountingObservation:
            conversions = 0

            def __array__(self, dtype=None, copy=None):
                CountingObservation.conversions += 1
                return shared.astype(dtype) if dtype is not None else shared

        rngs = [RandomState(slot) for slot in range(8)]
        reference = network.batched_session([shared] * 8, rngs)
        assert reference.num_observation_embeddings == 1
        counted = network.batched_session([CountingObservation()] * 8, rngs)
        assert CountingObservation.conversions == 1
        assert np.array_equal(counted._obs_rows, reference._obs_rows)
        # Equal bytes in distinct objects still share one embedding.
        copies = network.batched_session([shared.copy() for _ in range(8)], rngs)
        assert copies.num_observation_embeddings == 1
        assert np.array_equal(copies._obs_rows, reference._obs_rows)
        mixed = network.batched_session([shared, shared + 1.0, shared], rngs[:3])
        assert mixed.num_observation_embeddings == 2
        assert np.array_equal(mixed._obs_rows[0], mixed._obs_rows[2])
        assert not np.array_equal(mixed._obs_rows[0], mixed._obs_rows[1])
