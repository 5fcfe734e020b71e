"""End-to-end PPX tests: a simulator controlled by the PPL over the protocol."""

import threading

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.distributions import Normal, Uniform, log_prob_total
from repro.ppl import FunctionModel, RemoteModel
from repro.ppl.state import Controller, ExecutionState, PriorController
from repro.ppx import SimulatorClient, SimulatorController, make_queue_pair
from repro.simulators import LocalHandle, TauDecayConfig, TauDecayModel
from repro.simulators.tau_decay import tau_decay_program
from tests import reference_kernels as ref


def gaussian_simulator(client):
    """mu ~ N(0,1); y ~ N(mu, 0.5) with a reported simulated value."""
    mu = float(np.asarray(client.sample(Normal(0.0, 1.0), name="mu")))
    client.observe(Normal(mu, 0.5), value=mu + 0.1, name="obs")
    return mu


def uncontrolled_simulator(client):
    """mu is controlled; a nuisance jitter draw is flagged control=False."""
    mu = float(np.asarray(client.sample(Normal(0.0, 1.0), name="mu")))
    jitter = float(np.asarray(client.sample(Normal(0.0, 0.3), name="jitter", control=False)))
    client.observe(Normal(mu + jitter, 0.5), value=mu + jitter, name="obs")
    return mu


def repeated_address_simulator(client):
    """An uncontrolled and a controlled draw at the *same* address."""
    values = []
    for controlled in (False, True):
        values.append(float(np.asarray(client.sample(Normal(0.0, 1.0), name="v", control=controlled))))
    client.observe(Normal(values[1], 0.5), value=0.2, name="obs")
    return values


def looping_simulator(client):
    """A simulator with a rejection loop (variable trace length)."""
    total = 0.0
    for _ in range(10):
        draw = float(np.asarray(client.sample(Uniform(0.0, 1.0), name="u")))
        total += draw
        if total > 1.0:
            break
    client.observe(Normal(total, 0.1), value=total, name="obs")
    return total


def two_point_gaussian(handle):
    """mu ~ N(0,1); y1, y2 ~ N(mu, 0.5): two named observes, on either handle.

    Explicit addresses make the local and the remote trace name every
    statement alike, so one network guides both.
    """
    mu = float(np.asarray(handle.sample(Normal(0.0, 1.0), name="mu", address="mu")))
    handle.observe(Normal(mu, 0.5), value=mu + 0.1, name="y1", address="y1")
    handle.observe(Normal(mu, 0.5), value=mu - 0.1, name="y2", address="y2")
    return mu


def run_client_in_thread(simulator, transport):
    client = SimulatorClient(transport, simulator, system_name="test-sim", model_name="test")
    thread = threading.Thread(target=client.serve_forever, daemon=True)
    thread.start()
    return client, thread


class FixedController(Controller):
    """Every controlled draw takes ``value``."""

    def __init__(self, value):
        self.value = value

    def choose(self, address, instance, distribution, name, rng):
        return self.value, log_prob_total(distribution, self.value)


def record(controller, decider=None, observed_values=None, seed=0):
    """One run of the simulator behind ``controller``, recorded by an execution state."""
    state = ExecutionState(decider or PriorController(), RandomState(seed), observed_values)
    return state.finalize(controller.run_trace(state))


class TestSimulatorController:
    def test_handshake_and_prior_trace(self):
        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(gaussian_simulator, sim_side)
        controller = SimulatorController(ppl_side)
        trace = record(controller)
        assert trace.length == 1
        assert len(trace.observes) == 1
        assert trace.samples[0].name == "mu"
        assert np.isfinite(trace.log_joint)
        assert controller.simulator_name == "test-sim"
        controller.shutdown()
        thread.join(timeout=5.0)

    def test_observed_value_changes_likelihood(self):
        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(gaussian_simulator, sim_side)
        controller = SimulatorController(ppl_side)
        trace_default = record(controller, FixedController(0.0))  # force mu = 0
        trace_conditioned = record(controller, FixedController(0.0), {"obs": 5.0})
        # Conditioning on y=5 with mu=0 must be much less likely than y=0.1.
        assert trace_default.observation == {"obs": 0.1}
        assert trace_conditioned.observation == {"obs": 5.0}
        assert trace_conditioned.log_likelihood < trace_default.log_likelihood
        controller.shutdown()
        thread.join(timeout=5.0)

    def test_variable_length_traces(self):
        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(looping_simulator, sim_side)
        controller = SimulatorController(ppl_side)
        lengths = {record(controller, seed=seed).length for seed in range(20)}
        assert len(lengths) > 1  # rejection loop produces varying trace lengths
        controller.shutdown()
        thread.join(timeout=5.0)

    def test_simulator_error_is_propagated(self):
        def failing_simulator(client):
            raise RuntimeError("simulated crash")

        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(failing_simulator, sim_side)
        controller = SimulatorController(ppl_side)
        with pytest.raises(RuntimeError, match="simulated crash"):
            controller.run_trace(ExecutionState(PriorController()))
        controller.shutdown()
        thread.join(timeout=5.0)


class TestRemoteModel:
    def _remote(self, simulator):
        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(simulator, sim_side)
        return RemoteModel(ppl_side, name="remote-test"), thread

    def test_prior_traces(self):
        remote, thread = self._remote(gaussian_simulator)
        traces = remote.prior_traces(5)
        assert len(traces) == 5
        assert all(t.length == 1 for t in traces)
        assert all("obs" in t.observation for t in traces)
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_importance_sampling_posterior_matches_local(self):
        from tests.conftest import gaussian_posterior

        remote, thread = self._remote(gaussian_simulator)
        y = 1.0
        posterior = remote.posterior({"obs": y}, num_traces=2000, engine="importance_sampling")
        mu = posterior.extract("mu")
        true_mean, true_std = gaussian_posterior(y)
        assert mu.mean == pytest.approx(true_mean, abs=0.1)
        assert mu.stddev == pytest.approx(true_std, abs=0.1)
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_distributed_parallel_ranks_are_serialized_for_remote_models(self):
        # Concurrent cohorts would interleave the single PPX transport's
        # request/reply protocol; the service must run them one at a time
        # over the live link, whatever width and sharding it was asked for.
        from repro.ppl.inference.batched import batched_importance_sampling
        from repro.serving import PosteriorService

        remote, thread = self._remote(gaussian_simulator)
        with PosteriorService(
            remote, None, num_workers=3, shard_min=1, max_latency=0.05
        ) as service:
            assert service.workers.num_workers == 1
            futures = {
                seed: service.submit({"obs": 0.5}, num_traces=12, seed=seed, use_cache=False)
                for seed in (6, 7)
            }
            served = {seed: future.result(timeout=60).posterior for seed, future in futures.items()}
        for seed, posterior in served.items():
            assert len(posterior) == 12
            assert np.all(np.isfinite(posterior.log_weights))
            direct = batched_importance_sampling(
                remote, {"obs": 0.5}, num_traces=12, network=None, rng=RandomState(seed)
            )
            assert posterior.extract("mu").mean == pytest.approx(direct.extract("mu").mean, abs=1e-12)
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_uncontrolled_remote_draws_bypass_the_controller(self):
        remote, thread = self._remote(uncontrolled_simulator)
        provider_calls = []

        def prior_as_proposal(address, instance, prior):
            provider_calls.append(address)
            return prior

        posterior = ref.provider_importance_sampling(
            remote, {"obs": 0.6}, 20, prior_as_proposal, RandomState(3)
        )
        # Only the controlled draw consults the proposal provider; the
        # control=False jitter draw is sampled from its prior directly.
        assert len(provider_calls) == 20
        # And its prior density still cancels out of the importance weight.
        for trace, log_weight in zip(posterior.values, posterior.log_weights):
            assert log_weight == pytest.approx(trace.log_likelihood, abs=1e-10)
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_uncontrolled_draws_advance_instance_numbers(self):
        # The controller must see the same (address, instance) keys the trace
        # records, or ReplayController-based kernels silently redraw sites.
        remote, thread = self._remote(repeated_address_simulator)
        instances = []

        def provider(address, instance, prior):
            instances.append(instance)
            return None

        posterior = ref.provider_importance_sampling(remote, {"obs": 0.2}, 3, provider, RandomState(5))
        # The controlled draw is the second occurrence at its address.
        assert instances == [1, 1, 1]
        assert [s.instance for s in posterior.values[0].samples] == [0, 1]
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_guided_batched_inference_over_remote_model(self):
        # The batched engine must serve RemoteModel guided executions one at
        # a time (one shared PPX transport cannot be suspended concurrently),
        # feeding each step the previous controlled value as for local ones.
        from repro.ppl.inference.inference_compilation import InferenceCompilation
        from repro.ppl.nn.embeddings import ObservationEmbeddingFC

        remote, thread = self._remote(gaussian_simulator)
        dataset = remote.prior_traces(40, rng=RandomState(0))
        engine = InferenceCompilation(
            observation_embedding=ObservationEmbeddingFC(input_dim=1, embedding_dim=8),
            observe_key="obs",
            rng=RandomState(1),
        )
        engine.train(dataset=dataset, num_traces=80, minibatch_size=10)
        posterior = engine.posterior(remote, {"obs": 1.0}, num_traces=12, rng=RandomState(2))
        assert len(posterior) == 12
        assert np.all(np.isfinite(posterior.log_weights))
        # Remote executions run one at a time on one-slot sessions, on the
        # calling thread: one round, and one batched step, per draw.
        stats = posterior.engine_stats
        assert stats["num_rounds"] == stats["num_batched_steps"] == 12
        assert stats["num_slot_threads_started"] == 0
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_remote_cohort_runs_one_slot_sessions_matching_the_reference(self, small_config):
        # A RemoteModel cohort runs each job on its own one-slot lockstep
        # session: one round per controlled draw, and every trace equal, bit
        # for bit, to the step-by-step per-object reference over the same
        # simulator.
        from repro.ppl.inference.batched import (
            TraceJob,
            new_engine_stats,
            request_key,
            resolve_observation_array,
            run_mixed_cohort,
        )
        from repro.ppl.nn import InferenceNetwork, ObservationEmbeddingFC

        remote, thread = self._remote(looping_simulator)
        try:
            network = InferenceNetwork(
                observation_embedding=ObservationEmbeddingFC(
                    input_dim=1, embedding_dim=small_config.observation_embedding_dim
                ),
                config=small_config,
                observe_key="obs",
                rng=RandomState(0),
            )
            network.polymorph(remote.prior_traces(4, rng=RandomState(1)))
            observation = {"obs": 1.3}
            jobs = TraceJob.for_request(
                0, observation, resolve_observation_array(network, observation), 5,
                request_key(RandomState(2)),
            )
            stats = new_engine_stats()
            traces = run_mixed_cohort(remote, jobs, network, stats)
            references = [ref.sequential_trace(remote, job, network)[0] for job in jobs]
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)
        assert stats["num_cohorts"] == 1
        assert stats["num_rounds"] == stats["num_batched_steps"] == sum(t.length for t in traces)
        assert stats["num_observation_embeddings"] == len(jobs)
        assert stats["num_slot_threads_started"] == 0
        assert len({t.length for t in traces}) > 1
        for trace, reference in zip(traces, references):
            assert trace.addresses == reference.addresses
            assert [s.value for s in trace.samples] == [s.value for s in reference.samples]
            assert trace.log_q == reference.log_q
            assert trace.log_joint == reference.log_joint

    def test_each_remote_draw_scores_its_prior_once(self, monkeypatch):
        # The policy scores the prior (through the controller, or itself for a
        # control=False draw) and the trace records that number: Normal's
        # log_prob runs once per draw plus once for the observe, never twice
        # for one draw.  Proposals here are Uniform, so only priors count.
        scored = []
        log_prob = Normal.log_prob

        def counting_log_prob(distribution, value):
            scored.append(value)
            return log_prob(distribution, value)

        monkeypatch.setattr(Normal, "log_prob", counting_log_prob)
        remote, thread = self._remote(uncontrolled_simulator)
        try:
            prior = remote.prior_trace(RandomState(3))
            assert len(scored) == 3
            del scored[:]
            posterior = ref.provider_importance_sampling(
                remote, {"obs": 0.6}, 4,
                lambda address, instance, prior: Uniform(-3.0, 3.0), RandomState(4),
            )
            assert len(scored) == 3 * 4
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)
        for trace in [prior] + list(posterior.values):
            for draw in trace.samples:
                assert draw.log_prob == float(log_prob(draw.distribution, draw.value))

    def test_remote_model_forward_raises(self):
        remote, thread = self._remote(gaussian_simulator)
        with pytest.raises(RuntimeError):
            remote.forward()
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_observes_are_conditioned_by_name(self):
        remote, thread = self._remote(two_point_gaussian)
        try:
            both = remote.get_trace(observed_values={"y1": 0.4, "y2": 0.9}, rng=RandomState(7))
            only_y2 = remote.get_trace(observed_values={"y2": 0.9}, rng=RandomState(7))
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)
        mu = both["mu"]
        assert both.observation == {"y1": 0.4, "y2": 0.9}
        assert both.log_likelihood == pytest.approx(
            float(Normal(mu, 0.5).log_prob(0.4) + Normal(mu, 0.5).log_prob(0.9))
        )
        # An unconditioned observe keeps the value the simulator reported.
        assert only_y2["mu"] == mu
        assert only_y2.observation == {"y1": mu + 0.1, "y2": 0.9}

    def test_a_key_no_remote_observe_consumes_is_refused(self):
        from repro.ppl.inference.batched import batched_importance_sampling

        remote, thread = self._remote(two_point_gaussian)
        try:
            with pytest.raises(ValueError, match=r"\['y3'\].*\['y1', 'y2'\]"):
                batched_importance_sampling(remote, {"y1": 0.4, "y3": 0.9}, num_traces=2, rng=RandomState(7))
            with pytest.raises(ValueError, match="'y3'"):
                batched_importance_sampling(remote, {"y3": 0.9}, num_traces=2, rng=RandomState(7))
            # The simulator is still in step: a well-named request runs.
            assert len(batched_importance_sampling(remote, {"y2": 0.9}, num_traces=2)) == 2
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)

    def test_remote_and_local_programs_give_bit_equal_traces_and_weights(self):
        from repro.ppl.inference.batched import batched_importance_sampling
        from repro.ppl.inference.inference_compilation import InferenceCompilation
        from repro.ppl.nn.embeddings import ObservationEmbeddingFC

        local = FunctionModel(two_point_gaussian, name="two-point", args=(LocalHandle(),))
        remote, thread = self._remote(two_point_gaussian)
        observation = {"y1": 0.4, "y2": 0.9}
        engine = InferenceCompilation(
            observation_embedding=ObservationEmbeddingFC(input_dim=1, embedding_dim=8),
            observe_key="y1",
            rng=RandomState(1),
        )
        engine.train(dataset=local.prior_traces(20, rng=RandomState(0)), num_traces=40, minibatch_size=10)
        posteriors = {}
        try:
            for name, model in (("local", local), ("remote", remote)):
                posteriors[name] = (
                    batched_importance_sampling(model, observation, num_traces=8, rng=RandomState(3)),
                    ref.provider_importance_sampling(
                        model, observation, 8, lambda address, instance, prior: Uniform(-3.0, 3.0),
                        RandomState(4),
                    ),
                    engine.posterior(model, observation, num_traces=8, rng=RandomState(5), batch_size=1),
                )
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)
        for prior_is, proposal_is, guided in posteriors.values():
            # The network guides both deployments: same addresses, no fallback.
            stats = guided.engine_stats
            assert (stats["num_proposal_steps"], stats["num_fallbacks"]) == (8, 0)
        for local_posterior, remote_posterior in zip(posteriors["local"], posteriors["remote"]):
            assert remote_posterior.log_weights.tobytes() == local_posterior.log_weights.tobytes()
            for remote_trace, local_trace in zip(remote_posterior.values, local_posterior.values):
                assert remote_trace.addresses == local_trace.addresses
                assert [s.value for s in remote_trace.samples] == [s.value for s in local_trace.samples]
                assert remote_trace.log_q == local_trace.log_q
                assert remote_trace.log_joint == local_trace.log_joint
                assert remote_trace.observation == local_trace.observation


class TestTauHandleContract:
    """``tau_decay_program`` must not be able to tell which handle it runs on."""

    def remote_and_local(self, seed):
        remote_results = []

        def simulator(client):
            remote_results.append(tau_decay_program(client, TauDecayConfig()))
            return 0

        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(simulator, sim_side)
        remote = RemoteModel(ppl_side, name="remote-tau")
        try:
            remote_trace = remote.prior_trace(RandomState(seed))
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        local_trace = TauDecayModel().prior_trace(RandomState(seed))
        return remote_trace, remote_results[0], local_trace, local_trace.result

    def test_program_result_has_the_same_keys_dtypes_and_shapes_on_both_handles(self):
        _, remote_result, _, local_result = self.remote_and_local(seed=11)
        assert list(remote_result) == list(local_result)
        for key, local_value in local_result.items():
            remote_value = remote_result[key]
            assert type(remote_value) is type(local_value), key
            if isinstance(local_value, np.ndarray):
                assert remote_value.dtype == local_value.dtype, key
                assert remote_value.shape == local_value.shape, key
        assert remote_result["observed_image"].dtype == np.float64
        assert np.isfinite(remote_result["observed_image"]).all()
        # The latents come from the PPL's stream on both paths; only the
        # readout noise is drawn simulator-side.
        assert remote_result["expected_image"].tobytes() == local_result["expected_image"].tobytes()

    def test_remote_trace_matches_the_local_one_statement_by_statement(self):
        remote_trace, remote_result, local_trace, _ = self.remote_and_local(seed=5)

        def program_frames(address):
            # The deployment-specific frames around the program (the
            # simulator wrapper, Model.forward, LocalHandle) differ by
            # construction.
            return [
                part
                for part in address.split("|")
                if part.startswith("simulators/tau_decay.py:") and "TauDecayModel" not in part
            ]

        assert remote_trace.length == local_trace.length
        for remote_sample, local_sample in zip(remote_trace.samples, local_trace.samples):
            assert program_frames(remote_sample.address) == program_frames(local_sample.address)
            assert program_frames(remote_sample.address)
            assert remote_sample.name == local_sample.name
            assert remote_sample.value == local_sample.value
            assert remote_sample.distribution == local_sample.distribution
        observation = remote_trace.observation["detector"]
        assert isinstance(observation, np.ndarray)
        assert observation.dtype == np.float64 and observation.shape == (8, 11, 11)
        assert observation.tobytes() == remote_result["observed_image"].tobytes()
        likelihood = remote_trace.observes[0].distribution
        assert likelihood.loc.tobytes() == remote_result["expected_image"].tobytes()


class TestExternalProcess:
    """The Sherpa-like deployment: the simulator runs in a separate OS process."""

    def test_subprocess_simulator_over_tcp(self):
        pytest.importorskip("subprocess")
        from repro.simulators.external import start_remote_model

        remote, process = start_remote_model("gaussian")
        try:
            traces = remote.prior_traces(3)
            assert len(traces) == 3
            posterior = remote.posterior({"obs": 0.8}, num_traces=200, engine="importance_sampling")
            assert posterior.extract("mu").mean == pytest.approx(0.64, abs=0.25)
        finally:
            remote.shutdown()
            process.wait(timeout=10)
        assert process.returncode == 0

    def test_addresses_start_at_the_simulator_however_it_was_launched(self):
        # A network trained on one deployment must recognise the other's
        # addresses: neither the subprocess's launcher (runpy, main,
        # run_client) nor a serving thread's bootstrap may appear in them.
        from repro.simulators.external import SIMULATOR_REGISTRY, start_remote_model

        remote, process = start_remote_model("tau_decay")
        try:
            over_tcp = remote.prior_trace(RandomState(7))
        finally:
            remote.shutdown()
            process.wait(timeout=10)
        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(SIMULATOR_REGISTRY["tau_decay"], sim_side)
        threaded = RemoteModel(ppl_side, name="remote-tau")
        try:
            in_thread = threaded.prior_trace(RandomState(7))
        finally:
            threaded.shutdown()
            thread.join(timeout=5.0)
        addresses = [sample.address for sample in over_tcp.samples]
        assert addresses == [sample.address for sample in in_thread.samples]
        assert all(
            address.startswith("simulators/external.py:_tau_decay_simulator:") for address in addresses
        )
