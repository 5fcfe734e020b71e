"""End-to-end PPX tests: a simulator controlled by the PPL over the protocol."""

import threading

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.distributions import Normal, Uniform
from repro.ppl import RemoteModel
from repro.ppl.state import PriorController
from repro.ppx import SimulatorClient, SimulatorController, make_queue_pair
from repro.simulators import TauDecayConfig, TauDecayModel
from repro.simulators.tau_decay import tau_decay_program


def gaussian_simulator(client, observation):
    """mu ~ N(0,1); y ~ N(mu, 0.5) with a reported simulated value."""
    mu = float(np.asarray(client.sample(Normal(0.0, 1.0), name="mu")))
    client.observe(Normal(mu, 0.5), value=mu + 0.1, name="obs")
    return mu


def uncontrolled_simulator(client, observation):
    """mu is controlled; a nuisance jitter draw is flagged control=False."""
    mu = float(np.asarray(client.sample(Normal(0.0, 1.0), name="mu")))
    jitter = float(np.asarray(client.sample(Normal(0.0, 0.3), name="jitter", control=False)))
    client.observe(Normal(mu + jitter, 0.5), value=mu + jitter, name="obs")
    return mu


def repeated_address_simulator(client, observation):
    """An uncontrolled and a controlled draw at the *same* address."""
    values = []
    for controlled in (False, True):
        values.append(float(np.asarray(client.sample(Normal(0.0, 1.0), name="v", control=controlled))))
    client.observe(Normal(values[1], 0.5), value=0.2, name="obs")
    return values


def looping_simulator(client, observation):
    """A simulator with a rejection loop (variable trace length)."""
    total = 0.0
    for _ in range(10):
        draw = float(np.asarray(client.sample(Uniform(0.0, 1.0), name="u")))
        total += draw
        if total > 1.0:
            break
    client.observe(Normal(total, 0.1), value=total, name="obs")
    return total


def run_client_in_thread(simulator, transport):
    client = SimulatorClient(transport, simulator, system_name="test-sim", model_name="test")
    thread = threading.Thread(target=client.serve_forever, daemon=True)
    thread.start()
    return client, thread


class TestSimulatorController:
    def test_handshake_and_prior_trace(self):
        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(gaussian_simulator, sim_side)
        controller = SimulatorController(ppl_side)

        def prior_policy(address, distribution, request):
            return distribution.sample()

        trace = controller.run_trace(prior_policy)
        assert trace.length == 1
        assert len(trace.observes) == 1
        assert trace.samples[0].name == "mu"
        assert np.isfinite(trace.log_joint)
        assert controller.simulator_name == "test-sim"
        controller.shutdown()
        thread.join(timeout=5.0)

    def test_observe_override_changes_likelihood(self):
        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(gaussian_simulator, sim_side)
        controller = SimulatorController(ppl_side)

        def fixed_policy(address, distribution, request):
            return 0.0  # force mu = 0

        trace_default = controller.run_trace(fixed_policy)
        trace_conditioned = controller.run_trace(fixed_policy, observe_override=5.0)
        # Conditioning on y=5 with mu=0 must be much less likely than y=0.1.
        assert trace_conditioned.log_likelihood < trace_default.log_likelihood
        controller.shutdown()
        thread.join(timeout=5.0)

    def test_variable_length_traces(self):
        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(looping_simulator, sim_side)
        controller = SimulatorController(ppl_side)

        def prior_policy(address, distribution, request):
            return distribution.sample()

        lengths = {controller.run_trace(prior_policy).length for _ in range(20)}
        assert len(lengths) > 1  # rejection loop produces varying trace lengths
        controller.shutdown()
        thread.join(timeout=5.0)

    def test_simulator_error_is_propagated(self):
        def failing_simulator(client, observation):
            raise RuntimeError("simulated crash")

        ppl_side, sim_side = make_queue_pair()
        _, thread = run_client_in_thread(failing_simulator, sim_side)
        controller = SimulatorController(ppl_side)
        with pytest.raises(RuntimeError, match="simulated crash"):
            controller.run_trace(lambda a, d, r: d.sample())
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

    def test_uncontrolled_remote_draws_bypass_the_controller(self):
        from repro.common.rng import RandomState
        from repro.ppl.inference import run_importance_sampling

        remote, thread = self._remote(uncontrolled_simulator)
        provider_calls = []

        def prior_as_proposal(address, instance, prior, state):
            provider_calls.append(address)
            return prior

        posterior = run_importance_sampling(
            remote, {"obs": 0.6}, num_traces=20,
            proposal_provider=prior_as_proposal, rng=RandomState(3),
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
        from repro.common.rng import RandomState
        from repro.ppl.inference import run_importance_sampling

        remote, thread = self._remote(repeated_address_simulator)
        instances = []

        def provider(address, instance, prior, state):
            instances.append(instance)
            return None

        posterior = run_importance_sampling(
            remote, {"obs": 0.2}, num_traces=3, proposal_provider=provider, rng=RandomState(5)
        )
        # The controlled draw is the second occurrence at its address.
        assert instances == [1, 1, 1]
        assert [s.instance for s in posterior.values[0].samples] == [0, 1]
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_guided_batched_inference_over_remote_model(self):
        # The batched engine must serve RemoteModel guided executions through
        # its per-trace path (one shared PPX transport cannot be suspended
        # concurrently) — including the previous-sample value, which remote
        # executions have no local ExecutionState to read from.
        from repro.common.rng import RandomState
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
        # Remote executions run per trace, never through the lockstep cohort.
        assert posterior.engine_stats["num_batched_steps"] == 0
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_distributed_parallel_ranks_are_serialized_for_remote_models(self):
        # Concurrent ranks would interleave the single PPX transport's
        # request/reply protocol; the driver must serialize them.
        from repro.common.rng import RandomState
        from repro.distributed.inference import distributed_importance_sampling

        remote, thread = self._remote(gaussian_simulator)
        posterior = distributed_importance_sampling(
            remote, {"obs": 0.5}, num_traces=12, num_ranks=3, batch_size=4,
            network=None, rng=RandomState(6), backend="thread",
        )
        assert len(posterior) == 12
        assert np.all(np.isfinite(posterior.log_weights))
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_remote_model_forward_raises(self):
        remote, thread = self._remote(gaussian_simulator)
        with pytest.raises(RuntimeError):
            remote.forward()
        remote.shutdown()
        thread.join(timeout=5.0)

    def test_multiple_observes_not_supported(self):
        remote, thread = self._remote(gaussian_simulator)
        with pytest.raises(NotImplementedError):
            remote.get_trace(PriorController(), observed_values={"a": 1.0, "b": 2.0})
        remote.shutdown()
        thread.join(timeout=5.0)


class TestTauHandleContract:
    """``tau_decay_program`` must not be able to tell which handle it runs on."""

    def remote_and_local(self, seed):
        remote_results = []

        def simulator(client, observation):
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
            # The deployment-specific frames around the program (thread
            # bootstrap, Model.forward, LocalHandle) differ by construction.
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
