"""Regression tests for importance-weight accounting, train/inference
information-flow alignment, and Empirical.mode aggregation.

Each test here fails against the pre-fix code:

1. the proposal branch of importance sampling used the controller's
   controlled-draws-only ``log_q`` while ``log_joint`` includes uncontrolled
   draws' prior terms, so the terms failed to cancel (pinned now on the
   guided lockstep engine);
2. ``InferenceNetwork._sub_minibatch_loss`` carried a stale previous-sample
   embedding across a skipped (frozen/discarded) address, while the inference
   sessions reset it to zeros after a prior fallback;
3. ``Empirical.mode`` took the argmax over raw per-trace log-weights without
   aggregating duplicate values.
"""

import numpy as np
import pytest

from repro import ppl
from repro.common.rng import RandomState
from repro.distributions import Normal
from repro.ppl import FunctionModel
from repro.ppl.empirical import Empirical
from repro.ppl.inference import batched_importance_sampling
from repro.ppl.inference.batched import resolve_observation_array
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.ppl.nn.inference_network import InferenceNetwork
from tests import reference_kernels as ref


def uncontrolled_program():
    """A model with an uncontrolled (``control=False``) latent draw."""
    mu = ppl.sample(Normal(0.0, 1.0), name="mu")
    noise = ppl.sample(Normal(0.0, 0.7), name="noise", control=False)
    ppl.observe(Normal(mu + noise, 0.5), name="obs")
    return mu


class TestUncontrolledDrawWeightAccounting:
    """Fix 1: guided and prior IS use ExecutionState-level log_q accounting."""

    def test_guided_branch_cancels_uncontrolled_prior_terms(self, small_config):
        model = FunctionModel(uncontrolled_program, name="uncontrolled")
        network = InferenceNetwork(
            observation_embedding=ObservationEmbeddingFC(
                input_dim=1, embedding_dim=small_config.observation_embedding_dim
            ),
            config=small_config,
            observe_key="obs",
            rng=RandomState(0),
        )
        network.polymorph(model.prior_traces(2, rng=RandomState(1)))
        observation = {"obs": 0.3}
        posterior = batched_importance_sampling(
            model, observation, num_traces=16, batch_size=8, network=network, rng=RandomState(0)
        )
        observation_array = resolve_observation_array(network, observation)
        for trace, log_weight in zip(posterior.values, posterior.log_weights):
            # The weight keeps mu's prior and proposal terms and the
            # likelihood; the uncontrolled noise draw's prior term cancels.
            mu = trace.samples[0]
            proposal = ref.SequentialSession(network, observation_array).proposal(
                mu.address, mu.distribution
            )
            expected = trace.log_likelihood + mu.log_prob - float(proposal.log_prob(mu.value))
            assert trace.samples[1].name == "noise" and not trace.samples[1].controlled
            assert log_weight == pytest.approx(expected, abs=1e-10)

    def test_prior_branch_matches_likelihood_weighting(self):
        model = FunctionModel(uncontrolled_program, name="uncontrolled")
        posterior = batched_importance_sampling(model, {"obs": 0.3}, num_traces=40, rng=RandomState(1))
        for trace, log_weight in zip(posterior.values, posterior.log_weights):
            assert log_weight == pytest.approx(trace.log_likelihood, abs=1e-10)

    def test_batched_engine_uses_the_same_accounting(self):
        model = FunctionModel(uncontrolled_program, name="uncontrolled")
        posterior = batched_importance_sampling(
            model, {"obs": 0.3}, num_traces=16, batch_size=8, network=None, rng=RandomState(2)
        )
        for trace, log_weight in zip(posterior.values, posterior.log_weights):
            assert log_weight == pytest.approx(trace.log_likelihood, abs=1e-10)

    def test_prior_engine_weights_a_model_without_log_q_by_its_likelihood(self):
        # A Model subclass that forgets to record trace.log_q: prior draws
        # have log_q == log_prior, so the prior engine's weight stays exact
        # (a guided run refuses such a model instead; see
        # test_batched_inference.py::test_guided_run_requires_trace_log_q).
        class NoLogQModel(FunctionModel):
            def get_trace(self, controller=None, observed_values=None, rng=None):
                trace = super().get_trace(controller, observed_values=observed_values, rng=rng)
                del trace.log_q
                return trace

        model = NoLogQModel(uncontrolled_program, name="no_log_q")
        posterior = batched_importance_sampling(model, {"obs": 0.3}, num_traces=10, rng=RandomState(6))
        for trace, log_weight in zip(posterior.values, posterior.log_weights):
            assert not hasattr(trace, "log_q")
            assert log_weight == pytest.approx(trace.log_likelihood, abs=1e-10)


class TestDiscardedAddressEmbeddingAlignment:
    """Fix 2: the training loss resets prev_embed across skipped addresses."""

    def test_loss_matches_the_reference_session_across_discarded_address(self, small_config):
        network = InferenceNetwork(
            observation_embedding=ObservationEmbeddingFC(
                input_dim=2, embedding_dim=small_config.observation_embedding_dim
            ),
            config=small_config,
            observe_key="obs",
            rng=RandomState(0),
        )
        prior = Normal(0.0, 1.0)
        # Layers exist for addr_1 and addr_3 only; addr_2 is discarded by the
        # frozen network, exactly as in the offline freeze-and-discard mode.
        network._create_layers("addr_1", prior)
        network._create_layers("addr_3", prior)
        network.freeze_architecture()

        def program():
            x1 = ppl.sample(Normal(0.0, 1.0), name="x1", address="addr_1")
            x2 = ppl.sample(Normal(0.0, 1.0), name="x2", address="addr_2")
            x3 = ppl.sample(Normal(0.0, 1.0), name="x3", address="addr_3")
            ppl.observe(Normal(np.array([x1 + x3, x2]), 0.5), name="obs")
            return x1

        model = FunctionModel(program, name="three_address")
        trace = model.get_trace(rng=RandomState(1))
        loss = network.loss([trace])

        # Reference: replay the same values through the step-by-step session,
        # whose fallback at addr_2 resets the previous-sample embedding.
        values = [s.value for s in trace.samples]
        session = ref.SequentialSession(network, np.asarray(trace.observation["obs"], dtype=float))
        d1 = session.proposal("addr_1", trace.samples[0].distribution, None)
        assert session.proposal("addr_2", trace.samples[1].distribution, values[0]) is None
        d3 = session.proposal("addr_3", trace.samples[2].distribution, values[1])
        expected = -(float(d1.log_prob(values[0])) + float(d3.log_prob(values[2])))
        assert loss.item() == pytest.approx(expected, abs=1e-8)


class TestModeAggregatesDuplicates:
    """Fix 3: mode() aggregates weights per unique value before the argmax."""

    def test_duplicate_values_outweigh_single_heaviest(self):
        # Value 1.0 carries 0.6 total mass but its heaviest single trace
        # (0.35) is lighter than value 0.0's (0.4).
        emp = Empirical([0.0, 1.0, 1.0], log_weights=np.log([0.4, 0.35, 0.25]))
        assert emp.mode() == pytest.approx(1.0)

    def test_discrete_mode_matches_categorical_probabilities(self):
        emp = Empirical([0, 1, 1, 2], log_weights=[0.0, 0.0, 0.0, np.log(2.0)])
        probs = emp.categorical_probabilities()
        assert emp.mode() == max(probs, key=probs.get)

    def test_resampled_mode_reflects_aggregated_mass(self, rng):
        emp = Empirical([0.0, 1.0], log_weights=np.log([0.25, 0.75]))
        resampled = emp.resample(400, rng=rng)
        assert resampled.mode() == pytest.approx(1.0)

    def test_unhashable_values_aggregate_by_identity(self):
        heavy, duplicated = object(), object()
        values = [heavy, duplicated, duplicated]
        emp = Empirical(values, log_weights=np.log([0.4, 0.35, 0.25]))
        assert emp.mode() is duplicated

    def test_dict_values_do_not_crash(self):
        shared = {"a": 2}
        emp = Empirical([{"a": 1}, shared, shared], log_weights=np.log([0.4, 0.35, 0.25]))
        assert emp.mode() is shared
