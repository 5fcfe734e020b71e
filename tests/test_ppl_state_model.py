"""Tests for the PPL execution state, controllers and local models."""

import numpy as np
import pytest

from repro import ppl
from repro.common.rng import RandomState
from repro.distributions import Categorical, Normal, Uniform
from repro.ppl.state import (
    ExecutionState,
    PriorController,
    ProposalController,
    ReplayController,
    current_state,
)


class TestSampleObserveOutsideContext:
    def test_sample_outside_context_draws_from_prior(self):
        value = ppl.sample(Uniform(0.0, 1.0))
        assert 0.0 <= value <= 1.0
        assert current_state() is None

    def test_observe_outside_context_returns_value(self):
        assert ppl.observe(Normal(0.0, 1.0), value=2.5) == pytest.approx(2.5)

    def test_observe_outside_context_samples_when_no_value(self):
        assert np.isfinite(ppl.observe(Normal(0.0, 1.0)))


class TestPriorController:
    def test_prior_trace_records_everything(self, gaussian_model):
        trace = gaussian_model.prior_trace()
        assert trace.length == 1
        assert len(trace.observes) == 1
        assert trace.samples[0].name == "mu"
        assert trace.samples[0].controlled
        assert not trace.observes[0].controlled
        assert "obs" in trace.observation
        assert np.isfinite(trace.log_joint)
        assert trace.result == pytest.approx(trace["mu"])

    def test_prior_traces_are_random(self, gaussian_model, rng):
        traces = gaussian_model.prior_traces(10, rng=rng)
        values = [t["mu"] for t in traces]
        assert len(set(np.round(values, 8))) > 1

    def test_same_rng_gives_same_trace(self, gaussian_model):
        a = gaussian_model.prior_trace(RandomState(5))
        b = gaussian_model.prior_trace(RandomState(5))
        assert a["mu"] == pytest.approx(b["mu"])

    def test_log_q_equals_log_prior_for_prior_sampling(self, gaussian_model):
        trace = gaussian_model.prior_trace()
        assert trace.log_q == pytest.approx(trace.log_prior)


class TestObservationConditioning:
    def test_observed_value_is_scored(self, gaussian_model):
        trace = gaussian_model.get_trace(observed_values={"obs": 3.0})
        assert trace.observes[0].value == pytest.approx(3.0)
        expected = float(Normal(trace["mu"], 0.5).log_prob(3.0))
        assert trace.log_likelihood == pytest.approx(expected)

    def test_unconditioned_observe_simulates_value(self, gaussian_model):
        trace = gaussian_model.prior_trace()
        # the simulated observation should vary around mu
        assert np.isfinite(trace.observation["obs"])


class TestReplayController:
    def test_replay_reuses_values(self, mixed_model, rng):
        base = mixed_model.prior_trace(rng)
        base_values = {(s.address, s.instance): s.value for s in base.samples}
        controller = ReplayController(base_values)
        replayed = mixed_model.get_trace(controller, rng=rng)
        assert replayed["mu"] == pytest.approx(base["mu"])
        assert replayed["k"] == base["k"]
        assert len(controller.fresh_keys) == 0

    def test_replay_with_resample_site_changes_one_value(self, mixed_model, rng):
        base = mixed_model.prior_trace(rng)
        mu_sample = next(s for s in base.samples if s.name == "mu")
        base_values = {(s.address, s.instance): s.value for s in base.samples}
        controller = ReplayController(
            base_values, resample_key=(mu_sample.address, 0), resample_value=1.234
        )
        replayed = mixed_model.get_trace(controller, rng=rng)
        assert replayed["mu"] == pytest.approx(1.234)
        assert replayed["k"] == base["k"]

    def test_replay_draws_fresh_for_unknown_addresses(self, mixed_model, rng):
        controller = ReplayController(base_values={})
        trace = mixed_model.get_trace(controller, rng=rng)
        assert len(controller.fresh_keys) == trace.length
        assert controller.fresh_log_prob == pytest.approx(trace.log_prior)


class TestPriorIsScoredOncePerDraw:
    """A controller that scores the prior hands the number to ``do_sample``
    (``last_log_prior``) instead of letting it be evaluated a second time."""

    @staticmethod
    def _counting_model():
        scored = []

        class CountedNormal(Normal):
            def log_prob(self, value):
                scored.append(value)
                return super().log_prob(value)

        def program():
            mu = ppl.sample(CountedNormal(0.0, 1.0), name="mu")
            nu = ppl.sample(CountedNormal(mu, 1.0), name="nu")
            ppl.observe(Normal(nu, 0.5), name="obs")

        return ppl.FunctionModel(program, name="counted"), scored

    def test_prior_controller(self, rng):
        model, scored = self._counting_model()
        trace = model.get_trace(PriorController(), rng=rng)
        assert len(scored) == trace.length == 2
        assert trace.log_q == pytest.approx(trace.log_prior)

    def test_replay_controller_resampled_reused_and_fresh_sites(self, rng):
        model, scored = self._counting_model()
        base = model.prior_trace(rng)
        mu = base.samples[0]
        del scored[:]
        # mu is the resample site, nu is reused from the base trace.
        replayed = model.get_trace(
            ReplayController(
                {(s.address, s.instance): s.value for s in base.samples},
                resample_key=(mu.address, 0),
                resample_value=0.25,
            ),
            rng=rng,
        )
        assert len(scored) == 2
        assert replayed.log_prior == pytest.approx(
            float(Normal(0.0, 1.0).log_prob(0.25) + Normal(0.25, 1.0).log_prob(base["nu"]))
        )
        del scored[:]
        # Nothing to reuse: both sites are drawn fresh from the prior.
        controller = ReplayController(base_values={})
        fresh = model.get_trace(controller, rng=rng)
        assert len(scored) == 2
        assert controller.fresh_log_prob == pytest.approx(fresh.log_prior)


class TestProposalController:
    def test_proposals_are_used_and_logged(self, gaussian_model, rng):
        proposal = Normal(2.0, 0.1)

        def provider(address, instance, prior, state):
            return proposal

        controller = ProposalController(provider)
        trace = gaussian_model.get_trace(controller, observed_values={"obs": 2.0}, rng=rng)
        assert abs(trace["mu"] - 2.0) < 1.0  # drawn from the narrow proposal
        assert controller.num_proposed == 1
        assert controller.log_q == pytest.approx(float(proposal.log_prob(trace["mu"])))
        assert controller.log_prior == pytest.approx(trace.log_prior)

    def test_none_proposal_falls_back_to_prior(self, gaussian_model, rng):
        controller = ProposalController(lambda *args: None)
        trace = gaussian_model.get_trace(controller, rng=rng)
        assert controller.num_proposed == 0
        assert controller.log_q == pytest.approx(trace.log_prior)

    def test_controller_receives_execution_state(self, gaussian_model, rng):
        seen_states = []

        def provider(address, instance, prior, state):
            seen_states.append(state)
            return None

        gaussian_model.get_trace(ProposalController(provider), rng=rng)
        assert len(seen_states) == 1
        assert isinstance(seen_states[0], ExecutionState)


class TestModelAPI:
    def test_function_model_name_defaults_to_function_name(self):
        model = ppl.FunctionModel(lambda: ppl.sample(Uniform(0, 1)), name=None)
        assert model.name == "<lambda>"

    def test_function_model_with_arguments(self):
        def program(scale):
            return ppl.sample(Normal(0.0, scale), name="x")

        model = ppl.FunctionModel(program, args=(3.0,))
        trace = model.prior_trace()
        assert trace.samples[0].distribution.scale == pytest.approx(3.0)

    def test_model_forward_abstract(self):
        with pytest.raises(NotImplementedError):
            ppl.Model().forward()

    def test_posterior_dispatcher_rejects_unknown_engine(self, gaussian_model):
        with pytest.raises(ValueError):
            gaussian_model.posterior({"obs": 0.0}, num_traces=10, engine="bogus")

    def test_posterior_dispatcher_accepts_aliases(self, gaussian_model, rng):
        for engine in ("rmh", "lmh", "random_walk_metropolis", "lightweight_metropolis_hastings"):
            posterior = gaussian_model.posterior({"obs": 0.5}, num_traces=20, engine=engine, rng=rng)
            assert len(posterior) == 20

    def test_addresses_are_stable_across_executions(self, mixed_model, rng):
        a = mixed_model.prior_trace(rng)
        b = mixed_model.prior_trace(rng)
        assert a.addresses == b.addresses

    def test_different_sites_have_different_addresses(self, mixed_model, rng):
        trace = mixed_model.prior_trace(rng)
        assert len(set(trace.addresses)) == trace.length
