"""Correctness tests for the IS and RMH/LMH inference engines and diagnostics."""

import numpy as np
import pytest

from repro import ppl
from repro.common.rng import RandomState
from repro.distributions import Categorical, Normal, Uniform
from repro.ppl.inference import (
    RandomWalkMetropolis,
    autocorrelation,
    effective_sample_size,
    gelman_rubin,
    batched_importance_sampling,
    integrated_autocorrelation_time,
)
from tests import reference_kernels as ref
from tests.conftest import gaussian_posterior


class TestImportanceSampling:
    def test_recovers_conjugate_posterior(self, gaussian_model):
        y = 1.2
        posterior = batched_importance_sampling(gaussian_model, {"obs": y}, num_traces=4000, rng=RandomState(0))
        mu = posterior.extract("mu")
        true_mean, true_std = gaussian_posterior(y)
        assert mu.mean == pytest.approx(true_mean, abs=0.08)
        assert mu.stddev == pytest.approx(true_std, abs=0.08)

    def test_log_evidence_matches_analytic_marginal(self, gaussian_model):
        # p(y) = N(y; 0, sqrt(prior_var + lik_var))
        y = 0.7
        posterior = batched_importance_sampling(gaussian_model, {"obs": y}, num_traces=8000, rng=RandomState(1))
        expected = float(Normal(0.0, np.sqrt(1.25)).log_prob(y))
        assert posterior.log_evidence == pytest.approx(expected, abs=0.05)

    def test_prior_proposals_weight_by_likelihood(self, gaussian_model):
        posterior = batched_importance_sampling(gaussian_model, {"obs": 0.0}, num_traces=50, rng=RandomState(2))
        for trace, log_w in zip(posterior.values, posterior.log_weights):
            assert log_w == pytest.approx(trace.log_likelihood)

    def test_custom_proposal_changes_weights_but_not_posterior(self, gaussian_model):
        y = 1.0
        true_mean, _ = gaussian_posterior(y)

        def provider(address, instance, prior):
            return Normal(true_mean, 0.6)

        posterior = ref.provider_importance_sampling(
            gaussian_model, {"obs": y}, 3000, provider, RandomState(3)
        )
        assert posterior.extract("mu").mean == pytest.approx(true_mean, abs=0.08)
        # With good proposals the ESS per sample should beat prior-IS.
        prior_posterior = batched_importance_sampling(gaussian_model, {"obs": y}, num_traces=3000, rng=RandomState(4))
        assert posterior.effective_sample_size() > prior_posterior.effective_sample_size()

    def test_invalid_num_traces(self, gaussian_model):
        with pytest.raises(ValueError):
            batched_importance_sampling(gaussian_model, {"obs": 0.0}, num_traces=0)


class TestRandomWalkMetropolis:
    def test_recovers_conjugate_posterior_random_walk(self, gaussian_model):
        y = 1.2
        sampler = RandomWalkMetropolis(gaussian_model, {"obs": y}, kernel="random_walk", step_scale=0.4, burn_in=300)
        posterior = sampler.run(3000, rng=RandomState(0))
        mu = posterior.extract("mu")
        true_mean, true_std = gaussian_posterior(y)
        assert mu.mean == pytest.approx(true_mean, abs=0.1)
        assert mu.stddev == pytest.approx(true_std, abs=0.1)
        assert 0.05 < sampler.acceptance_rate < 0.99

    def test_recovers_conjugate_posterior_prior_kernel(self, gaussian_model):
        y = -0.8
        sampler = RandomWalkMetropolis(gaussian_model, {"obs": y}, kernel="prior", burn_in=300)
        posterior = sampler.run(3000, rng=RandomState(1))
        true_mean, true_std = gaussian_posterior(y)
        mu = posterior.extract("mu")
        assert mu.mean == pytest.approx(true_mean, abs=0.12)
        assert mu.stddev == pytest.approx(true_std, abs=0.12)

    def test_handles_mixed_discrete_continuous(self, mixed_model):
        y = np.array([0.5, 1.5, -0.5, 1.0])  # consistent with mu=0.5, k=1
        sampler = RandomWalkMetropolis(mixed_model, {"obs": y}, burn_in=200)
        posterior = sampler.run(1500, rng=RandomState(2))
        assert posterior.extract("mu").mean == pytest.approx(0.5, abs=0.2)
        k_probs = posterior.extract("k").categorical_probabilities()
        assert max(k_probs, key=k_probs.get) == 1

    def test_handles_variable_length_traces(self, rng):
        def loopy():
            total = 0.0
            count = 0
            while total < 1.0 and count < 20:
                total += ppl.sample(Uniform(0.0, 0.6), name="step")
                count += 1
            ppl.observe(Normal(total, 0.1), name="obs")
            return count

        model = ppl.FunctionModel(loopy)
        sampler = RandomWalkMetropolis(model, {"obs": 1.2}, burn_in=100)
        posterior = sampler.run(400, rng=rng)
        lengths = {t.length for t in posterior.values}
        assert len(lengths) >= 1  # chain moved across trace types without crashing
        assert sampler.num_executions > 400

    def test_thinning_and_burn_in_counts(self, gaussian_model, rng):
        sampler = RandomWalkMetropolis(gaussian_model, {"obs": 0.0}, burn_in=10, thin=3)
        posterior = sampler.run(20, rng=rng)
        assert len(posterior) == 20

    def test_initial_trace_can_be_provided(self, gaussian_model, rng):
        initial = gaussian_model.get_trace(observed_values={"obs": 0.0}, rng=rng)
        sampler = RandomWalkMetropolis(gaussian_model, {"obs": 0.0})
        posterior = sampler.run(10, rng=rng, initial_trace=initial)
        assert len(posterior) == 10

    def test_validation(self, gaussian_model):
        with pytest.raises(ValueError):
            RandomWalkMetropolis(gaussian_model, {}, kernel="bogus")
        with pytest.raises(ValueError):
            RandomWalkMetropolis(gaussian_model, {}, thin=0)
        with pytest.raises(ValueError):
            RandomWalkMetropolis(gaussian_model, {"obs": 0.0}).run(0)

    def test_rmh_matches_importance_sampling(self, gaussian_model):
        """The two engines must agree on the posterior (Figure 8's validation logic)."""
        y = 0.9
        is_post = batched_importance_sampling(gaussian_model, {"obs": y}, num_traces=4000, rng=RandomState(5))
        rmh_post = RandomWalkMetropolis(gaussian_model, {"obs": y}, burn_in=300).run(3000, rng=RandomState(6))
        assert is_post.extract("mu").mean == pytest.approx(rmh_post.extract("mu").mean, abs=0.1)
        assert is_post.extract("mu").stddev == pytest.approx(rmh_post.extract("mu").stddev, abs=0.1)


class TestDiagnostics:
    def _ar1(self, phi, n=20000, seed=0):
        rng = np.random.default_rng(seed)
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + rng.standard_normal()
        return x

    def test_autocorrelation_of_ar1_matches_theory(self):
        phi = 0.8
        rho = autocorrelation(self._ar1(phi), max_lag=10)
        assert rho[0] == pytest.approx(1.0)
        assert rho[1] == pytest.approx(phi, abs=0.05)
        assert rho[5] == pytest.approx(phi**5, abs=0.07)

    def test_autocorrelation_of_iid_is_near_zero(self):
        rho = autocorrelation(np.random.default_rng(0).standard_normal(5000), max_lag=5)
        assert np.all(np.abs(rho[1:]) < 0.05)

    def test_constant_chain(self):
        rho = autocorrelation(np.ones(100), max_lag=3)
        assert np.allclose(rho, 1.0)

    def test_autocorrelation_requires_two_samples(self):
        with pytest.raises(ValueError):
            autocorrelation([1.0])

    def test_integrated_autocorrelation_time_of_ar1(self):
        phi = 0.7
        tau = integrated_autocorrelation_time(self._ar1(phi))
        expected = (1 + phi) / (1 - phi)
        assert tau == pytest.approx(expected, rel=0.25)

    def test_effective_sample_size_ordering(self):
        iid = np.random.default_rng(1).standard_normal(5000)
        correlated = self._ar1(0.95, n=5000, seed=1)
        assert effective_sample_size(iid) > effective_sample_size(correlated)
        assert effective_sample_size(iid) <= 5000 * 1.2

    def test_fft_autocorrelation_matches_direct_estimator(self):
        # The FFT path is an exact O(n log n) rewrite of the O(n*max_lag)
        # direct loop (zero-padding makes the circular correlation linear),
        # so the two must agree to floating-point precision on real chains.
        for seed, phi in ((0, 0.8), (1, 0.2), (2, 0.99)):
            chain = self._ar1(phi, n=3000, seed=seed)
            direct = autocorrelation(chain, max_lag=200, method="direct")
            fft = autocorrelation(chain, max_lag=200, method="fft")
            assert np.allclose(fft, direct, atol=1e-10)

    def test_fft_autocorrelation_matches_direct_on_short_and_constant(self):
        short = np.array([0.3, -1.2, 0.7, 0.1, 2.0])
        assert np.allclose(
            autocorrelation(short, method="fft"),
            autocorrelation(short, method="direct"),
            atol=1e-12,
        )
        assert np.allclose(autocorrelation(np.ones(50), max_lag=4), 1.0)

    def test_autocorrelation_unknown_method(self):
        with pytest.raises(ValueError):
            autocorrelation(np.zeros(10), method="wavelet")

    def test_vectorized_ess_matches_per_chain(self):
        chains = np.stack([self._ar1(phi, n=2000, seed=s) for s, phi in enumerate((0.1, 0.6, 0.9))])
        batched = effective_sample_size(chains)
        assert batched.shape == (3,)
        for row, chain in zip(batched, chains):
            assert row == pytest.approx(effective_sample_size(chain), rel=1e-12)
        # Heavier correlation must monotonically cost effective samples.
        assert batched[0] > batched[1] > batched[2]

    def test_effective_sample_size_validation(self):
        with pytest.raises(ValueError):
            effective_sample_size(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            effective_sample_size(np.zeros((3, 1)))

    def test_gelman_rubin_converged_chains_near_one(self):
        rng = np.random.default_rng(0)
        chains = [rng.standard_normal(4000) for _ in range(4)]
        assert gelman_rubin(chains) == pytest.approx(1.0, abs=0.02)

    def test_gelman_rubin_detects_disagreement(self):
        rng = np.random.default_rng(0)
        chains = [rng.standard_normal(2000), rng.standard_normal(2000) + 5.0]
        assert gelman_rubin(chains) > 1.5

    def test_gelman_rubin_validation(self):
        with pytest.raises(ValueError):
            gelman_rubin([np.zeros(10)])
        with pytest.raises(ValueError):
            gelman_rubin([np.zeros(1), np.zeros(1)])

    def test_gelman_rubin_constant_chains(self):
        assert gelman_rubin([np.ones(10), np.ones(10)]) == pytest.approx(1.0)

    def test_rmh_chains_converge_by_gelman_rubin(self, gaussian_model):
        """Section 4.2's workflow: two independent chains, R-hat close to 1."""
        y = 1.0
        chains = []
        for seed in (10, 20):
            sampler = RandomWalkMetropolis(gaussian_model, {"obs": y}, burn_in=300)
            posterior = sampler.run(1500, rng=RandomState(seed))
            chains.append([t["mu"] for t in posterior.values])
        assert gelman_rubin(chains) < 1.2


class TestConditioningKeys:
    """A request is conditioned on exactly the keys it names: a key that no
    observe statement of an execution consumes is refused, naming the key
    and the observes the execution did see, instead of weighting traces as
    if it were absent (prior-predictive weights)."""

    MISSPELT = {"ob": 3.0}
    MESSAGE = r"\['ob'\].*\['obs'\]"

    def test_direct_importance_sampling(self, gaussian_model):
        with pytest.raises(ValueError, match=self.MESSAGE):
            gaussian_model.posterior(self.MISSPELT, num_traces=4)

    def test_batched_importance_sampling(self, gaussian_model):
        from repro.ppl.inference.batched import (
            batched_importance_sampling,
            mixed_batched_importance_sampling,
        )

        with pytest.raises(ValueError, match=self.MESSAGE):
            batched_importance_sampling(gaussian_model, self.MISSPELT, num_traces=4, rng=RandomState(0))
        with pytest.raises(ValueError, match=self.MESSAGE):
            mixed_batched_importance_sampling(
                gaussian_model, [({"obs": 3.0}, 2, RandomState(0)), (self.MISSPELT, 2, RandomState(1))]
            )

    def test_random_walk_metropolis(self, gaussian_model):
        with pytest.raises(ValueError, match=self.MESSAGE):
            RandomWalkMetropolis(gaussian_model, self.MISSPELT).run(4, rng=RandomState(0))
        with pytest.raises(ValueError, match=self.MESSAGE):
            gaussian_model.posterior(self.MISSPELT, num_traces=4, engine="rmh")

    def test_an_extra_key_beside_a_consumed_one_is_refused(self, gaussian_model):
        with pytest.raises(ValueError, match=r"\['extra'\]"):
            batched_importance_sampling(gaussian_model, {"obs": 3.0, "extra": 1.0}, num_traces=2)
        # Naming only what the program observes conditions it, as before.
        posterior = batched_importance_sampling(gaussian_model, {"obs": 3.0}, num_traces=2)
        assert all(trace.observation == {"obs": 3.0} for trace in posterior.values)
