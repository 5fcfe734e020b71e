"""Tests for repro.distributions: sampling statistics, densities, serialisation."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from repro.common.rng import RandomState
from repro.distributions import (
    Bernoulli,
    Beta,
    Categorical,
    Distribution,
    Exponential,
    Gamma,
    Mixture,
    MultivariateNormal,
    Normal,
    Poisson,
    TruncatedNormal,
    Uniform,
    distribution_from_dict,
)


RNG = RandomState(77)


def check_moments(dist, n=20000, rtol=0.1, atol=0.05):
    samples = np.asarray(dist.sample(RNG, size=n), dtype=float)
    assert np.isclose(samples.mean(), dist.mean, rtol=rtol, atol=atol)
    assert np.isclose(samples.var(), dist.variance, rtol=3 * rtol, atol=3 * atol)


def check_roundtrip(dist):
    rebuilt = distribution_from_dict(dist.to_dict())
    assert rebuilt == dist
    assert type(rebuilt) is type(dist)


class TestNormal:
    def test_log_prob_matches_scipy(self):
        dist = Normal(1.5, 2.0)
        x = np.linspace(-5, 8, 30)
        assert np.allclose(dist.log_prob(x), stats.norm(1.5, 2.0).logpdf(x))

    def test_moments_and_sampling(self):
        check_moments(Normal(-2.0, 0.7))

    def test_cdf_icdf_inverse(self):
        dist = Normal(0.5, 1.2)
        q = np.array([0.1, 0.5, 0.9])
        assert np.allclose(dist.cdf(dist.icdf(q)), q)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            Normal(0.0, -1.0)

    def test_roundtrip(self):
        check_roundtrip(Normal(3.0, 0.2))

    def test_vector_parameters(self):
        dist = Normal(np.zeros(4), np.ones(4) * 2.0)
        x = np.ones(4)
        assert dist.log_prob(x).shape == (4,)
        assert np.allclose(dist.log_prob(x), stats.norm(0, 2).logpdf(1.0))

    def test_stddev(self):
        assert Normal(0.0, 3.0).stddev == pytest.approx(3.0)


class TestUniform:
    def test_log_prob_inside_and_outside(self):
        dist = Uniform(-1.0, 3.0)
        assert dist.log_prob(0.0) == pytest.approx(-np.log(4.0))
        assert dist.log_prob(5.0) == -np.inf
        assert dist.log_prob(-2.0) == -np.inf

    def test_moments(self):
        check_moments(Uniform(2.0, 6.0))

    def test_samples_in_support(self):
        samples = Uniform(-1.0, 1.0).sample(RNG, size=1000)
        assert samples.min() >= -1.0 and samples.max() <= 1.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)

    def test_roundtrip(self):
        check_roundtrip(Uniform(0.0, 2.5))


class TestCategorical:
    def test_probabilities_normalised(self):
        dist = Categorical([2.0, 1.0, 1.0])
        assert np.allclose(dist.probs, [0.5, 0.25, 0.25])
        assert dist.num_categories == 3

    def test_log_prob(self):
        dist = Categorical([0.2, 0.8])
        assert dist.log_prob(1) == pytest.approx(np.log(0.8))
        assert dist.log_prob(5) == -np.inf
        assert dist.log_prob(np.array([0, 1])).shape == (2,)

    def test_sampling_frequencies(self):
        dist = Categorical([0.7, 0.2, 0.1])
        samples = dist.sample(RNG, size=20000)
        freq = np.bincount(samples, minlength=3) / 20000
        assert np.allclose(freq, dist.probs, atol=0.02)

    def test_scalar_sample_is_int(self):
        assert isinstance(Categorical([0.5, 0.5]).sample(RNG), int)

    def test_moments(self):
        dist = Categorical([0.25, 0.25, 0.5])
        assert dist.mean == pytest.approx(1.25)
        assert dist.variance == pytest.approx(0.6875)

    def test_validation(self):
        with pytest.raises(ValueError):
            Categorical([[0.5, 0.5]])
        with pytest.raises(ValueError):
            Categorical([-0.1, 1.1])
        with pytest.raises(ValueError):
            Categorical([0.0, 0.0])

    def test_roundtrip(self):
        check_roundtrip(Categorical([0.1, 0.2, 0.7]))


class TestTruncatedNormal:
    def test_log_prob_matches_scipy(self):
        loc, scale, low, high = 0.5, 1.2, -1.0, 2.0
        dist = TruncatedNormal(loc, scale, low, high)
        ref = stats.truncnorm((low - loc) / scale, (high - loc) / scale, loc=loc, scale=scale)
        x = np.linspace(-0.9, 1.9, 17)
        assert np.allclose(dist.log_prob(x), ref.logpdf(x))

    def test_log_prob_outside_support(self):
        dist = TruncatedNormal(0.0, 1.0, -1.0, 1.0)
        assert dist.log_prob(1.5) == -np.inf

    def test_samples_within_bounds(self):
        dist = TruncatedNormal(0.0, 5.0, -0.5, 0.5)
        samples = dist.sample(RNG, size=2000)
        assert samples.min() >= -0.5 and samples.max() <= 0.5

    def test_moments_against_scipy(self):
        loc, scale, low, high = 1.0, 0.8, 0.0, 3.0
        dist = TruncatedNormal(loc, scale, low, high)
        ref = stats.truncnorm((low - loc) / scale, (high - loc) / scale, loc=loc, scale=scale)
        assert dist.mean == pytest.approx(ref.mean(), rel=1e-6)
        assert dist.variance == pytest.approx(ref.var(), rel=1e-6)

    def test_far_tail_truncation_is_finite(self):
        dist = TruncatedNormal(-50.0, 1.0, 0.0, 1.0)
        assert np.isfinite(dist.log_prob(0.5))
        assert 0.0 <= dist.sample(RNG) <= 1.0

    @pytest.mark.parametrize("low,high", [(8.0, 9.0), (-9.0, -8.0), (12.0, 12.5)])
    def test_far_tail_log_prob_matches_scipy(self, low, high):
        dist = TruncatedNormal(0.0, 1.0, low, high)
        ref = stats.truncnorm(low, high, loc=0.0, scale=1.0)
        x = np.linspace(low, high, 9)
        assert np.allclose(dist.log_prob(x), ref.logpdf(x), atol=1e-8)

    @pytest.mark.parametrize("low,high", [(8.0, 9.0), (-9.0, -8.0)])
    def test_far_tail_sampling_stays_in_support_with_correct_moments(self, low, high):
        dist = TruncatedNormal(0.0, 1.0, low, high)
        samples = dist.sample(RNG, size=4000)
        assert samples.min() >= low and samples.max() <= high
        # Far-tail truncations concentrate hard against the near bound; the
        # naive CDF-difference sampler would collapse to a constant here.
        ref = stats.truncnorm(low, high, loc=0.0, scale=1.0)
        assert np.std(samples) > 0
        assert np.mean(samples) == pytest.approx(ref.mean(), abs=0.02)

    def test_far_tail_density_integrates_to_one(self):
        dist = TruncatedNormal(0.0, 1.0, 10.0, 11.0)
        x = np.linspace(10.0, 11.0, 20001)
        integral = np.trapezoid(np.exp(dist.log_prob(x)), x)
        assert integral == pytest.approx(1.0, abs=1e-4)

    def test_batch_build_matches_scalar_construction(self):
        locs = [0.3, -1.0, 0.0, 2.0]
        scales = [0.7, 1.5, 1.0, 0.2]
        lows = [-1.0, 0.0, 8.0, -9.0]
        highs = [2.0, 4.0, 9.0, -8.0]
        built = TruncatedNormal.batch_build(locs, scales, lows, highs)
        for fast, (loc, scale, low, high) in zip(built, zip(locs, scales, lows, highs)):
            ref = TruncatedNormal(loc, scale, low, high)
            x = np.linspace(low, high, 7)
            assert np.allclose(fast.log_prob(x), ref.log_prob(x))
            assert fast._z == ref._z and fast._log_z == ref._log_z

    def test_batch_build_validation(self):
        with pytest.raises(ValueError):
            TruncatedNormal.batch_build([0.0], [0.0], [-1.0], [1.0])
        with pytest.raises(ValueError):
            TruncatedNormal.batch_build([0.0], [1.0], [1.0], [-1.0])

    def test_degenerate_far_tail_moments_collapse_to_endpoint(self):
        # Z underflows to exactly zero here (ndtr(-40) == 0.0); the old
        # moment formulas divided by the 1e-300 placeholder and reported
        # values off by hundreds of orders of magnitude.
        right = TruncatedNormal(0.0, 1.0, 40.0, 41.0)
        assert right._degenerate
        assert right.mean == 40.0
        assert right.variance == 0.0
        left = TruncatedNormal(0.0, 1.0, -41.0, -40.0)
        assert left.mean == -40.0
        assert left.variance == 0.0
        # batch_build carries the same degeneracy flag per element.
        fast = TruncatedNormal.batch_build([0.0, 0.0], [1.0, 1.0], [40.0, -1.0], [41.0, 1.0])
        assert fast[0]._degenerate and not fast[1]._degenerate
        assert fast[0].mean == 40.0 and fast[0].variance == 0.0

    def test_near_degenerate_moments_stay_inside_support(self):
        # Z survives as a tiny non-zero value via catastrophic cancellation;
        # the raw formulas put the mean outside [low, high] and the variance
        # below zero.  Both are clamped to the feasible range.
        dist = TruncatedNormal(0.0, 1.0, 10.0, 10.0 + 1e-13)
        assert dist.low <= dist.mean <= dist.high
        assert 0.0 <= dist.variance <= (0.5 * (dist.high - dist.low)) ** 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedNormal(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            TruncatedNormal(0.0, 1.0, 1.0, -1.0)

    def test_roundtrip(self):
        check_roundtrip(TruncatedNormal(0.3, 0.7, -1.0, 2.0))


class TestMixture:
    def test_log_prob_is_weighted_logsumexp(self):
        mix = Mixture([Normal(-1.0, 0.5), Normal(1.0, 0.5)], [0.3, 0.7])
        x = np.linspace(-2, 2, 9)
        expected = np.log(
            0.3 * stats.norm(-1, 0.5).pdf(x) + 0.7 * stats.norm(1, 0.5).pdf(x)
        )
        assert np.allclose(mix.log_prob(x), expected)

    def test_moments(self):
        mix = Mixture([Normal(-1.0, 0.5), Normal(1.0, 0.5)], [0.5, 0.5])
        assert mix.mean == pytest.approx(0.0)
        assert mix.variance == pytest.approx(0.25 + 1.0)
        assert isinstance(mix.mean, float) and isinstance(mix.variance, float)

    def test_vector_component_moments_are_per_coordinate(self):
        # Regression: float(np.sum(...)) used to collapse vector component
        # means/variances into one scalar (summing across coordinates).
        mix = Mixture(
            [Normal(np.zeros(2), 1.0), Normal(np.array([2.0, 4.0]), 1.0)], [0.5, 0.5]
        )
        assert np.allclose(mix.mean, [1.0, 2.0])
        # var = E[var] + Var[means] per coordinate.
        assert np.allclose(mix.variance, [1.0 + 1.0, 1.0 + 4.0])

    def test_sampling_covers_components(self):
        mix = Mixture([Normal(-5.0, 0.1), Normal(5.0, 0.1)], [0.5, 0.5])
        samples = mix.sample(RNG, size=500)
        assert (samples < 0).any() and (samples > 0).any()

    def test_scalar_sample(self):
        mix = Mixture([Uniform(0.0, 1.0)], [1.0])
        assert 0.0 <= float(mix.sample(RNG)) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Mixture([], [])
        with pytest.raises(ValueError):
            Mixture([Normal(0, 1)], [0.5, 0.5])
        with pytest.raises(ValueError):
            Mixture([Normal(0, 1)], [-1.0])
        with pytest.raises(ValueError):
            Mixture([Normal(0, 1), Normal(1, 1)], [0.0, 0.0])

    def test_roundtrip(self):
        mix = Mixture([Normal(0.0, 1.0), TruncatedNormal(0.0, 1.0, -1.0, 1.0)], [0.4, 0.6])
        rebuilt = distribution_from_dict(mix.to_dict())
        x = np.linspace(-0.9, 0.9, 5)
        assert np.allclose(rebuilt.log_prob(x), mix.log_prob(x))

    def test_truncated_fast_path_matches_generic_loop(self):
        components = [TruncatedNormal(0.1 * k, 0.5 + 0.1 * k, -2.0, 2.0) for k in range(5)]
        mix = Mixture(components, [0.1, 0.2, 0.3, 0.25, 0.15])
        assert mix._fast_params is not None
        x = np.linspace(-2.5, 2.5, 11)  # includes out-of-support points
        generic = logsumexp(
            np.stack([lw + c.log_prob(x) for lw, c in zip(mix._log_weights, components)]), axis=0
        )
        assert np.allclose(mix.log_prob(x), generic)
        assert np.isscalar(float(mix.log_prob(0.3)))

    def test_mixture_logsumexp_is_scipys(self):
        # The in-repo reduction mirrors scipy 1.17's algorithm (count the
        # entries at the maximum, log1p the rest), which is what kept seeded
        # posteriors bit-equal when it replaced the scipy call.  Bit-equality
        # is asserted against that scipy line only; any other release may
        # reduce differently (older ones plainly max-shift) and must merely
        # agree to rounding, edge cases exactly.
        import scipy

        from repro.distributions.mixture import logsumexp as mixture_logsumexp

        mirrored = scipy.__version__.startswith("1.17.")
        data = np.random.default_rng(4)
        cases = [data.normal(size=shape) * scale for shape in [(7,), (16, 10), (3, 5, 4)]
                 for scale in (0.1, 1.0, 30.0, 700.0)]
        cases.append(np.round(data.normal(size=(9, 6))))            # ties at the maximum
        cases.append(np.full((4, 3), -np.inf))                      # outside every support
        cases.append(np.where(data.random((8, 5)) < 0.5, -np.inf, data.normal(size=(8, 5))))
        cases.append(np.array([[0.0, np.inf], [np.nan, 1.0], [-np.inf, 2.0]]))
        for case in cases:
            for axis in (-1, 0):
                with np.errstate(all="ignore"):
                    expected = logsumexp(case, axis=axis)
                got = mixture_logsumexp(case, axis=axis)
                assert np.shape(got) == np.shape(expected)
                if mirrored:
                    assert np.array_equal(got, expected, equal_nan=True)
                else:
                    assert np.allclose(got, expected, rtol=1e-14, atol=0.0, equal_nan=True)

    def test_heterogeneous_mixture_falls_back_to_generic_path(self):
        mix = Mixture([Normal(0.0, 1.0), Uniform(-1.0, 1.0)], [0.5, 0.5])
        assert mix._fast_params is None
        expected = np.log(0.5 * stats.norm(0, 1).pdf(0.2) + 0.5 * 0.5)
        assert mix.log_prob(0.2) == pytest.approx(expected)

    def test_vectorized_size_sampling(self):
        mix = Mixture([Normal(-5.0, 0.1), Normal(5.0, 0.1)], [0.5, 0.5])
        samples = mix.sample(RNG, size=(40, 25))
        assert samples.shape == (40, 25)
        assert (samples < 0).any() and (samples > 0).any()
        assert np.all(np.abs(np.abs(samples) - 5.0) < 2.0)


class TestMultivariateNormal:
    def test_log_prob_matches_scipy_full_cov(self):
        cov = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 0.5]])
        loc = np.array([1.0, -1.0, 0.5])
        dist = MultivariateNormal(loc, cov)
        ref = stats.multivariate_normal(loc, cov)
        x = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5], [2.0, 1.0, -1.0]])
        assert np.allclose(dist.log_prob(x), ref.logpdf(x))

    def test_diagonal_covariance_vector(self):
        dist = MultivariateNormal([0.0, 0.0], [1.0, 4.0])
        ref = stats.multivariate_normal([0, 0], np.diag([1.0, 4.0]))
        x = np.array([0.5, -1.0])
        assert dist.log_prob(x) == pytest.approx(ref.logpdf(x))

    def test_scalar_3d_path_matches_general_diagonal(self):
        dist = MultivariateNormal([0.1, 0.2, 0.3], [0.5, 1.0, 2.0])
        x = np.random.default_rng(0).standard_normal((20, 3))
        assert np.allclose(dist.log_prob_3d_scalar(x), dist.log_prob(x))

    def test_scalar_3d_path_matches_general_full(self):
        cov = np.array([[1.0, 0.2, 0.0], [0.2, 1.5, 0.1], [0.0, 0.1, 0.8]])
        dist = MultivariateNormal([0.0, 0.0, 0.0], cov)
        x = np.random.default_rng(1).standard_normal((20, 3))
        assert np.allclose(dist.log_prob_3d_scalar(x), dist.log_prob(x))

    def test_scalar_3d_requires_3_dimensions(self):
        with pytest.raises(ValueError):
            MultivariateNormal([0.0, 0.0], [1.0, 1.0]).log_prob_3d_scalar([0.0, 0.0])

    def test_sampling_mean_and_cov(self):
        cov = np.array([[1.0, 0.5], [0.5, 2.0]])
        dist = MultivariateNormal([1.0, -1.0], cov)
        samples = dist.sample(RNG, size=20000)
        assert np.allclose(samples.mean(axis=0), [1.0, -1.0], atol=0.05)
        assert np.allclose(np.cov(samples.T), cov, atol=0.1)

    def test_single_sample_shape(self):
        dist = MultivariateNormal([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert np.asarray(dist.sample(RNG)).shape == (3,)

    def test_moments(self):
        dist = MultivariateNormal([1.0, 2.0], [3.0, 4.0])
        assert np.allclose(dist.mean, [1.0, 2.0])
        assert np.allclose(dist.variance, [3.0, 4.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            MultivariateNormal([0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            MultivariateNormal([0.0, 0.0], [-1.0, 1.0])
        with pytest.raises(ValueError):
            MultivariateNormal([0.0], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            MultivariateNormal([0.0, 0.0], np.zeros((2, 2, 2)))

    def test_roundtrip(self):
        check_roundtrip(MultivariateNormal([0.0, 1.0], [[2.0, 0.1], [0.1, 1.0]]))


class TestScalarDistributions:
    def test_beta_matches_scipy(self):
        dist = Beta(2.0, 3.0)
        x = np.linspace(0.05, 0.95, 10)
        assert np.allclose(dist.log_prob(x), stats.beta(2, 3).logpdf(x))
        assert dist.log_prob(1.5) == -np.inf
        check_moments(dist)
        check_roundtrip(dist)

    def test_gamma_matches_scipy(self):
        dist = Gamma(3.0, 2.0)
        x = np.linspace(0.1, 20, 10)
        assert np.allclose(dist.log_prob(x), stats.gamma(3, scale=2).logpdf(x))
        assert dist.log_prob(-1.0) == -np.inf
        check_moments(dist, rtol=0.15)
        check_roundtrip(dist)

    def test_exponential_matches_scipy(self):
        dist = Exponential(2.0)
        x = np.linspace(0.0, 5, 10)
        assert np.allclose(dist.log_prob(x), stats.expon(scale=0.5).logpdf(x))
        assert dist.log_prob(-0.1) == -np.inf
        check_moments(dist)
        check_roundtrip(dist)

    def test_poisson_matches_scipy(self):
        dist = Poisson(4.0)
        k = np.arange(0, 15)
        assert np.allclose(dist.log_prob(k), stats.poisson(4.0).logpmf(k))
        assert dist.log_prob(2.5) == -np.inf
        assert dist.log_prob(-1) == -np.inf
        assert isinstance(dist.sample(RNG), int)
        check_moments(dist, rtol=0.1)
        check_roundtrip(dist)

    def test_bernoulli(self):
        dist = Bernoulli(0.3)
        assert dist.log_prob(1) == pytest.approx(np.log(0.3))
        assert dist.log_prob(0) == pytest.approx(np.log(0.7))
        assert dist.log_prob(2) == -np.inf
        assert dist.mean == pytest.approx(0.3)
        assert dist.variance == pytest.approx(0.21)
        samples = dist.sample(RNG, size=10000)
        assert abs(samples.mean() - 0.3) < 0.02
        check_roundtrip(dist)

    def test_scalar_validation(self):
        with pytest.raises(ValueError):
            Beta(0.0, 1.0)
        with pytest.raises(ValueError):
            Gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Poisson(-2.0)
        with pytest.raises(ValueError):
            Bernoulli(1.5)


class TestRegistry:
    def test_unknown_type_raises(self):
        with pytest.raises(KeyError):
            distribution_from_dict({"type": "NotADistribution"})

    def test_equality_and_hash(self):
        a, b = Normal(0.0, 1.0), Normal(0.0, 1.0)
        assert a == b
        assert a != Uniform(0.0, 1.0)
        assert a != Normal(0.0, 2.0)
        assert hash(a) == hash(b)
        assert (a == 5) is False or (a == 5) is NotImplemented or True

    def test_equality_with_mismatched_parameter_shapes_is_false(self):
        # Regression: np.allclose raises on non-broadcastable shapes, so
        # comparing a grid-likelihood Normal against a differently shaped one
        # used to crash __eq__ instead of answering "not equal".
        assert Normal(np.array([0.0, 1.0, 2.0]), 1.0) != Normal(np.array([0.0, 1.0]), 1.0)
        grid_a = Normal(np.zeros((3, 4)), 0.5)
        grid_b = Normal(np.zeros((2, 2)), 0.5)
        assert grid_a != grid_b
        # Broadcast-compatible shapes still compare by value: a scalar-loc
        # Normal equals a grid Normal whose entries all match it.
        assert Normal(0.0, 1.0) == Normal(np.zeros(3), np.ones(3))
        assert Normal(0.0, 1.0) != Normal(np.array([0.0, 0.5]), 1.0)

    def test_equality_of_structured_parameters(self):
        # Mixture's to_dict carries a list of component dicts — not a numeric
        # array.  Equality must compare it structurally, not refuse it.
        mix_a = Mixture([Normal(0.0, 1.0), Normal(1.0, 2.0)], [0.5, 0.5])
        mix_b = Mixture([Normal(0.0, 1.0), Normal(1.0, 2.0)], [0.5, 0.5])
        assert mix_a == mix_b
        assert mix_a != Mixture([Normal(0.0, 1.0), Normal(1.0, 3.0)], [0.5, 0.5])
        assert mix_a != Mixture([Normal(0.0, 1.0), Normal(1.0, 2.0)], [0.9, 0.1])
        check_roundtrip(mix_a)

    def test_array_parameters_serialise_as_arrays(self):
        # PPX ships an ndarray as dtype + shape + buffer; a list would go out
        # one tagged float at a time.  Scalars stay plain floats.
        grid = np.arange(12.0).reshape(3, 4)
        payload = Normal(grid, 0.5).to_dict()
        assert isinstance(payload["loc"], np.ndarray) and payload["loc"].shape == (3, 4)
        assert type(payload["scale"]) is float
        assert isinstance(Categorical([0.2, 0.8]).to_dict()["probs"], np.ndarray)
        assert isinstance(Mixture([Normal(0, 1)], [1.0]).to_dict()["weights"], np.ndarray)
        mvn = MultivariateNormal([0.0, 1.0], [1.0, 2.0]).to_dict()
        assert isinstance(mvn["loc"], np.ndarray) and mvn["cov"].shape == (2, 2)

    @pytest.mark.parametrize(
        "payload, expected",
        [
            ({"type": "Normal", "loc": [[0.0, 1.0], [2.0, 3.0]], "scale": 0.5}, Normal(np.arange(4.0).reshape(2, 2), 0.5)),
            ({"type": "Categorical", "probs": [0.25, 0.75]}, Categorical([0.25, 0.75])),
            (
                {"type": "MultivariateNormal", "loc": [0.0, 1.0], "cov": [[1.0, 0.0], [0.0, 2.0]]},
                MultivariateNormal([0.0, 1.0], [1.0, 2.0]),
            ),
            (
                {
                    "type": "Mixture",
                    "weights": [0.5, 0.5],
                    "components": [
                        {"type": "Categorical", "probs": [0.5, 0.5]},
                        {"type": "Categorical", "probs": [0.1, 0.9]},
                    ],
                },
                Mixture([Categorical([0.5, 0.5]), Categorical([0.1, 0.9])], [0.5, 0.5]),
            ),
        ],
        ids=lambda value: value["type"] if isinstance(value, dict) else "",
    )
    def test_list_payloads_are_still_accepted(self, payload, expected):
        # Saved ``address_specs`` and older PPX peers spell arrays as lists.
        rebuilt = distribution_from_dict(payload)
        assert rebuilt == expected
        assert hash(rebuilt) == hash(expected)
        assert repr(rebuilt) == repr(expected)
        check_roundtrip(rebuilt)

    def test_equality_repr_and_hash_with_array_valued_payloads(self):
        grid = np.linspace(0.0, 1.0, 8 * 11 * 11).reshape(8, 11, 11)
        a, b = Normal(grid, 0.1), Normal(grid.copy(), 0.1)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Normal(grid + 1e-3, 0.1)
        assert repr(a).startswith("Normal(loc=[[[")
        # Arrays nested inside a list of component dicts: dict == dict would
        # hit numpy's ambiguous truth value.
        mix_a = Mixture([Categorical([0.5, 0.5]), Categorical([0.1, 0.9])], [0.3, 0.7])
        mix_b = Mixture([Categorical([0.5, 0.5]), Categorical([0.1, 0.9])], [0.3, 0.7])
        assert mix_a == mix_b and hash(mix_a) == hash(mix_b)
        assert mix_a != Mixture([Categorical([0.5, 0.5]), Categorical([0.2, 0.8])], [0.3, 0.7])
        assert mix_a != Mixture([Categorical([0.5, 0.5])], [1.0])

    def test_prob_is_exp_log_prob(self):
        dist = Normal(0.0, 1.0)
        assert dist.prob(0.0) == pytest.approx(np.exp(dist.log_prob(0.0)))
