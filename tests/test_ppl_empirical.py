"""Tests for the Empirical posterior representation."""

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.ppl import Empirical
from repro.trace import Sample, Trace
from repro.distributions import Uniform


def make_trace(mu, k=None):
    trace = Trace()
    trace.add_sample(Sample("addr_mu", Uniform(-5, 5), mu, log_prob=0.0, name="mu"))
    if k is not None:
        trace.add_sample(Sample("addr_k", Uniform(0, 3), k, log_prob=0.0, name="k"))
    trace.freeze(observation={})
    return trace


class TestWeights:
    def test_uniform_weights_by_default(self):
        emp = Empirical([1.0, 2.0, 3.0])
        assert np.allclose(emp.normalized_weights, 1.0 / 3.0)
        assert emp.effective_sample_size() == pytest.approx(3.0)

    def test_log_weights_are_normalised(self):
        emp = Empirical([0.0, 1.0], log_weights=[0.0, np.log(3.0)])
        assert np.allclose(emp.normalized_weights, [0.25, 0.75])

    def test_degenerate_weights_dominate(self):
        emp = Empirical([0.0, 10.0], log_weights=[-1000.0, 0.0])
        assert emp.mean == pytest.approx(10.0)
        assert emp.effective_sample_size() == pytest.approx(1.0)

    def test_all_minus_inf_weights_fall_back_to_uniform(self):
        emp = Empirical([1.0, 3.0], log_weights=[-np.inf, -np.inf])
        assert np.allclose(emp.normalized_weights, 0.5)

    def test_log_evidence(self):
        emp = Empirical([0.0, 0.0], log_weights=[np.log(2.0), np.log(4.0)])
        assert emp.log_evidence == pytest.approx(np.log(3.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            Empirical([])
        with pytest.raises(ValueError):
            Empirical([1.0], log_weights=[0.0, 0.0])


class TestSummaries:
    def test_weighted_mean_variance(self):
        emp = Empirical([0.0, 1.0], log_weights=[np.log(0.25), np.log(0.75)])
        assert emp.mean == pytest.approx(0.75)
        assert emp.variance == pytest.approx(0.25 * 0.75**2 + 0.75 * 0.25**2)
        assert emp.stddev == pytest.approx(np.sqrt(emp.variance))

    def test_quantile(self):
        values = np.linspace(0, 1, 101)
        emp = Empirical(list(values))
        assert emp.quantile(0.5) == pytest.approx(0.5, abs=0.02)
        q = emp.quantile([0.1, 0.9])
        assert q[0] < q[1]

    def test_mode_returns_highest_weight_value(self):
        emp = Empirical(["a", "b", "c"], log_weights=[0.0, 3.0, 1.0])
        assert emp.mode() == "b"

    def test_vector_values_refuse_scalar_summaries(self):
        # Regression: reshape(-1)[0] used to silently summarise only the
        # first coordinate of vector-valued latents.
        emp = Empirical([np.array([1.0, 10.0]), np.array([3.0, 30.0])])
        for summary in (lambda: emp.mean, lambda: emp.variance,
                        lambda: emp.quantile(0.5), lambda: emp.histogram()):
            with pytest.raises(ValueError, match="scalar summary"):
                summary()
        # The supported route: project one coordinate explicitly.
        assert emp.map_values(lambda v: v[0]).mean == pytest.approx(2.0)
        assert emp.map_values(lambda v: v[1]).mean == pytest.approx(20.0)
        # Scalar-shaped arrays (0-d and length-1) still summarise fine.
        assert Empirical([np.array([2.0]), np.array(4.0)]).mean == pytest.approx(3.0)

    def test_histogram_is_a_density(self):
        rng = np.random.default_rng(0)
        emp = Empirical(list(rng.standard_normal(2000)))
        density, edges = emp.histogram(bins=30)
        widths = np.diff(edges)
        assert np.isclose(np.sum(density * widths), 1.0)

    def test_categorical_probabilities(self):
        emp = Empirical([0, 1, 1, 2], log_weights=[0.0, 0.0, 0.0, np.log(2.0)])
        probs = emp.categorical_probabilities()
        assert probs[1] == pytest.approx(0.4)
        assert probs[2] == pytest.approx(0.4)
        assert sum(probs.values()) == pytest.approx(1.0)


class TestTraceProjection:
    def test_extract_named_latent(self):
        emp = Empirical([make_trace(0.1), make_trace(0.5)], log_weights=[0.0, np.log(3.0)])
        mu = emp.extract("mu")
        assert mu.mean == pytest.approx(0.25 * 0.1 + 0.75 * 0.5)

    def test_extract_missing_name_raises(self):
        emp = Empirical([make_trace(0.1)])
        with pytest.raises(KeyError):
            emp.extract("nope")

    def test_extract_skips_traces_without_the_name(self):
        emp = Empirical([make_trace(0.1, k=2), make_trace(0.2)])
        k = emp.extract("k")
        assert len(k) == 1

    def test_map_values(self):
        emp = Empirical([make_trace(0.1), make_trace(0.3)])
        doubled = emp.map_values(lambda t: 2 * t["mu"])
        assert doubled.mean == pytest.approx(0.4)


class TestResamplingAndCaches:
    def test_resample_has_uniform_weights(self):
        emp = Empirical([0.0, 1.0], log_weights=[np.log(0.01), np.log(0.99)])
        resampled = emp.resample(500, rng=RandomState(3))
        assert len(resampled) == 500
        assert np.allclose(resampled.log_weights, 0.0)
        assert resampled.mean > 0.9

    def test_summary_caches_are_stable(self):
        emp = Empirical([1.0, 2.0, 3.0], log_weights=[0.0, 0.5, 1.0])
        weights = emp.normalized_weights
        assert emp.normalized_weights is weights
        numeric = emp._numeric()
        assert emp._numeric() is numeric
        assert emp.mean == pytest.approx(float(np.sum(numeric * weights)))
