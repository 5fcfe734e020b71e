"""Tests for the array-parameterised batched distributions.

The load-bearing contract: row ``i`` of ``sample_rows`` / ``log_prob_rows``
must be *bit-identical* — in rng consumption, sampled values and
log-densities — to the per-trace distribution object it replaces
(``row_distribution(i)``, or the per-object emission it stands in for), drawn
on the same stream, because the lockstep engine swaps one for the other on
the inference hot path and the seeded-equivalence guarantees of the whole
serving stack rest on that swap being invisible.
"""

from functools import partial

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.distributions import (
    BatchedCategorical,
    BatchedMixtureOfTruncatedNormals,
    Categorical,
    Mixture,
    Normal,
    TruncatedNormal,
    log_prob_total,
)
from tests.reference_kernels import sample_rows_percall


def _streams(seeds):
    return [RandomState(int(seed)) for seed in seeds]


def _states(rngs):
    return [rng.generator.bit_generator.state for rng in rngs]


def _mixture_reference(batch, index, raw_weights):
    """The per-object Mixture that row ``index`` of ``batch`` stands in for.

    Built from the *raw* (unnormalised) weights, exactly as the proposal
    layer's per-object path does — both paths must normalise once, from the
    same input, for the bit-identity contract to hold.
    """
    if batch.bounded[index]:
        components = TruncatedNormal.batch_build(
            batch.locs[index],
            batch.scales[index],
            np.full(batch.num_components, batch.lows[index]),
            np.full(batch.num_components, batch.highs[index]),
        )
    else:
        components = [
            Normal(batch.locs[index, k], batch.scales[index, k])
            for k in range(batch.num_components)
        ]
    return Mixture(components, raw_weights[index])


@pytest.fixture(scope="module")
def mixture_case():
    rng = np.random.default_rng(3)
    batch, components = 9, 5
    locs = rng.normal(size=(batch, components))
    scales = np.abs(rng.normal(size=(batch, components))) + 0.1
    weights = np.abs(rng.normal(size=(batch, components))) + 0.05
    lows = locs.min(axis=1) - 1.0
    highs = locs.max(axis=1) + 1.0
    bounded = np.array([True] * 6 + [False] * 3)
    batched = BatchedMixtureOfTruncatedNormals(locs, scales, weights, lows, highs, bounded=bounded)
    return batched, weights


@pytest.fixture(scope="module")
def mixture_batch(mixture_case):
    return mixture_case[0]


class TestMixtureRowEquivalence:
    def test_bulk_samples_bit_identical_to_per_object_mixture(self, mixture_case):
        mixture_batch, raw_weights = mixture_case
        size = mixture_batch.batch_size
        references = [_mixture_reference(mixture_batch, i, raw_weights) for i in range(size)]
        bulk_rngs, ref_rngs = _streams(range(100, 100 + size)), _streams(range(100, 100 + size))
        for _ in range(40):
            bulk = mixture_batch.sample_rows(bulk_rngs)
            expected = [float(references[i].sample(ref_rngs[i])) for i in range(size)]
            assert bulk.tolist() == expected
        assert _states(bulk_rngs) == _states(ref_rngs)

    def test_bulk_log_prob_bit_identical_to_per_object_mixture(self, mixture_case):
        mixture_batch, raw_weights = mixture_case
        size = mixture_batch.batch_size
        references = [_mixture_reference(mixture_batch, i, raw_weights) for i in range(size)]
        # Per row: a grid reaching past the support on both sides.
        bounded = mixture_batch.bounded
        lows = np.where(bounded, mixture_batch.lows - 0.5, mixture_batch.locs.min(axis=1) - 3.0)
        highs = np.where(bounded, mixture_batch.highs + 0.5, mixture_batch.locs.max(axis=1) + 3.0)
        for values in np.linspace(lows, highs, 31):
            expected = [float(references[i].log_prob(values[i])) for i in range(size)]
            assert mixture_batch.log_prob_rows(values).tolist() == expected

    def test_outside_support_is_minus_inf_on_bounded_rows(self, mixture_batch):
        scores = mixture_batch.log_prob_rows(mixture_batch.locs.max(axis=1) + 1.5)
        assert np.all(scores[mixture_batch.bounded] == -np.inf)
        assert np.all(np.isfinite(scores[~mixture_batch.bounded]))

    def test_bulk_rows_match_row_distribution_on_the_same_stream(self, mixture_batch):
        size = mixture_batch.batch_size
        bulk_rngs, row_rngs = _streams(range(size)), _streams(range(size))
        bulk = mixture_batch.sample_rows(bulk_rngs)
        rows = [mixture_batch.row_distribution(i) for i in range(size)]
        assert all(isinstance(row, Mixture) for row in rows)
        assert bulk.tolist() == [float(rows[i].sample(row_rngs[i])) for i in range(size)]
        assert _states(bulk_rngs) == _states(row_rngs)
        # row_distribution normalises the already-normalised weight row once
        # more, which may move a density by an ulp.
        assert np.allclose(
            mixture_batch.log_prob_rows(bulk),
            [float(rows[i].log_prob(bulk[i])) for i in range(size)],
            rtol=1e-13,
            atol=0.0,
        )

    def test_samples_stay_inside_bounds(self, mixture_batch):
        rngs = _streams(range(1000, 1000 + mixture_batch.batch_size))
        draws = np.stack([mixture_batch.sample_rows(rngs) for _ in range(20)], axis=1)
        bounded = mixture_batch.bounded
        assert np.all(draws[bounded] >= mixture_batch.lows[bounded, None])
        assert np.all(draws[bounded] <= mixture_batch.highs[bounded, None])


class TestDegenerateAndEdgeCases:
    def test_one_row_batch(self):
        raw_weights = np.array([[0.6, 0.4]])
        batch = BatchedMixtureOfTruncatedNormals(
            [[0.0, 1.0]], [[0.5, 0.5]], raw_weights, [-2.0], [2.0]
        )
        assert batch.batch_size == 1
        reference = _mixture_reference(batch, 0, raw_weights)
        rng_a, rng_b = RandomState(5), RandomState(5)
        value = batch.sample_rows([rng_a])
        assert value.shape == (1,)
        assert float(value[0]) == float(reference.sample(rng_b))
        assert float(batch.log_prob_rows(value)[0]) == float(reference.log_prob(value[0]))

    def test_far_tail_rows_have_finite_density(self):
        # Z underflows for the far-tail row; log_prob must stay finite inside
        # the interval (the same 1e-300 floor TruncatedNormal applies).
        batch = BatchedMixtureOfTruncatedNormals(
            [[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]],
            [[0.5, 0.5], [0.5, 0.5]], [40.0, -1.0], [41.0, 1.0]
        )
        assert np.all(np.isfinite(batch.log_prob_rows([40.5, 0.0])))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BatchedMixtureOfTruncatedNormals([[0.0]], [[0.0]], [[1.0]], [-1.0], [1.0])
        with pytest.raises(ValueError):
            BatchedMixtureOfTruncatedNormals([[0.0]], [[1.0]], [[-1.0]], [-1.0], [1.0])
        with pytest.raises(ValueError):
            BatchedMixtureOfTruncatedNormals([[0.0]], [[1.0]], [[1.0]], [1.0], [-1.0])
        with pytest.raises(ValueError):
            BatchedCategorical([[0.5, -0.5]])
        with pytest.raises(ValueError):
            BatchedCategorical([0.5, 0.5])  # not a matrix

    def test_sample_rows_wrong_rng_count(self, mixture_batch):
        with pytest.raises(ValueError):
            mixture_batch.sample_rows([RandomState(0)] * (mixture_batch.batch_size + 1))


class TestBatchedCategorical:
    def test_rows_match_per_object_categoricals(self):
        rng = np.random.default_rng(2)
        probs = np.abs(rng.normal(size=(5, 4))) + 0.01
        batch = BatchedCategorical(probs)
        references = [Categorical(probs[index]) for index in range(5)]
        bulk_rngs, ref_rngs = _streams(range(5)), _streams(range(5))
        for _ in range(25):
            bulk = batch.sample_rows(bulk_rngs)
            assert bulk.tolist() == [references[i].sample(ref_rngs[i]) for i in range(5)]
        assert _states(bulk_rngs) == _states(ref_rngs)
        for value in (-1, 0, 3, 4):
            assert batch.log_prob_rows(np.full(5, value)).tolist() == [
                float(reference.log_prob(value)) for reference in references
            ]

    def test_bulk_log_prob_handles_out_of_range(self):
        batch = BatchedCategorical([[0.5, 0.5], [0.2, 0.8]])
        out = batch.log_prob_rows([1, 5])
        assert np.isfinite(out[0]) and out[1] == -np.inf

    def test_batch_is_discrete(self):
        batch = BatchedCategorical([[0.5, 0.5]])
        assert batch.discrete and batch.row_distribution(0).discrete


class TestRowDistributionSurface:
    def test_moments_and_serialisation_of_the_stand_alone_row(self, mixture_case):
        mixture_batch, raw_weights = mixture_case
        index = 1
        row = mixture_batch.row_distribution(index)
        reference = _mixture_reference(mixture_batch, index, raw_weights)
        assert row.mean == pytest.approx(reference.mean)
        assert row.variance == pytest.approx(reference.variance)
        # Serialisation: identical components; weights agree up to Mixture's
        # re-normalisation of the already-normalised row (1 ulp).
        row_dict, ref_dict = row.to_dict(), reference.to_dict()
        assert row_dict["components"] == ref_dict["components"]
        assert row_dict["weights"] == pytest.approx(ref_dict["weights"], rel=1e-12)


def _sample_percall(batch, rngs):
    return sample_rows_percall(batch, [rng.generator for rng in rngs])


class TestChoiceKernels:
    """Inverse-CDF draws must be a bit-exact drop-in for per-call ``choice``.

    ``Generator.choice(p=...)`` is itself inverse-CDF sampling on a single
    ``random()`` draw, so the vectorised kernel can (and must) reproduce both
    the drawn index and the post-draw generator state of the per-call
    reference (``tests/reference_kernels.sample_rows_percall``) exactly —
    which is what keeps every seeded posterior unperturbed.
    """

    def _categorical_batch(self):
        rng = np.random.default_rng(11)
        return BatchedCategorical(np.abs(rng.normal(size=(7, 5))) + 0.01)

    @staticmethod
    def _assert_draws_and_stream_states_identical(batch):
        # Every row on every seed: same index drawn, and both kernels leave
        # the generator in the same state (one random() draw consumed).
        for seed in range(10):
            rngs_fast = _streams([seed] * batch.batch_size)
            rngs_ref = _streams([seed] * batch.batch_size)
            for _ in range(3):
                assert np.array_equal(batch.sample_rows(rngs_fast), _sample_percall(batch, rngs_ref))
            assert _states(rngs_fast) == _states(rngs_ref)

    def test_categorical_draws_and_stream_state_identical(self):
        self._assert_draws_and_stream_states_identical(self._categorical_batch())

    def _mixture_batch(self):
        rng = np.random.default_rng(12)
        batch, components = 8, 4
        locs = rng.normal(size=(batch, components))
        scales = np.abs(rng.normal(size=(batch, components))) + 0.1
        weights = np.abs(rng.normal(size=(batch, components))) + 0.05
        lows = locs.min(axis=1) - 0.5
        highs = locs.max(axis=1) + 0.5
        bounded = np.array([True] * 5 + [False] * 3)
        return BatchedMixtureOfTruncatedNormals(locs, scales, weights, lows, highs, bounded=bounded)

    def test_mixture_draws_and_stream_state_identical(self):
        self._assert_draws_and_stream_states_identical(self._mixture_batch())

    def test_inverse_cdf_matches_per_object_distributions(self):
        # Transitivity check straight against the per-object reference the
        # engine equivalence rests on: Categorical and Mixture objects.
        rng = np.random.default_rng(13)
        probs = np.abs(rng.normal(size=(4, 6))) + 0.01
        fast = BatchedCategorical(probs)
        references = [Categorical(probs[index]) for index in range(4)]
        for seed in range(8):
            assert fast.sample_rows(_streams([seed] * 4)).tolist() == [
                reference.sample(RandomState(seed)) for reference in references
            ]


class TestRowGatheredNdtriSampling:
    """Regression guard for the row-batched truncated-normal inversion.

    ``sample_rows`` inverts every bounded row's quantile through one clipped
    ``ndtri`` call over row-gathered arrays (the ROADMAP leftover).  The
    contract is the per-object mixture's: identical outputs AND identical
    generator states afterwards, for any mix of bounded/unbounded rows.
    """

    @staticmethod
    def _mixed_batch():
        rng = np.random.default_rng(11)
        batch, components = 12, 4
        locs = rng.normal(size=(batch, components))
        scales = np.abs(rng.normal(size=(batch, components))) + 0.1
        weights = np.abs(rng.normal(size=(batch, components))) + 0.05
        lows = locs.min(axis=1) - 0.5
        highs = locs.max(axis=1) + 0.5
        bounded = (np.arange(batch) % 3) != 0  # interleaved bounded/unbounded
        batched = BatchedMixtureOfTruncatedNormals(locs, scales, weights, lows, highs, bounded=bounded)
        return batched, weights

    @pytest.mark.parametrize("choice_kernel", ["inverse_cdf", "percall"])
    def test_bulk_outputs_and_rng_states_match_per_object_mixtures(self, choice_kernel):
        batch, raw_weights = self._mixed_batch()
        sample = batch.sample_rows if choice_kernel == "inverse_cdf" else partial(_sample_percall, batch)
        size = batch.batch_size
        references = [_mixture_reference(batch, i, raw_weights) for i in range(size)]
        bulk_rngs, ref_rngs = _streams(range(500, 500 + size)), _streams(range(500, 500 + size))
        bulk = sample(bulk_rngs)
        assert bulk.tolist() == [float(references[i].sample(ref_rngs[i])) for i in range(size)]
        # Generator state must be untouched by the batching: the next draw of
        # every stream agrees bit for bit with the per-object mixture's.
        assert _states(bulk_rngs) == _states(ref_rngs)
        for bulk_rng, ref_rng in zip(bulk_rngs, ref_rngs):
            assert bulk_rng.random() == ref_rng.random()

    def test_all_bounded_and_all_unbounded_batches(self):
        rng = np.random.default_rng(12)
        locs = rng.normal(size=(5, 3))
        scales = np.abs(rng.normal(size=(5, 3))) + 0.2
        weights = np.ones((5, 3))
        for bounded in (np.ones(5, dtype=bool), np.zeros(5, dtype=bool)):
            batch = BatchedMixtureOfTruncatedNormals(
                locs, scales, weights, locs.min(axis=1) - 1, locs.max(axis=1) + 1, bounded=bounded
            )
            bulk = batch.sample_rows(_streams(range(40, 45)))
            references = [_mixture_reference(batch, i, weights) for i in range(5)]
            assert bulk.tolist() == [
                float(references[i].sample(RandomState(40 + i))) for i in range(5)
            ]


class TestStreamOnlyLoop:
    """``sample_rows`` loops only over generator calls and does the rest in
    array passes; each row still makes exactly the calls its stand-alone
    distribution makes, in the same order, so values and post-draw generator
    states match ``row_distribution(i).sample`` on the same stream."""

    @staticmethod
    def _mixture(bounded, components=4, right_tail=False):
        rng = np.random.default_rng(21)
        batch = bounded.shape[0]
        locs = rng.normal(size=(batch, components))
        scales = np.abs(rng.normal(size=(batch, components))) + 0.1
        weights = np.abs(rng.normal(size=(batch, components))) + 0.05
        if right_tail:
            # The interval sits right of every component mean: alpha >= 0.
            lows = locs.max(axis=1) + 0.3
            highs = lows + 2.0
        else:
            lows = locs.min(axis=1) - 0.5
            highs = locs.max(axis=1) + 0.5
        return BatchedMixtureOfTruncatedNormals(locs, scales, weights, lows, highs, bounded=bounded)

    @staticmethod
    def _assert_rows_match_row_distributions(batch, draws=25):
        size = batch.batch_size
        rows = [batch.row_distribution(i) for i in range(size)]
        bulk_rngs, row_rngs = _streams(range(300, 300 + size)), _streams(range(300, 300 + size))
        for _ in range(draws):
            bulk = batch.sample_rows(bulk_rngs)
            assert bulk.tolist() == [float(rows[i].sample(row_rngs[i])) for i in range(size)]
            assert _states(bulk_rngs) == _states(row_rngs)

    @pytest.mark.parametrize("components", [1, 4], ids=["K=1", "K=4"])
    @pytest.mark.parametrize("layout", ["all_bounded", "all_unbounded", "mixed"])
    def test_mixture_rows_match_row_distribution(self, layout, components):
        bounded = {
            "all_bounded": np.ones(10, dtype=bool),
            "all_unbounded": np.zeros(10, dtype=bool),
            "mixed": np.arange(10) % 3 != 0,
        }[layout]
        self._assert_rows_match_row_distributions(self._mixture(bounded, components))

    def test_right_tail_rows_match_row_distribution(self):
        batch = self._mixture(np.ones(10, dtype=bool), right_tail=True)
        assert np.all(batch._alphas >= 0)
        self._assert_rows_match_row_distributions(batch)

    def test_one_shared_stream_is_consumed_row_by_row(self):
        batch = self._mixture(np.arange(10) % 2 == 0)
        shared, reference = RandomState(8), RandomState(8)
        bulk = batch.sample_rows(shared)
        rows = [batch.row_distribution(i) for i in range(batch.batch_size)]
        assert bulk.tolist() == [float(row.sample(reference)) for row in rows]
        assert _states([shared]) == _states([reference])


class TestLogProbTotal:
    @pytest.mark.parametrize(
        "distribution, value",
        [
            (Normal(0.3, 1.2), 0.7),
            (TruncatedNormal(0.0, 1.0, -1.0, 1.0), 2.0),
            (Categorical([0.2, 0.8]), 1),
            (Mixture([Normal(0.0, 1.0), Normal(1.0, 0.5)], [0.4, 0.6]), 0.2),
            (Normal(np.array([0.3]), 1.2), np.array([0.7])),
            (
                Normal(np.random.default_rng(4).normal(size=(8, 11, 11)), 0.4),
                np.random.default_rng(5).normal(size=(8, 11, 11)),
            ),
        ],
        ids=["0-d", "0-d -inf", "categorical", "mixture", "one element", "voxel grid"],
    )
    def test_bit_equal_to_summed_log_prob(self, distribution, value):
        total = log_prob_total(distribution, value)
        assert type(total) is float
        assert total.hex() == float(np.sum(distribution.log_prob(value))).hex()
