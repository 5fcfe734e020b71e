"""Value/shape tests for tensor operations and factories."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import unbroadcast


class TestTensorBasics:
    def test_construction_defaults_to_float64(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)
        assert t.size == 3
        assert t.ndim == 1

    def test_integer_data_is_preserved(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.data.dtype.kind == "i"

    def test_item_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    def test_factories(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)

    def test_arithmetic_with_scalars_and_arrays(self):
        t = Tensor([1.0, 2.0])
        assert np.allclose((1.0 + t).data, [2.0, 3.0])
        assert np.allclose((2.0 * t).data, [2.0, 4.0])
        assert np.allclose((t + np.array([1.0, 1.0])).data, [2.0, 3.0])

    def test_reshape_and_transpose(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.reshape(2, 6).shape == (2, 6)
        assert t.T.shape == (4, 3)


class TestUnbroadcast:
    def test_noop_when_shapes_match(self):
        grad = np.ones((2, 3))
        assert unbroadcast(grad, (2, 3)).shape == (2, 3)

    def test_sums_over_added_leading_dims(self):
        grad = np.ones((5, 2, 3))
        assert np.allclose(unbroadcast(grad, (2, 3)), np.full((2, 3), 5.0))

    def test_sums_over_size_one_dims(self):
        grad = np.ones((2, 3))
        assert np.allclose(unbroadcast(grad, (2, 1)), np.full((2, 1), 3.0))


class TestFunctionalValues:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 6)))
        s = F.softmax(x, axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_softmax_is_stable_for_large_inputs(self):
        x = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        s = F.softmax(x, axis=-1)
        assert np.all(np.isfinite(s.data))

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 5)))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data))

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp as scipy_lse

        x = np.random.default_rng(1).standard_normal((3, 7))
        assert np.allclose(F.logsumexp(Tensor(x), axis=-1).data, scipy_lse(x, axis=-1))

    def test_softplus_matches_reference(self):
        x = np.array([-50.0, 0.0, 50.0])
        out = F.softplus(Tensor(x)).data
        assert np.allclose(out, np.logaddexp(0, x))

    def test_erf_and_normal_cdf_match_scipy(self):
        from scipy.special import erf as scipy_erf, ndtr

        x = np.linspace(-3, 3, 11)
        assert np.allclose(F.erf(Tensor(x)).data, scipy_erf(x))
        assert np.allclose(F.normal_cdf(Tensor(x)).data, ndtr(x), atol=1e-12)

    def test_gather_picks_indices(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        out = F.gather(x, [0, 1, 3], axis=-1)
        assert np.allclose(out.data, [0.0, 5.0, 11.0])

    def test_linear_matches_manual(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        w = np.random.default_rng(1).standard_normal((2, 3))
        b = np.random.default_rng(2).standard_normal((2,))
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, x @ w.T + b)


class TestConv3dValues:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).standard_normal((1, 1, 4, 4, 4))
        w = np.zeros((1, 1, 1, 1, 1))
        w[0, 0, 0, 0, 0] = 1.0
        out = F.conv3d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        assert np.allclose(out.data, x)

    def test_averaging_kernel(self):
        x = np.ones((1, 1, 3, 3, 3))
        w = np.full((1, 1, 3, 3, 3), 1.0 / 27.0)
        out = F.conv3d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        assert out.shape == (1, 1, 1, 1, 1)
        assert out.item() == pytest.approx(1.0)

    def test_output_shape_with_padding(self):
        x = Tensor(np.zeros((2, 3, 8, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3, 3)))
        out = F.conv3d(x, w, Tensor(np.zeros(4)), padding=1)
        assert out.shape == (2, 4, 8, 8, 8)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv3d(Tensor(np.zeros((1, 2, 4, 4, 4))), Tensor(np.zeros((1, 3, 3, 3, 3))), Tensor(np.zeros(1)))

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            F.conv3d(Tensor(np.zeros((1, 1, 2, 2, 2))), Tensor(np.zeros((1, 1, 3, 3, 3))), Tensor(np.zeros(1)))

    def test_max_pool_values(self):
        x = np.arange(8.0).reshape(1, 1, 2, 2, 2)
        out = F.max_pool3d(Tensor(x), 2)
        assert out.item() == pytest.approx(7.0)

    def test_max_pool_too_small_raises(self):
        with pytest.raises(ValueError):
            F.max_pool3d(Tensor(np.zeros((1, 1, 1, 1, 1))), 2)

    def test_conv3d_matches_scipy_correlate(self):
        from scipy.ndimage import correlate

        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 5, 5))
        w = rng.standard_normal((3, 3, 3))
        ours = F.conv3d(Tensor(x[None, None]), Tensor(w[None, None]), Tensor(np.zeros(1))).data[0, 0]
        reference = correlate(x, w, mode="constant")[1:-1, 1:-1, 1:-1]
        assert np.allclose(ours, reference, atol=1e-10)
