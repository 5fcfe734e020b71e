"""Gradient-correctness tests for the autograd tensor library.

Every operation used by the IC network is checked against central finite
differences — the reproduction's equivalent of trusting PyTorch's autograd.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F, no_grad


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x, dtype=float)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        up = float(fn(Tensor(x)).sum().item())
        flat_x[i] = original - eps
        down = float(fn(Tensor(x)).sum().item())
        flat_x[i] = original
        flat_g[i] = (up - down) / (2 * eps)
    return grad


def analytic_gradient(fn, x: np.ndarray) -> np.ndarray:
    tensor = Tensor(x.copy(), requires_grad=True)
    fn(tensor).sum().backward()
    return tensor.grad


def check(fn, x: np.ndarray, tol: float = 1e-5):
    analytic = analytic_gradient(fn, x.copy())
    numeric = numeric_gradient(fn, x.copy())
    scale = max(1e-8, float(np.max(np.abs(numeric))))
    assert np.max(np.abs(analytic - numeric)) / scale < tol


RNG = np.random.default_rng(0)


class TestElementwiseGradients:
    def test_add_mul(self):
        check(lambda t: t * 3.0 + t * t, RNG.standard_normal((3, 4)))

    def test_sub_div(self):
        check(lambda t: (t - 1.5) / (t * t + 2.0), RNG.standard_normal((3, 4)))

    def test_neg(self):
        check(lambda t: (-t) * t, RNG.standard_normal((4,)) + 2.0)

    def test_log(self):
        check(lambda t: (t * t + 1.0).log(), RNG.standard_normal((3, 3)))

    def test_tanh_sigmoid(self):
        check(lambda t: t.tanh() * t.sigmoid(), RNG.standard_normal((5,)))

    def test_relu(self):
        x = RNG.standard_normal((10,))
        x[np.abs(x) < 1e-3] = 0.5  # keep away from the kink
        check(lambda t: t.relu() * 2.0, x)

    def test_clamp(self):
        x = RNG.standard_normal((20,)) * 2
        x[np.abs(np.abs(x) - 1.0) < 1e-3] += 0.1
        check(lambda t: t.clamp(-1.0, 1.0) * t, x)

    def test_broadcasting_gradients(self):
        a = RNG.standard_normal((3, 1))
        b = RNG.standard_normal((1, 4))

        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta * tb).sum().backward()
        assert ta.grad.shape == a.shape
        assert tb.grad.shape == b.shape
        assert np.allclose(ta.grad, np.sum(b) * np.ones((3, 1)))
        assert np.allclose(tb.grad, np.sum(a) * np.ones((1, 4)))


class TestMatmulReductionGradients:
    def test_matmul(self):
        w = RNG.standard_normal((4, 5))
        check(lambda t: t @ Tensor(w), RNG.standard_normal((3, 4)))

    def test_matmul_left_grad(self):
        x = RNG.standard_normal((3, 4))
        check(lambda t: Tensor(x) @ t, RNG.standard_normal((4, 5)))

    def test_matvec(self):
        v = RNG.standard_normal((4,))
        check(lambda t: t @ Tensor(v), RNG.standard_normal((3, 4)))

    def test_sum_axis(self):
        check(lambda t: t.sum(axis=1) * 2.0, RNG.standard_normal((3, 4)))

    def test_reshape_transpose(self):
        check(lambda t: (t.reshape(6, 2).T * 2.0), RNG.standard_normal((3, 4)))

    def test_getitem(self):
        check(lambda t: t[1:3] * 3.0, RNG.standard_normal((5, 2)))

    def test_cat(self):
        a = RNG.standard_normal((2, 3))
        check(lambda t: Tensor.cat([t, t * 2.0], axis=1), a)

    def test_stack(self):
        a = RNG.standard_normal((2, 3))
        check(lambda t: Tensor.stack([t, t * t], axis=0), a)


class TestFunctionalGradients:
    def test_softmax(self):
        weights = Tensor(RNG.standard_normal((3, 4)))
        check(lambda t: F.softmax(t, axis=-1) * weights, RNG.standard_normal((3, 4)))

    def test_log_softmax(self):
        check(lambda t: F.log_softmax(t, axis=-1), RNG.standard_normal((3, 4)))

    def test_logsumexp(self):
        check(lambda t: F.logsumexp(t, axis=-1), RNG.standard_normal((3, 4)))

    def test_softplus(self):
        check(lambda t: F.softplus(t), RNG.standard_normal((3, 4)))

    def test_erf(self):
        check(lambda t: F.erf(t), RNG.standard_normal((6,)))

    def test_normal_cdf(self):
        check(lambda t: F.normal_cdf(t), RNG.standard_normal((6,)))

    def test_gather(self):
        idx = np.array([0, 2, 1])
        check(lambda t: F.gather(t, idx, axis=-1), RNG.standard_normal((3, 4)))

    def test_conv3d_input_gradient(self):
        w = RNG.standard_normal((2, 1, 3, 3, 3))
        check(lambda t: F.conv3d(t, Tensor(w), Tensor(np.zeros(2))), RNG.standard_normal((1, 1, 5, 5, 5)))

    def test_conv3d_weight_gradient(self):
        x = RNG.standard_normal((2, 2, 4, 4, 4))
        check(lambda t: F.conv3d(Tensor(x), t, Tensor(np.zeros(3))), RNG.standard_normal((3, 2, 2, 2, 2)))

    def test_conv3d_bias_gradient(self):
        x = RNG.standard_normal((1, 1, 4, 4, 4))
        w = RNG.standard_normal((2, 1, 3, 3, 3))
        check(lambda t: F.conv3d(Tensor(x), Tensor(w), t), RNG.standard_normal((2,)))

    def test_conv3d_with_padding(self):
        w = RNG.standard_normal((2, 1, 3, 3, 3))
        check(
            lambda t: F.conv3d(t, Tensor(w), Tensor(np.zeros(2)), padding=1),
            RNG.standard_normal((1, 1, 5, 5, 5)),
        )

    def test_max_pool3d_gradient(self):
        x = RNG.standard_normal((1, 2, 4, 4, 4))
        check(lambda t: F.max_pool3d(t, 2), x)

    def test_normal_log_pdf_gradients_wrt_parameters(self):
        values = RNG.standard_normal((4, 1))

        def loss_fn(t):
            loc = t[:, 0:1]
            scale = F.softplus(t[:, 1:2]) + 0.1
            return F.normal_log_pdf(values, loc, scale)

        check(loss_fn, RNG.standard_normal((4, 2)))


class TestAutogradMechanics:
    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_backward_requires_grad(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.sum().backward()

    def test_grad_mode_is_thread_local(self):
        # Inference worker threads enter no_grad concurrently; a process-global
        # flag would race and could leave autograd disabled for everyone.
        import threading

        def records_graph() -> bool:
            return Tensor(np.ones(1), requires_grad=True).requires_grad

        seen = {}
        with no_grad():
            worker = threading.Thread(target=lambda: seen.update(worker=records_graph()))
            worker.start()
            worker.join()
            assert records_graph() is False
        assert seen["worker"] is True
        assert records_graph() is True

    def test_gradient_accumulation_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert np.allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2.0
        b = x + 1.0
        (a * b).sum().backward()
        # d/dx (2x * (x+1)) = 4x + 2
        assert np.allclose(x.grad, [4 * 1.5 + 2.0])

    def test_detach_stops_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x.detach() * 5.0
        assert not y.requires_grad

    def test_backward_with_explicit_gradient(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 3.0
        y.backward(np.full((2, 2), 2.0))
        assert np.allclose(x.grad, 6.0)

    def test_deep_chain_does_not_recurse(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 1.0
        y.backward()
        assert np.allclose(x.grad, [1.0])
