"""Tests for optimizers and learning-rate schedules."""

import numpy as np
import pytest

from repro.tensor import Tensor, nn, optim
from repro.tensor.nn.module import Parameter
from repro.tensor.optim import larc as larc_module

import reference_kernels as ref


def make_regression(seed=0, n=64):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    true_w = np.array([[1.5, -2.0, 0.5]])
    y = x @ true_w.T + 0.3
    return x, y


def mean_squared_error(prediction, target):
    diff = prediction - Tensor(target)
    return (diff * diff).sum() * (1.0 / diff.size)


def fit(optimizer_factory, iterations=300, seed=0):
    x, y = make_regression(seed)
    layer = nn.Linear(3, 1)
    opt = optimizer_factory(layer)
    for _ in range(iterations):
        opt.zero_grad()
        loss = mean_squared_error(layer(Tensor(x)), y)
        loss.backward()
        opt.step()
    return float(loss.item()), layer


class TestSGD:
    def test_plain_sgd_converges(self):
        loss, _ = fit(lambda m: ref.SGD(m.parameters(), lr=0.05), iterations=500)
        assert loss < 1e-3

    def test_momentum_speeds_convergence(self):
        loss_plain, _ = fit(lambda m: ref.SGD(m.parameters(), lr=0.01), iterations=100)
        loss_momentum, _ = fit(lambda m: ref.SGD(m.parameters(), lr=0.01, momentum=0.9), iterations=100)
        assert loss_momentum < loss_plain

    def test_weight_decay_shrinks_weights(self):
        _, no_decay = fit(lambda m: ref.SGD(m.parameters(), lr=0.05), iterations=200)
        _, decay = fit(lambda m: ref.SGD(m.parameters(), lr=0.05, weight_decay=0.5), iterations=200)
        assert np.linalg.norm(decay.weight.data) < np.linalg.norm(no_decay.weight.data)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            ref.SGD([], lr=-1.0)

    def test_skips_parameters_without_gradients(self):
        layer = nn.Linear(2, 2)
        opt = ref.SGD(layer.parameters(), lr=0.1)
        before = layer.weight.data.copy()
        opt.step()  # no gradients computed
        assert np.allclose(layer.weight.data, before)


class TestAdam:
    def test_adam_converges(self):
        loss, layer = fit(lambda m: optim.Adam(m.parameters(), lr=0.05), iterations=400)
        assert loss < 1e-4
        assert np.allclose(layer.weight.data, [[1.5, -2.0, 0.5]], atol=0.02)

    def test_named_parameter_construction(self):
        layer = nn.Linear(2, 2)
        opt = optim.Adam(list(layer.named_parameters()), lr=0.1)
        assert opt.params == [layer.weight, layer.bias]

    def test_add_param_group_registers_new_parameters(self):
        layer = nn.Linear(2, 2)
        opt = optim.Adam(layer.parameters(), lr=0.1)
        extra = nn.Linear(2, 2)
        opt.add_param_group(extra.parameters())
        assert opt.params == [layer.weight, layer.bias, extra.weight, extra.bias]


def twin_parameters(rng, shapes):
    """Two lists of parameters with equal values: one per optimizer under test."""
    values = [rng.standard_normal(shape) for shape in shapes]
    return [Parameter(value.copy()) for value in values], [Parameter(value.copy()) for value in values]


def assert_bit_equal(params, reference):
    for param, expected in zip(params, reference):
        assert param.data.shape == expected.data.shape
        assert param.data.tobytes() == expected.data.tobytes()


class TestFlatStepMatchesPerTensorReference:
    """Adam steps once over a flat image; every value must be the per-tensor step's, bit for bit."""

    SHAPES = [(3, 4), (5,), (2, 3, 2), (1,), (7,)]

    def run(self, make_flat, make_reference, steps=12, seed=0, grow_at=5):
        rng = np.random.default_rng(seed)
        flat_params, ref_params = twin_parameters(rng, self.SHAPES)
        flat, reference = make_flat(flat_params), make_reference(ref_params)
        for step in range(steps):
            if step == grow_at:  # add_param_group mid-run: fresh moments, t = 0
                new_flat, new_ref = twin_parameters(rng, [(4, 2), (3,)])
                flat.add_param_group(new_flat)
                reference.add_param_group(new_ref)
                flat_params += new_flat
                ref_params += new_ref
            # Some tensors have no gradient on some steps; each keeps its own t.
            present = rng.random(len(flat_params)) < 0.7
            for param, twin, has in zip(flat_params, ref_params, present):
                grad = rng.standard_normal(param.data.shape) if has else None
                param.grad, twin.grad = grad, None if grad is None else grad.copy()
            before = [param.data for param in flat_params]
            snapshot = [data.copy() for data in before]
            flat.step()
            reference.step()
            assert_bit_equal(flat_params, ref_params)
            for data, copy in zip(before, snapshot):
                assert np.array_equal(data, copy)  # rebound, never written in place
            # Each parameter owns its array: one left out of later steps keeps
            # only its own values alive, not the whole image of this step.
            for param, has in zip(flat_params, present):
                assert not has or param.data.base is None

    def test_adam(self):
        self.run(lambda p: optim.Adam(p, lr=0.05), lambda p: ref.PerTensorAdam(p, lr=0.05))

    def test_larc_adam(self, monkeypatch):
        monkeypatch.setattr(larc_module, "TRUST_COEFFICIENT", 0.05)
        self.run(
            lambda p: optim.LARC(optim.Adam(p, lr=0.5)),
            lambda p: ref.PerTensorLARC(ref.PerTensorAdam(p, lr=0.5), trust_coefficient=0.05),
            seed=2,
        )

    def test_a_step_without_gradients_moves_nothing(self):
        layer = nn.Linear(2, 2)
        opt = optim.Adam(layer.parameters(), lr=0.1)
        before = layer.weight.data
        opt.step()
        assert layer.weight.data is before


class TestLARC:
    def test_larc_wraps_adam_and_converges(self):
        # LARC's layer-wise trust ratio slows tiny (1-element) layers such as
        # the bias here, so the tolerance is looser than for plain Adam.
        loss, _ = fit(lambda m: optim.LARC(optim.Adam(m.parameters(), lr=0.05)), iterations=500)
        assert loss < 0.2

    def test_larc_wraps_sgd(self, monkeypatch):
        monkeypatch.setattr(larc_module, "TRUST_COEFFICIENT", 0.1)
        loss, _ = fit(lambda m: optim.LARC(ref.SGD(m.parameters(), lr=0.5)), iterations=500)
        assert loss < 0.5

    def test_larc_clip_limits_effective_rate(self, monkeypatch):
        # With clipping, the per-layer effective LR never exceeds the global LR:
        # a single step moves parameters by at most lr * ||update||.
        monkeypatch.setattr(larc_module, "TRUST_COEFFICIENT", 100.0)
        layer = nn.Linear(4, 4)
        opt = optim.LARC(ref.SGD(layer.parameters(), lr=0.01))
        before = layer.weight.data.copy()
        loss = mean_squared_error(layer(Tensor(np.ones((2, 4)))), np.zeros((2, 4)))
        loss.backward()
        grad_norm = np.linalg.norm(layer.weight.grad)
        opt.step()
        step_norm = np.linalg.norm(layer.weight.data - before)
        assert step_norm <= 0.01 * grad_norm + 1e-12

    def test_larc_exposes_lr_property(self):
        layer = nn.Linear(2, 2)
        larc = optim.LARC(optim.Adam(layer.parameters(), lr=0.1))
        assert larc.lr == pytest.approx(0.1)
        larc.lr = 0.01
        assert larc.base.lr == pytest.approx(0.01)

    def test_larc_add_param_group(self):
        # LARC shares its base's parameter list: the inherited add_param_group
        # registers a parameter with both.
        layer = nn.Linear(2, 2)
        larc = optim.LARC(optim.Adam(layer.parameters(), lr=0.1))
        extra = nn.Linear(2, 2)
        larc.add_param_group(extra.parameters())
        assert larc.params == larc.base.params == [layer.weight, layer.bias, extra.weight, extra.bias]


class TestSchedulers:
    def _optimizer(self, lr=1.0):
        return ref.SGD(nn.Linear(1, 1).parameters(), lr=lr)

    def test_constant(self):
        opt = self._optimizer(0.5)
        sched = optim.ConstantLR(opt)
        for _ in range(5):
            sched.step()
        assert opt.lr == pytest.approx(0.5)

    def test_polynomial_decay_order2_matches_formula(self):
        opt = self._optimizer(5.7e-4)
        sched = optim.PolynomialDecayLR(opt, total_steps=100, end_lr=2e-5, power=2.0)
        for _ in range(50):
            sched.step()
        expected = 2e-5 + (5.7e-4 - 2e-5) * (1 - 0.5) ** 2
        assert opt.lr == pytest.approx(expected)
        for _ in range(100):
            sched.step()
        assert opt.lr == pytest.approx(2e-5)

    def test_polynomial_decay_is_monotone(self):
        opt = self._optimizer(1e-3)
        sched = optim.PolynomialDecayLR(opt, total_steps=20, end_lr=1e-5, power=1.0)
        lrs = [sched.step() for _ in range(20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_polynomial_requires_positive_steps(self):
        with pytest.raises(ValueError):
            optim.PolynomialDecayLR(self._optimizer(), total_steps=0)

    def test_constant_schedule_keeps_the_rate(self):
        opt = self._optimizer(0.3)
        sched = optim.ConstantLR(opt)
        assert sched.step() == pytest.approx(0.3)
        assert opt.lr == pytest.approx(0.3)
