"""Tests for the NN module system: modules, layers, containers, LSTM."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F
from repro.tensor import nn


class TestModuleSystem:
    def test_parameter_registration(self):
        layer = nn.Linear(3, 2)
        names = [name for name, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]
        assert layer.num_parameters() == 3 * 2 + 2

    def test_nested_module_names(self):
        net = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        names = [name for name, _ in net.named_parameters()]
        assert "0.weight" in names and "2.bias" in names

    def test_zero_grad(self):
        layer = nn.Linear(2, 2)
        out = layer(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = nn.Linear(3, 2)
        b = nn.Linear(3, 2)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)
        assert np.allclose(a.bias.data, b.bias.data)

    def test_state_dict_strict_mismatch_raises(self):
        a = nn.Linear(3, 2)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": a.weight.data})

    def test_state_dict_shape_mismatch_raises(self):
        a = nn.Linear(3, 2)
        state = a.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(1)


class TestLayers:
    def test_linear_shapes_and_no_bias(self):
        layer = nn.Linear(4, 3, bias=False)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)
        assert layer.bias is None
        assert layer.num_parameters() == 12

    def test_activation_modules(self):
        x = Tensor(np.array([[-1.0, 2.0]]))
        assert np.allclose(nn.ReLU()(x).data, [[0.0, 2.0]])

    def test_flatten(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert nn.Flatten()(x).shape == (2, 12)

    def test_conv3d_module_output_shape_helper(self):
        conv = nn.Conv3d(1, 4, kernel_size=3, padding=1)
        assert conv.output_shape((8, 8, 8)) == (8, 8, 8)
        out = conv(Tensor(np.zeros((2, 1, 8, 8, 8))))
        assert out.shape == (2, 4, 8, 8, 8)

    def test_maxpool3d_module(self):
        pool = nn.MaxPool3d(2)
        assert pool.output_shape((8, 8, 8)) == (4, 4, 4)
        out = pool(Tensor(np.zeros((1, 1, 8, 8, 8))))
        assert out.shape == (1, 1, 4, 4, 4)

    def test_conv3d_no_bias(self):
        conv = nn.Conv3d(1, 2, kernel_size=3, bias=False)
        assert conv.bias is None


class TestContainers:
    def test_sequential_applies_in_order(self):
        net = nn.Sequential(nn.Linear(2, 3), nn.ReLU(), nn.Linear(3, 1))
        out = net(Tensor(np.ones((4, 2))))
        assert out.shape == (4, 1)
        assert [type(m).__name__ for m in net] == ["Linear", "ReLU", "Linear"]

    def test_module_list(self):
        modules = nn.ModuleList([nn.Linear(2, 2) for _ in range(3)])
        assert [m.num_parameters() for m in modules] == [6, 6, 6]
        modules.append(nn.Linear(2, 2))
        assert len(list(modules)) == 4
        total = sum(m.num_parameters() for m in modules)
        assert modules.num_parameters() == total

    def test_module_dict_basic(self):
        d = nn.ModuleDict()
        d["layer.a"] = nn.Linear(2, 2)
        d["layer.b"] = nn.Linear(2, 2)
        assert "layer.a" in d and "layer.b" in d
        assert "missing" not in d
        assert len(d) == 2
        assert d["layer.a"] is not d["layer.b"]

    def test_module_dict_keys_with_dots_do_not_break_parameter_names(self):
        d = nn.ModuleDict()
        d["file.py:fn:12"] = nn.Linear(2, 2)
        names = [name for name, _ in d.named_parameters()]
        assert all(name.count(".") == 1 for name in names)

    def test_module_dict_sanitisation_collisions(self):
        d = nn.ModuleDict()
        d["a.b"] = nn.Linear(1, 1)
        d["a_b"] = nn.Linear(1, 1)
        assert d["a.b"] is not d["a_b"]
        assert len(d) == 2


#: ragged step widths of a packed sequence: sequence lengths 5, 4, 2, 2, 1
RAGGED_SIZES = [5, 4, 4, 2, 1]


def stepped(lstm, x, batch_sizes):
    """``LSTM.step`` over the packed layout: each step continues the first
    ``batch_sizes[t]`` rows of the state; the outputs are stacked in rows."""
    state = lstm.initial_state(batch_sizes[0])
    outputs, start = [], 0
    for size in batch_sizes:
        state = [(h[:size], c[:size]) for h, c in state]
        out, state = lstm.step(x[start : start + size], state)
        outputs.append(out)
        start += size
    return Tensor.cat(outputs, axis=0)


class TestLSTM:
    def test_lstm_cell_step_shapes(self):
        cell = nn.LSTMCell(4, 6)
        h, c = cell(Tensor(np.zeros((3, 4))))
        assert h.shape == (3, 6) and c.shape == (3, 6)

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_forward_equals_step_on_ragged_shrinking_batches(self, num_layers):
        lstm = nn.LSTM(3, 5, num_layers=num_layers)
        x = Tensor(np.random.default_rng(0).standard_normal((sum(RAGGED_SIZES), 3)))
        out = lstm(x, RAGGED_SIZES)
        assert out.shape == (sum(RAGGED_SIZES), 5)
        np.testing.assert_allclose(out.data, stepped(lstm, x, RAGGED_SIZES).data, rtol=1e-12, atol=1e-14)

    def test_forward_is_one_node_per_layer(self):
        lstm = nn.LSTM(3, 4, num_layers=2)
        x = Tensor(np.ones((sum(RAGGED_SIZES), 3)), requires_grad=True)
        out = lstm(x, RAGGED_SIZES)
        bottom, top = lstm.cells
        hidden_1 = out._parents[0]
        assert out._parents[1:] == (top.weight_ih, top.weight_hh, top.bias_ih, top.bias_hh)
        assert hidden_1._parents == (x, bottom.weight_ih, bottom.weight_hh, bottom.bias_ih, bottom.bias_hh)

    def test_lstm_requires_positive_layers(self):
        with pytest.raises(ValueError):
            nn.LSTM(3, 5, num_layers=0)

    def test_forward_gradients_reach_every_cell_and_equal_step(self):
        weights = np.random.default_rng(1).standard_normal((sum(RAGGED_SIZES), 4))
        x_data = np.random.default_rng(2).standard_normal((sum(RAGGED_SIZES), 3))
        lstm = nn.LSTM(3, 4, num_layers=2)
        grads = []
        for run in (lambda x: lstm(x, RAGGED_SIZES), lambda x: stepped(lstm, x, RAGGED_SIZES)):
            lstm.zero_grad()
            x = Tensor(x_data, requires_grad=True)
            (run(x) * Tensor(weights)).sum().backward()
            grads.append([x.grad] + [p.grad for p in lstm.parameters()])
        assert all(g is not None for g in grads[0])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_lstm_forgets_with_zero_input(self):
        lstm = nn.LSTM(2, 3)
        out1, state = lstm.step(Tensor(np.ones((1, 2))))
        out2, _ = lstm.step(Tensor(np.ones((1, 2))), state)
        assert not np.allclose(out1.data, out2.data)


class TestInit:
    def test_kaiming_uniform_shape(self):
        assert nn.init.kaiming_uniform((8, 4, 3, 3, 3)).shape == (8, 4, 3, 3, 3)

    def test_uniform(self):
        u = nn.init.uniform((100,), -2.0, -1.0)
        assert u.min() >= -2.0 and u.max() <= -1.0
