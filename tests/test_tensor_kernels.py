"""The fused tensor kernels: gradients, agreement with the references, lifetime.

``F.conv3d`` (im2col + GEMM), ``F.linear``, ``F.lstm_cell``,
``F.lstm_sequence`` and ``F.truncated_normal_mixture_log_prob`` each replace
a subgraph of elementary autograd nodes with one node and a hand-written
backward.  Every one is checked
here against central finite differences and, to rtol 1e-10 in value and in
every gradient, against the composed / einsum implementation it replaced
(``tests/reference_kernels.py``).  The tape's own contracts ride along: basic
vs integer-array index scatter, in-place accumulation into tape-owned grads,
graphs freed by refcount alone, and conv3d's GEMM blocking.
"""

import gc
import itertools

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.distributions import Categorical, Normal, Uniform
from repro.distributions.geometry import prior_geometry
from repro.ppl import FunctionModel, observe, sample
from repro.ppl.nn import InferenceNetwork
from repro.tensor import Tensor, functional as F, no_grad

from tests import reference_kernels as ref

RNG = np.random.default_rng(7)


# ------------------------------------------------------------------ helpers
def gradients(fn, arrays, wrt):
    """Analytic gradients of ``fn(*tensors).sum()`` w.r.t. the inputs in ``wrt``."""
    tensors = [Tensor(a.copy(), requires_grad=i in wrt) for i, a in enumerate(arrays)]
    fn(*tensors).sum().backward()
    return [tensors[i].grad for i in wrt]


def numeric_gradients(fn, arrays, wrt, eps=1e-6):
    out = []
    for i in wrt:
        work = [a.copy() for a in arrays]
        flat = work[i].reshape(-1)
        grad = np.zeros(flat.size)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + eps
            up = float(fn(*[Tensor(a) for a in work]).sum().item())
            flat[j] = original - eps
            down = float(fn(*[Tensor(a) for a in work]).sum().item())
            flat[j] = original
            grad[j] = (up - down) / (2 * eps)
        out.append(grad.reshape(arrays[i].shape))
    return out


def gradcheck(fn, arrays, wrt=None, tol=1e-5):
    wrt = list(range(len(arrays))) if wrt is None else list(wrt)
    analytic = gradients(fn, arrays, wrt)
    numeric = numeric_gradients(fn, arrays, wrt)
    for index, a, n in zip(wrt, analytic, numeric):
        assert a is not None, f"input {index} received no gradient"
        assert a.shape == n.shape
        scale = max(1e-8, float(np.max(np.abs(n))))
        assert np.max(np.abs(a - n)) / scale < tol, f"input {index}"


def assert_agrees(fused, reference, arrays, wrt=None):
    """Same value and same gradients (rtol 1e-10) from both implementations."""
    wrt = list(range(len(arrays))) if wrt is None else list(wrt)
    with no_grad():
        tensors = [Tensor(a) for a in arrays]
        np.testing.assert_allclose(
            fused(*tensors).data, reference(*tensors).data, rtol=1e-10, atol=1e-12
        )
    for got, want in zip(gradients(fused, arrays, wrt), gradients(reference, arrays, wrt)):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


# ------------------------------------------------------------------- linear
class TestFusedLinear:
    @pytest.mark.parametrize("x_shape", [(5,), (3, 5), (2, 3, 5)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_gradcheck_and_reference(self, x_shape, with_bias):
        arrays = [RNG.standard_normal(x_shape), RNG.standard_normal((4, 5))]
        if with_bias:
            arrays.append(RNG.standard_normal((4,)))
        gradcheck(F.linear, arrays)
        assert_agrees(F.linear, ref.linear, arrays)

    def test_is_one_node(self):
        x = Tensor(RNG.standard_normal((3, 5)), requires_grad=True)
        w = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(RNG.standard_normal((4,)), requires_grad=True)
        assert F.linear(x, w, b)._parents == (x, w, b)

    def test_frozen_input_gets_no_gradient(self):
        x = Tensor(RNG.standard_normal((3, 5)))
        w = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
        F.linear(x, w).sum().backward()
        assert x.grad is None and w.grad.shape == (4, 5)


# --------------------------------------------------------------------- LSTM
def lstm_arrays(batch=3, inputs=4, hidden=5):
    return [
        RNG.standard_normal((batch, inputs)),
        RNG.standard_normal((batch, hidden)),
        RNG.standard_normal((batch, hidden)),
        RNG.standard_normal((4 * hidden, inputs)) * 0.5,
        RNG.standard_normal((4 * hidden, hidden)) * 0.5,
        RNG.standard_normal((4 * hidden,)) * 0.5,
        RNG.standard_normal((4 * hidden,)) * 0.5,
    ]


def both_outputs(cell):
    def fn(*inputs):
        h, c = cell(*inputs)
        return h * 1.5 + c * c
    return fn


def cell_state_only(cell):
    return lambda *inputs: cell(*inputs)[1]


def hidden_only(cell):
    return lambda *inputs: cell(*inputs)[0]


def two_steps_second_h_unused(cell):
    """Step 1 feeds step 2 through (h, c); step 2's ``h`` is dropped."""
    def fn(x, h0, c0, w_ih, w_hh, b_ih, b_hh):
        h1, c1 = cell(x, h0, c0, w_ih, w_hh, b_ih, b_hh)
        _, c2 = cell(x * 0.5, h1, c1, w_ih, w_hh, b_ih, b_hh)
        return c2
    return fn


class TestFusedLSTMCell:
    @pytest.mark.parametrize(
        "use", [both_outputs, cell_state_only, hidden_only, two_steps_second_h_unused]
    )
    def test_gradcheck_all_seven_inputs(self, use):
        gradcheck(use(F.lstm_cell), lstm_arrays())

    @pytest.mark.parametrize(
        "use", [both_outputs, cell_state_only, hidden_only, two_steps_second_h_unused]
    )
    def test_agrees_with_composed_cell(self, use):
        assert_agrees(use(F.lstm_cell), use(ref.lstm_cell), lstm_arrays())

    def test_forward_is_bitwise_the_composed_forward(self):
        # Serving compares posteriors across code paths that all run this
        # kernel; the fused forward keeps the composed arithmetic exactly.
        with no_grad():
            tensors = [Tensor(a) for a in lstm_arrays(batch=6)]
            h, c = F.lstm_cell(*tensors)
            h_ref, c_ref = ref.lstm_cell(*tensors)
        assert np.array_equal(h.data, h_ref.data) and np.array_equal(c.data, c_ref.data)

    def test_initial_state_gets_no_gradient(self):
        arrays = lstm_arrays()
        tensors = [Tensor(a, requires_grad=i >= 3) for i, a in enumerate(arrays)]
        h, c = F.lstm_cell(*tensors)
        (h.sum() + c.sum()).backward()
        assert all(t.grad is None for t in tensors[:3])
        assert all(t.grad is not None for t in tensors[3:])

    def test_no_grad_builds_no_graph(self):
        with no_grad():
            h, c = F.lstm_cell(*[Tensor(a, requires_grad=True) for a in lstm_arrays()])
        assert not h.requires_grad and not c.requires_grad
        assert h._parents == () and c._backward is None


#: ragged, shrinking step widths: full, equal, shrinking by several, a step of one
SEQUENCE_SIZES = [4, 4, 2, 2, 1]


def sequence_arrays(sizes=SEQUENCE_SIZES, inputs=4, hidden=5):
    """``x`` and the four weights, from a generator seeded by the layout."""
    generator = np.random.default_rng(len(sizes))
    return [
        generator.standard_normal((sum(sizes), inputs)),
        generator.standard_normal((4 * hidden, inputs)) * 0.5,
        generator.standard_normal((4 * hidden, hidden)) * 0.5,
        generator.standard_normal((4 * hidden,)) * 0.5,
        generator.standard_normal((4 * hidden,)) * 0.5,
    ]


def weighted_sequence(kernel, sizes=SEQUENCE_SIZES):
    """``kernel``'s hidden states under fixed random output weights (the same
    for every kernel at one layout), so that every row's ``dL/dh`` differs."""
    weights = np.random.default_rng(sum(sizes)).standard_normal((sum(sizes), 5))
    return lambda *inputs: kernel(inputs[0], sizes, *inputs[1:]) * Tensor(weights)


class TestLSTMSequence:
    def test_gradcheck_every_input(self):
        gradcheck(weighted_sequence(F.lstm_sequence), sequence_arrays())

    @pytest.mark.parametrize("sizes", [SEQUENCE_SIZES, [3], [1, 1, 1], [5, 3, 3, 3]])
    def test_agrees_with_a_loop_of_cells(self, sizes):
        arrays = sequence_arrays(sizes)
        # against the fused cell and against the composed one
        assert_agrees(
            weighted_sequence(F.lstm_sequence, sizes),
            weighted_sequence(lambda *a: ref.lstm_sequence(*a, cell=F.lstm_cell), sizes),
            arrays,
        )
        assert_agrees(
            weighted_sequence(F.lstm_sequence, sizes),
            weighted_sequence(ref.lstm_sequence, sizes),
            arrays,
        )

    def test_is_one_node(self):
        tensors = [Tensor(a, requires_grad=True) for a in sequence_arrays()]
        out = F.lstm_sequence(tensors[0], SEQUENCE_SIZES, *tensors[1:])
        assert out.shape == (sum(SEQUENCE_SIZES), 5)
        assert out._parents == tuple(tensors)

    def test_frozen_input_gets_no_gradient(self):
        arrays = sequence_arrays()
        tensors = [Tensor(a, requires_grad=i > 0) for i, a in enumerate(arrays)]
        F.lstm_sequence(tensors[0], SEQUENCE_SIZES, *tensors[1:]).sum().backward()
        assert tensors[0].grad is None
        assert all(t.grad is not None for t in tensors[1:])

    @pytest.mark.parametrize("sizes", [[], [2, 3], [2, 0], [3, 2]])
    def test_rejects_a_bad_layout(self, sizes):
        # empty, growing, a zero-width step, rows that do not add up to x
        with pytest.raises(ValueError):
            F.lstm_sequence(Tensor(np.zeros((4, 4))), sizes, *map(Tensor, sequence_arrays()[1:]))


# ------------------------------------------------------------------ mixture
GEOMETRIES = {
    "all_bounded": [Uniform(-1.0, 2.0), Uniform(0.0, 1.0), Uniform(-3.0, -1.0), Uniform(0.5, 4.0)],
    "mixed": [Uniform(-1.0, 2.0), Normal(0.3, 1.2), Uniform(0.0, 1.0), Normal(-1.0, 0.4)],
    "unbounded": [Normal(0.0, 1.0), Normal(0.3, 1.2), Normal(2.0, 0.5), Normal(-1.0, 0.4)],
}
#: one recorded draw per row; for bounded rows the first sits exactly on a bound
VALUES = {
    "all_bounded": [-1.0, 0.4, -1.0, 3.1],
    "mixed": [2.0, 0.1, 0.0, -1.3],
    "unbounded": [0.2, -0.4, 2.5, -1.1],
}


def mixture_fn(kernel, name):
    geometry = prior_geometry(GEOMETRIES[name])
    values = np.asarray(VALUES[name], dtype=float).reshape(-1, 1)

    def fn(raw_means, raw_scales, logits):
        return kernel(raw_means, raw_scales, logits, values, geometry)
    return fn


def mixture_arrays(components=3):
    return [RNG.standard_normal((4, components)) for _ in range(3)]


class TestFusedMixtureLogProb:
    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_gradcheck(self, name):
        gradcheck(mixture_fn(F.truncated_normal_mixture_log_prob, name), mixture_arrays())

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_agrees_with_composed_density(self, name):
        assert_agrees(
            mixture_fn(F.truncated_normal_mixture_log_prob, name),
            mixture_fn(ref.truncated_normal_mixture_log_prob, name),
            mixture_arrays(),
        )

    def test_returns_per_row_log_density_of_the_emitted_proposal(self):
        # The density trained on must be the density the engine samples from.
        from repro.ppl.nn.proposals import ProposalNormalMixture

        layer = ProposalNormalMixture(input_dim=6, num_components=3, rng=RandomState(3))
        hidden = Tensor(RNG.standard_normal((4, 6)))
        priors = GEOMETRIES["mixed"]
        values = np.asarray(VALUES["mixed"])
        with no_grad():
            raw = layer._raw_parameters(hidden)
            fused = F.truncated_normal_mixture_log_prob(
                *raw, values.reshape(-1, 1), prior_geometry(priors)
            )
            emitted = ref.proposal_distributions(layer, hidden, priors)
        assert fused.shape == (4,)
        expected = [float(d.log_prob(v)) for d, v in zip(emitted, values)]
        np.testing.assert_allclose(fused.data, expected, rtol=1e-9)

    def test_vanishing_truncated_mass_is_clamped_without_gradient(self):
        # Component far outside a narrow support: mass underflows, the clamp
        # holds the value finite and blocks the gradient through the mass.
        geometry = prior_geometry([Uniform(0.0, 1e-6)])
        values = np.array([[5e-7]])
        arrays = [np.array([[0.0]]), np.array([[-30.0]]), np.array([[0.0]])]
        for kernel in (F.truncated_normal_mixture_log_prob, ref.truncated_normal_mixture_log_prob):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            out = kernel(*tensors, values, geometry)
            out.sum().backward()
            assert np.all(np.isfinite(out.data))
            assert all(np.all(np.isfinite(t.grad)) for t in tensors)


# ------------------------------------------------------------------- conv3d
CONV_CASES = [
    # (x shape, weight shape, stride, padding)
    ((2, 2, 4, 5, 5), (3, 2, 3, 3, 3), 1, 0),
    ((2, 2, 4, 5, 5), (3, 2, 3, 3, 3), 1, 1),
    ((2, 2, 5, 5, 6), (3, 2, 3, 3, 3), 2, 0),
    ((2, 2, 5, 5, 6), (3, 2, 3, 3, 3), 2, 1),
    ((2, 2, 4, 5, 6), (2, 2, 1, 2, 3), 1, 1),          # non-cubic kernel
    ((2, 1, 4, 5, 5), (2, 1, 2, 3, 1), (1, 2, 1), (0, 1, 1)),  # per-axis stride/padding
    ((1, 2, 4, 4, 4), (2, 2, 3, 3, 3), 1, 1),          # N = 1
]


def conv_fn(kernel, stride, padding):
    return lambda x, w, b: kernel(x, w, b, stride=stride, padding=padding)


class TestGemmConv3d:
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
    def test_gradcheck(self, x_shape, w_shape, stride, padding):
        arrays = [
            RNG.standard_normal(x_shape),
            RNG.standard_normal(w_shape),
            RNG.standard_normal((w_shape[0],)),
        ]
        gradcheck(conv_fn(F.conv3d, stride, padding), arrays)

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
    def test_agrees_with_einsum_reference(self, x_shape, w_shape, stride, padding):
        arrays = [
            RNG.standard_normal(x_shape),
            RNG.standard_normal(w_shape),
            RNG.standard_normal((w_shape[0],)),
        ]
        assert_agrees(conv_fn(F.conv3d, stride, padding), conv_fn(ref.conv3d, stride, padding), arrays)

    def test_single_channel_input_that_needs_no_gradient(self):
        # The first layer of the observation CNN: C_in = 1, data input.
        arrays = [
            RNG.standard_normal((3, 1, 4, 5, 5)),
            RNG.standard_normal((4, 1, 3, 3, 3)),
            RNG.standard_normal((4,)),
        ]
        fn = conv_fn(F.conv3d, 1, 1)
        gradcheck(fn, arrays, wrt=[1, 2])
        assert_agrees(fn, conv_fn(ref.conv3d, 1, 1), arrays, wrt=[1, 2])
        x = Tensor(arrays[0])
        w = Tensor(arrays[1], requires_grad=True)
        F.conv3d(x, w, padding=1).sum().backward()
        assert x.grad is None

    def test_no_bias(self):
        arrays = [RNG.standard_normal((2, 2, 4, 4, 4)), RNG.standard_normal((3, 2, 3, 3, 3))]
        gradcheck(lambda x, w: F.conv3d(x, w, padding=1), arrays)

    def test_benchmark_shapes_agree_with_reference(self):
        for x_shape, c_out in (((8, 1, 8, 11, 11), 8), ((8, 8, 4, 5, 5), 16)):
            arrays = [
                RNG.standard_normal(x_shape),
                RNG.standard_normal((c_out, x_shape[1], 3, 3, 3)),
                RNG.standard_normal((c_out,)),
            ]
            assert_agrees(conv_fn(F.conv3d, 1, 1), conv_fn(ref.conv3d, 1, 1), arrays)

    def test_channel_mismatch_and_empty_output_raise(self):
        x = Tensor(np.zeros((1, 2, 4, 4, 4)))
        with pytest.raises(ValueError):
            F.conv3d(x, Tensor(np.zeros((1, 3, 3, 3, 3))))
        with pytest.raises(ValueError):
            F.conv3d(x, Tensor(np.zeros((1, 2, 5, 5, 5))))

    def test_every_matmul_stays_below_the_blocking_threshold(self, monkeypatch):
        """Hazard: one GEMM big enough to wake the BLAS thread pool.

        ``(16, 1, 8, 11, 11) -> 8`` as a single product is 3.3 M multiply-adds;
        the kernel must issue it (forward and both gradients) in blocks.
        """
        issued = []
        real_matmul = np.matmul

        def recording_matmul(a, b, *args, **kwargs):
            issued.append((a.shape, b.shape))
            return real_matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording_matmul)
        for x_shape, c_out in (((16, 1, 8, 11, 11), 8), ((16, 8, 4, 5, 5), 16)):
            x = Tensor(RNG.standard_normal(x_shape), requires_grad=True)
            w = Tensor(RNG.standard_normal((c_out, x_shape[1], 3, 3, 3)), requires_grad=True)
            F.conv3d(x, w, padding=1).sum().backward()
        assert issued, "conv3d no longer goes through np.matmul; update this test"
        for a_shape, b_shape in issued:
            assert len(a_shape) == 2 and len(b_shape) == 2
            macs = a_shape[0] * a_shape[1] * b_shape[1]
            assert macs <= F._GEMM_BLOCK_MACS, (a_shape, b_shape)
        # ... and the blocks tile the whole problem: forward + dW + dX each
        # perform N * C_out * K * L multiply-adds.
        expected = 3 * 16 * (8 * 27 * 8 * 11 * 11 + 16 * 216 * 4 * 5 * 5)
        assert sum(a[0] * a[1] * b[1] for a, b in issued) == expected

    def test_block_is_derived_from_the_shapes(self):
        assert F._gemm_block(968, 8 * 27) == F._GEMM_BLOCK_MACS // 216
        assert F._gemm_block(100, 16 * 216) == F._GEMM_BLOCK_MACS // 3456
        assert F._gemm_block(10, 4) == 10                 # never longer than the axis

    def test_wide_layers_are_not_split_into_matrix_vector_products(self, monkeypatch):
        """A layer too wide for a block of ``_GEMM_MIN_BLOCK`` columns goes to BLAS whole."""
        assert F._gemm_block(2890, 16 * 16 * 27) == F._GEMM_BLOCK_MACS // 6912   # still blocked
        assert F._gemm_block(2890, 64 * 64 * 27) == 2890
        assert F._gemm_block(360, 64 * 32 * 27) == 360
        issued = []
        real_matmul = np.matmul

        def recording_matmul(a, b, *args, **kwargs):
            issued.append(b.shape[1])
            return real_matmul(a, b, *args, **kwargs)

        arrays = [
            RNG.standard_normal((1, 32, 3, 4, 4)),
            RNG.standard_normal((64, 32, 3, 3, 3)),
            RNG.standard_normal((64,)),
        ]
        assert_agrees(conv_fn(F.conv3d, 1, 1), conv_fn(ref.conv3d, 1, 1), arrays)
        monkeypatch.setattr(np, "matmul", recording_matmul)
        x, w = Tensor(arrays[0], requires_grad=True), Tensor(arrays[1], requires_grad=True)
        F.conv3d(x, w, padding=1).sum().backward()
        # forward (L columns), dW (K columns), dX (L columns): one call each
        assert issued == [48, 32 * 27, 48]


class TestMaxPool3d:
    """One path for every window layout: a running maximum over the strided
    window-offset views, ties resolved to the first offset in the backward.
    Values are bit-equal to the per-window ``max``; gradients too, except that
    an element shared by overlapping windows sums their parts in offset order."""

    @staticmethod
    def windows(shape, kernel, stride):
        """Every output position's window as index slices, in raster order."""
        out = [(s - k) // st + 1 for s, k, st in zip(shape[2:], kernel, stride)]
        for i, j, k in itertools.product(*(range(o) for o in out)):
            yield (i, j, k), tuple(
                slice(p * st, p * st + kk) for p, st, kk in zip((i, j, k), stride, kernel)
            )

    @classmethod
    def naive(cls, x, kernel, stride=None):
        stride = kernel if stride is None else stride
        n, c = x.shape[:2]
        out_shape = [(s - k) // st + 1 for s, k, st in zip(x.shape[2:], kernel, stride)]
        out = np.empty((n, c, *out_shape))
        for (i, j, k), window in cls.windows(x.shape, kernel, stride):
            out[:, :, i, j, k] = x[(slice(None), slice(None), *window)].reshape(n, c, -1).max(axis=-1)
        return out

    @classmethod
    def naive_grad(cls, x, grad, kernel, stride):
        """Each output's gradient to its window's first maximal element (raster order)."""
        grad_x = np.zeros_like(x)
        n, c = x.shape[:2]
        for (i, j, k), window in cls.windows(x.shape, kernel, stride):
            rows = x[(slice(None), slice(None), *window)].reshape(n, c, -1)
            first = np.argmax(rows, axis=-1)
            for b, ch in itertools.product(range(n), range(c)):
                offset = np.unravel_index(first[b, ch], kernel)
                target = tuple(w.start + o for w, o in zip(window, offset))
                grad_x[(b, ch, *target)] += grad[b, ch, i, j, k]
        return grad_x

    @pytest.mark.parametrize(
        "shape,kernel,stride",
        [
            ((2, 3, 4, 4, 4), 2, None),          # tiled
            ((1, 2, 5, 7, 4), 2, None),          # cropped: the last row/column of windows is partial
            ((2, 1, 4, 6, 6), (1, 2, 3), None),  # tiled, anisotropic
            ((1, 2, 4, 5, 4), 2, 1),             # overlapping
            ((2, 2, 5, 6, 7), (3, 2, 2), (2, 1, 2)),  # overlapping on one axis, cropped
        ],
    )
    def test_value_and_gradient_are_bit_equal_to_naive(self, shape, kernel, stride):
        kernel_t = (kernel,) * 3 if isinstance(kernel, int) else kernel
        stride_t = kernel_t if stride is None else ((stride,) * 3 if isinstance(stride, int) else stride)
        # Its own generator: the overlapping cases compare sums taken in
        # another order at rtol 1e-14, so their draws must not depend on how
        # many draws earlier tests took from the module's RNG.
        generator = np.random.default_rng(7)
        x = generator.standard_normal(shape)
        x[..., ::3] = np.round(x[..., ::3])  # plenty of tied maxima
        tensor = Tensor(x, requires_grad=True)
        out = F.max_pool3d(tensor, kernel, stride=stride)
        assert np.array_equal(out.data, self.naive(x, kernel_t, stride_t))
        grad = generator.standard_normal(out.shape)
        out.backward(grad)
        expected = self.naive_grad(x, grad, kernel_t, stride_t)
        if all(st >= k for st, k in zip(stride_t, kernel_t)):
            assert np.array_equal(tensor.grad, expected)
        else:  # an element in several windows sums their gradients in another order
            np.testing.assert_allclose(tensor.grad, expected, rtol=1e-14, atol=0.0)
        gradcheck(lambda t: F.max_pool3d(t, kernel, stride=stride), [generator.standard_normal(shape)])

    def test_ties_send_the_gradient_to_the_first_offset(self):
        x = Tensor(np.ones((1, 1, 2, 2, 2)), requires_grad=True)
        F.max_pool3d(x, 2).sum().backward()
        expected = np.zeros((1, 1, 2, 2, 2))
        expected[0, 0, 0, 0, 0] = 1.0
        assert np.array_equal(x.grad, expected)
        # overlapping windows break ties the same way: each window's first offset
        y = Tensor(np.ones((1, 1, 3, 3, 3)), requires_grad=True)
        F.max_pool3d(y, 2, stride=1).sum().backward()
        expected = np.zeros((1, 1, 3, 3, 3))
        expected[0, 0, :2, :2, :2] = 1.0
        assert np.array_equal(y.grad, expected)

    def test_cnn_embedding_equals_conv_relu_pool(self):
        """Pool-then-ReLU in the module is the paper's conv -> ReLU -> pool,
        bit for bit, in the embedding and in every gradient."""
        from repro.ppl.nn.embeddings import ObservationEmbedding3DCNN

        embedding = ObservationEmbedding3DCNN((8, 11, 11), embedding_dim=16, rng=RandomState(3))
        assert [type(m).__name__ for m in embedding.network][:3] == ["Conv3d", "MaxPool3d", "ReLU"]
        observations = RNG.standard_normal((5, 8, 11, 11))

        def run(forward):
            embedding.zero_grad()
            inputs = Tensor(observations, requires_grad=True)
            out = forward(inputs)
            out.backward(np.linspace(-1.0, 1.0, out.size).reshape(out.shape))
            grads = {name: p.grad.copy() for name, p in embedding.named_parameters()}
            return out.data, inputs.grad, grads

        out, input_grad, grads = run(embedding)
        ref_out, ref_input_grad, ref_grads = run(
            lambda t: ref.observation_embedding_conv_relu_pool(embedding, t)
        )
        assert np.array_equal(out, ref_out)
        assert np.array_equal(input_grad, ref_input_grad)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


# --------------------------------------------------------------------- tape
class TestTape:
    def test_integer_array_index_with_duplicates_accumulates(self):
        # ``full[idx] += grad`` would count a repeated index once; add.at must stay.
        x = Tensor(np.arange(4.0), requires_grad=True)
        x[np.array([1, 1, 3, 1])].sum().backward()
        assert np.array_equal(x.grad, [0.0, 3.0, 0.0, 1.0])
        y = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        (y[[0, 0, 2], 1] * np.array([1.0, 2.0, 4.0])).sum().backward()
        assert np.array_equal(y.grad, [[0.0, 3.0], [0.0, 0.0], [0.0, 4.0]])

    def test_basic_indices_scatter(self):
        x = Tensor(RNG.standard_normal((4, 6)), requires_grad=True)
        (x[:, 0:2].sum() + x[:, 1:4].sum() * 2.0 + x[1].sum() + x[..., -1].sum() + x[2, 3]).backward()
        expected = np.zeros((4, 6))
        expected[:, 0:2] += 1.0
        expected[:, 1:4] += 2.0
        expected[1] += 1.0
        expected[:, -1] += 1.0
        expected[2, 3] += 1.0
        assert np.array_equal(x.grad, expected)

    def test_boolean_mask_index(self):
        data = np.array([1.0, -2.0, 3.0, -4.0])
        x = Tensor(data, requires_grad=True)
        (x[data > 0] * 2.0).sum().backward()
        assert np.array_equal(x.grad, [2.0, 0.0, 2.0, 0.0])

    def test_shared_incoming_gradient_is_not_aliased(self):
        # a + b hands the same array to both parents; later in-place
        # accumulation into one must not leak into the other.
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = (a + b) + a * 2.0
        out.sum().backward()
        assert np.array_equal(a.grad, [3.0] * 3) and np.array_equal(b.grad, [1.0] * 3)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, out.grad)

    def test_gradients_accumulate_across_backward_calls(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * x).sum().backward()
        (x * 3.0).sum().backward()
        assert np.array_equal(x.grad, [5.0, 7.0])

    def test_explicit_seed_gradient_is_not_mutated(self):
        seed = np.full((2,), 2.0)
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 1.0
        (y + y).backward(seed)
        assert np.array_equal(seed, [2.0, 2.0]) and np.array_equal(x.grad, [4.0, 4.0])

    def test_backward_order_on_a_wide_reconverging_graph(self):
        # Every branch must finish before the shared ancestor's backward runs.
        x = Tensor(np.array([0.5]), requires_grad=True)
        shared = x * 2.0
        branches = [shared * float(k) for k in range(1, 6)]
        deep = branches[0]
        for _ in range(50):
            deep = deep + shared
        total = deep
        for branch in branches[1:]:
            total = total + branch
        total.sum().backward()
        assert np.allclose(x.grad, [2.0 * (1 + 50 + 2 + 3 + 4 + 5)])

    def test_clamp_gradient_and_no_grad_value(self):
        data = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        x = Tensor(data, requires_grad=True)
        x.clamp(-1.0, 1.0).sum().backward()
        assert np.array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])   # bounds pass gradient
        y = Tensor(data, requires_grad=True)
        y.clamp(min_value=0.0).sum().backward()
        assert np.array_equal(y.grad, [0.0, 0.0, 1.0, 1.0, 1.0])
        with no_grad():
            out = x.clamp(-1.0, 1.0)
        assert np.array_equal(out.data, np.clip(data, -1.0, 1.0)) and out._backward is None


# ----------------------------------------------------------------- lifetime
def voxel_program():
    """Two trace types over a (4, 5, 5) voxel observation: every proposal
    family and the 3D-CNN embedding end up in the loss graph."""
    kind = sample(Categorical([0.5, 0.5]), name="kind")
    x = sample(Uniform(-1.0, 1.0), name="x")
    y = sample(Normal(0.0, 1.0), name="y") if int(kind) else 0.0
    observe(Normal(np.full((4, 5, 5), x + y), 0.5), name="detector")
    return x


@pytest.fixture
def voxel_network_and_traces(small_config):
    traces = FunctionModel(voxel_program, name="voxel").prior_traces(8, rng=RandomState(21))
    network = InferenceNetwork(config=small_config, observe_key="detector", rng=RandomState(22))
    network.polymorph(traces)
    return network, traces


class TestGraphLifetime:
    def test_loss_graph_is_freed_by_refcount_alone(self, voxel_network_and_traces):
        """Hazard: a backward closure that reaches its own output tensor.

        Such a node is a reference cycle; the whole graph (im2col matrices,
        gate buffers, every intermediate) then waits for the cyclic collector
        and the training process's peak RSS grows by half.
        """
        network, traces = voxel_network_and_traces
        gc.collect()
        gc.disable()
        try:
            for vectorized in (True, False):
                network.vectorized_loss = vectorized
                network.zero_grad()
                loss = network.loss(traces)
                loss.backward()
                del loss
                network.zero_grad()
                gc.set_debug(gc.DEBUG_SAVEALL)
                try:
                    gc.collect()
                    leaked = [obj for obj in gc.garbage if isinstance(obj, Tensor)]
                finally:
                    gc.set_debug(0)
                    gc.garbage.clear()
                assert not leaked, f"{len(leaked)} tensors were only reachable through a cycle"
        finally:
            gc.enable()
