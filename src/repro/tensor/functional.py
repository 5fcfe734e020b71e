"""Functional neural-network operations on :class:`repro.tensor.Tensor`.

This module provides the operations that the Etalumis inference-compilation
network needs beyond elementary arithmetic: numerically stable softmax /
log-softmax / logsumexp, the 3D convolution and 3D max-pooling used by the
observation-embedding CNN (Section 4.3), embedding lookups, dropout, the
negative-log-likelihood helpers, and the fused kernels of the training hot
path.

What reaches BLAS and what does not: ``matmul`` on float64 operands is a
BLAS ``dgemm``; ``np.einsum`` without ``optimize`` is numpy's own C loop and
never reaches BLAS.  The hot kernels are therefore written as explicit GEMMs
with hand-written backward passes, each a single autograd node:

* :func:`conv3d` lowers the convolution to im2col — the padded input's
  sliding windows copied once into a contiguous ``(N, C_in*k^3, D*H*W)``
  matrix that the backward pass reuses — plus one GEMM each for the output,
  the weight gradient and the input gradient (followed by a col2im scatter).
  This is the role the MKL-DNN 3D-convolution path plays in the paper.
* :func:`linear` is ``x @ W.T + b`` as one node, :func:`lstm_cell` is a whole
  LSTM step (one gates buffer, one backward producing all seven gradients)
  and :func:`truncated_normal_mixture_log_prob` is the proposal layers'
  mixture density, each in place of a few dozen elementwise nodes.

The conv3d GEMMs are issued in blocks (see :func:`_gemm_block`): a product
large enough to wake the BLAS thread pool costs every process that runs it
per-thread buffers and, on a host with few cores, milliseconds of thread
wake-ups for microseconds of arithmetic.  Only a layer too wide to split into
blocks of useful width hands its (large) products to BLAS whole.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf as _erf

from repro.tensor.tensor import Tensor, _accumulate, _make

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "logsumexp",
    "softplus",
    "linear",
    "lstm_cell",
    "truncated_normal_mixture_parameters",
    "truncated_normal_mixture_log_prob",
    "dropout",
    "embedding",
    "one_hot",
    "gather",
    "conv3d",
    "max_pool3d",
    "nll_loss",
    "mse_loss",
    "erf",
    "normal_cdf",
    "normal_log_pdf",
]


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))`` with autograd support."""
    value = np.logaddexp(0.0, x.data)
    out = _make(value, (x,))
    if out.requires_grad:
        sig = 1.0 / (1.0 + np.exp(-x.data))
        def _bw(grad):
            _accumulate(x, grad * sig, True)
        out._backward = _bw
    return out


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp along ``axis``."""
    max_val = np.max(x.data, axis=axis, keepdims=True)
    max_val = np.where(np.isfinite(max_val), max_val, 0.0)
    shifted = x.data - max_val
    sum_exp = np.sum(np.exp(shifted), axis=axis, keepdims=True)
    value = np.log(sum_exp) + max_val
    if not keepdims:
        value = np.squeeze(value, axis=axis)
    out = _make(value, (x,))
    if out.requires_grad:
        softmax_val = np.exp(shifted) / sum_exp
        def _bw(grad):
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            _accumulate(x, g * softmax_val, True)
        out._backward = _bw
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable, with autograd)."""
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    value = exp / np.sum(exp, axis=axis, keepdims=True)
    out = _make(value, (x,))
    if out.requires_grad:
        def _bw(grad):
            dot = np.sum(grad * value, axis=axis, keepdims=True)
            _accumulate(x, value * (grad - dot), True)
        out._backward = _bw
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (stable, with autograd)."""
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    log_denominator = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    value = shifted - log_denominator
    out = _make(value, (x,))
    if out.requires_grad:
        softmax_val = np.exp(value)
        def _bw(grad):
            total = np.sum(grad, axis=axis, keepdims=True)
            _accumulate(x, grad - softmax_val * total, True)
        out._backward = _bw
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with PyTorch weight layout ``(out, in)``.

    One autograd node; ``x`` is ``(..., in)`` (a 1-D ``x`` is a single row).
    """
    value = np.matmul(x.data, weight.data.T)
    if bias is not None:
        value += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(value, parents)
    if out.requires_grad:
        def _bw(grad):
            if x.requires_grad:
                _accumulate(x, np.matmul(grad, weight.data), True)
            grad_rows = grad.reshape(-1, weight.data.shape[0])
            if weight.requires_grad:
                x_rows = x.data.reshape(-1, weight.data.shape[1])
                _accumulate(weight, np.matmul(grad_rows.T, x_rows), True)
            if bias is not None and bias.requires_grad:
                _accumulate(bias, grad_rows.sum(axis=0), True)
        out._backward = _bw
    return out


def _sigmoid_(values: np.ndarray) -> None:
    """In-place logistic function, the same arithmetic as ``Tensor.sigmoid``."""
    np.negative(values, out=values)
    np.exp(values, out=values)
    values += 1.0
    np.reciprocal(values, out=values)


def lstm_cell(
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias_ih: Tensor,
    bias_hh: Tensor,
) -> Tuple[Tensor, Tensor]:
    """One fused LSTM step; returns ``(h, c)``.

    ``x`` is ``(B, input)``, the states ``(B, hidden)``, the packed weights
    ``(4*hidden, input|hidden)`` with gate order (input, forget, cell,
    output).  All four gates live in one ``(B, 4*hidden)`` buffer that is
    activated in place and kept for the backward pass.

    The two outputs are two graph nodes with one backward between them:
    ``h`` is recorded as a consumer of ``c``, so its backward runs first,
    hands ``dL/dh`` over through a plain cell and adds its share of
    ``dL/dc`` to ``c``; the backward of ``c`` then produces all seven input
    gradients.  The closures must not reference the tensors they belong to
    (a node that reaches itself is a reference cycle, which only the cyclic
    collector frees — the whole graph would outlive its training step).
    """
    hidden = h_prev.data.shape[-1]
    gates = np.matmul(x.data, weight_ih.data.T)
    gates += bias_ih.data
    recurrent = np.matmul(h_prev.data, weight_hh.data.T)
    recurrent += bias_hh.data
    gates += recurrent
    _sigmoid_(gates[:, : 2 * hidden])
    np.tanh(gates[:, 2 * hidden : 3 * hidden], out=gates[:, 2 * hidden : 3 * hidden])
    _sigmoid_(gates[:, 3 * hidden :])
    i_gate = gates[:, :hidden]
    f_gate = gates[:, hidden : 2 * hidden]
    g_gate = gates[:, 2 * hidden : 3 * hidden]
    o_gate = gates[:, 3 * hidden :]
    c_data = f_gate * c_prev.data
    c_data += i_gate * g_gate
    tanh_c = np.tanh(c_data)

    c_new = _make(c_data, (x, h_prev, c_prev, weight_ih, weight_hh, bias_ih, bias_hh))
    h_new = _make(o_gate * tanh_c, (c_new,))
    if not c_new.requires_grad:
        return h_new, c_new

    grad_h_cell = [None]  # dL/dh, handed from h's backward to c's

    def _bw_h(grad_h):
        grad_h_cell[0] = grad_h
        _accumulate(c_new, grad_h * o_gate * (1.0 - tanh_c * tanh_c), True)

    def _bw_c(grad_c):
        grad_h = grad_h_cell[0]
        grad_gates = np.empty_like(gates)
        np.multiply(grad_c * g_gate, i_gate * (1.0 - i_gate), out=grad_gates[:, :hidden])
        np.multiply(
            grad_c * c_prev.data, f_gate * (1.0 - f_gate), out=grad_gates[:, hidden : 2 * hidden]
        )
        np.multiply(
            grad_c * i_gate, 1.0 - g_gate * g_gate, out=grad_gates[:, 2 * hidden : 3 * hidden]
        )
        if grad_h is None:  # h was never used downstream
            grad_gates[:, 3 * hidden :] = 0.0
        else:
            np.multiply(grad_h * tanh_c, o_gate * (1.0 - o_gate), out=grad_gates[:, 3 * hidden :])
        if x.requires_grad:
            _accumulate(x, np.matmul(grad_gates, weight_ih.data), True)
        if h_prev.requires_grad:
            _accumulate(h_prev, np.matmul(grad_gates, weight_hh.data), True)
        if c_prev.requires_grad:
            _accumulate(c_prev, grad_c * f_gate, True)
        if weight_ih.requires_grad:
            _accumulate(weight_ih, np.matmul(grad_gates.T, x.data), True)
        if weight_hh.requires_grad:
            _accumulate(weight_hh, np.matmul(grad_gates.T, h_prev.data), True)
        grad_bias = grad_gates.sum(axis=0)
        for bias in (bias_ih, bias_hh):
            if bias.requires_grad:
                _accumulate(bias, grad_bias)

    h_new._backward = _bw_h
    c_new._backward = _bw_c
    return h_new, c_new


def dropout(x: Tensor, p: float = 0.5, training: bool = True, rng=None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    from repro.common.rng import get_rng

    generator = (rng or get_rng()).generator
    mask = (generator.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    out = _make(x.data * mask, (x,))
    if out.requires_grad:
        def _bw(grad):
            _accumulate(x, grad * mask, True)
        out._backward = _bw
    return out


def one_hot(indices: Union[np.ndarray, Sequence[int]], num_classes: int) -> Tensor:
    """One-hot encode integer indices into a float tensor."""
    idx = np.asarray(indices, dtype=np.int64)
    out = np.zeros(idx.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return Tensor(out)


def embedding(weight: Tensor, indices: Union[np.ndarray, Sequence[int]]) -> Tensor:
    """Row lookup into an embedding matrix with sparse-style gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    out = _make(weight.data[idx], (weight,))
    if out.requires_grad:
        def _bw(grad):
            full = np.zeros_like(weight.data)
            np.add.at(full, idx, grad)
            _accumulate(weight, full, True)
        out._backward = _bw
    return out


def gather(x: Tensor, indices: Union[np.ndarray, Sequence[int]], axis: int = -1) -> Tensor:
    """Select one element per row along ``axis`` (like ``torch.gather`` with 1 index)."""
    idx = np.asarray(indices, dtype=np.int64)
    expanded = np.expand_dims(idx, axis=axis)
    value = np.take_along_axis(x.data, expanded, axis=axis)
    value = np.squeeze(value, axis=axis)
    out = _make(value, (x,))
    if out.requires_grad:
        def _bw(grad):
            full = np.zeros_like(x.data)
            np.put_along_axis(full, expanded, np.expand_dims(grad, axis=axis), axis=axis)
            _accumulate(x, full, True)
        out._backward = _bw
    return out


def nll_loss(log_probs: Tensor, targets: Union[np.ndarray, Sequence[int]], reduction: str = "mean") -> Tensor:
    """Negative log-likelihood loss over categorical log-probabilities."""
    picked = gather(log_probs, targets, axis=-1)
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def mse_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean-squared-error loss."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_t.detach()
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    if reduction == "none":
        return sq
    raise ValueError(f"unknown reduction {reduction!r}")


_SQRT_2 = float(np.sqrt(2.0))
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
_LOG_SQRT_2PI = 0.5 * float(np.log(2.0 * np.pi))
#: floor on a truncated component's normalising mass Phi(beta) - Phi(alpha)
_MIN_TRUNCATED_MASS = 1e-8


def erf(x: Tensor) -> Tensor:
    """Gauss error function with autograd (d/dx erf = 2/sqrt(pi) exp(-x^2))."""
    value = _erf(x.data)
    out = _make(value, (x,))
    if out.requires_grad:
        deriv = 2.0 / np.sqrt(np.pi) * np.exp(-x.data**2)
        def _bw(grad):
            _accumulate(x, grad * deriv, True)
        out._backward = _bw
    return out


def _standard_normal_cdf(values: np.ndarray) -> np.ndarray:
    """Phi on plain arrays, the same arithmetic as :func:`normal_cdf`."""
    return (_erf(values * (1.0 / _SQRT_2)) + 1.0) * 0.5


def normal_cdf(x: Tensor) -> Tensor:
    """Standard-normal CDF Phi(x), differentiable (d Phi/dx = standard normal pdf).

    Needed by the truncated-normal mixture proposal layers, whose
    normalisation constants Phi(beta) - Phi(alpha) must be differentiated with
    respect to the NN-produced means and scales.
    """
    return (erf(x * (1.0 / _SQRT_2)) + 1.0) * 0.5


def normal_log_pdf(x, loc: Tensor, scale: Tensor) -> Tensor:
    """Log density of Normal(loc, scale) at (non-differentiated) values ``x``."""
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    z = (x_t.detach() - loc) / scale
    return z * z * (-0.5) - scale.log() - _LOG_SQRT_2PI


def truncated_normal_mixture_parameters(
    raw_means: np.ndarray, raw_scales: np.ndarray, logits: np.ndarray, geometry
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(means, scales, log_weights)`` of the proposal mixture, as plain arrays.

    The one definition of how the ``(B, K)`` raw network outputs become
    mixture components: component ``k`` of row ``b`` has mean ``loc_b +
    tanh(raw_mean) * scale_b`` (kept near the prior region) and scale
    ``softplus(raw_scale) * scale_b + min_scale``, weighted by
    ``softmax(logits)``.  ``geometry`` is the rows' prior geometry (any object
    with the attributes of :class:`repro.distributions.geometry.PriorGeometry`).
    Proposal emission builds its distributions from these arrays and
    :func:`truncated_normal_mixture_log_prob` scores under them; the derivative
    of this map lives in that function's backward pass.
    """
    scale = geometry.scales_column
    means = geometry.locs_column + np.tanh(raw_means) * scale
    scales = np.logaddexp(0.0, raw_scales) * scale + geometry.min_scale
    shifted_logits = logits - np.max(logits, axis=-1, keepdims=True)
    log_weights = shifted_logits - np.log(np.sum(np.exp(shifted_logits), axis=-1, keepdims=True))
    return means, scales, log_weights


def truncated_normal_mixture_log_prob(
    raw_means: Tensor,
    raw_scales: Tensor,
    logits: Tensor,
    values: np.ndarray,
    geometry,
) -> Tensor:
    """Per-row log-density of a mixture of (truncated) normals, as one node.

    The proposal layers' density: ``raw_means``/``raw_scales``/``logits`` are
    the ``(B, K)`` network outputs, ``values`` the ``(B, 1)`` recorded draws
    (not differentiated) and ``geometry`` the rows' prior geometry.  The
    components are those of :func:`truncated_normal_mixture_parameters`,
    truncated to ``[low_b, high_b]`` on bounded rows.  Returns the ``(B,)``
    log-densities ``logsumexp_k(log w_k + log p_k(value))``.
    """
    means, scales, log_weights = truncated_normal_mixture_parameters(
        raw_means.data, raw_scales.data, logits.data, geometry
    )
    z = (values - means) / scales
    log_pdf = z * z * (-0.5) - np.log(scales) - _LOG_SQRT_2PI
    truncated = geometry.any_bounded
    if truncated:
        # Truncation: subtract log(Phi(beta) - Phi(alpha)) per component.
        alpha = (geometry.finite_lows_column - means) / scales
        beta = (geometry.finite_highs_column - means) / scales
        mass = _standard_normal_cdf(beta) - _standard_normal_cdf(alpha)
        clamped_mass = np.maximum(mass, _MIN_TRUNCATED_MASS)
        if geometry.all_bounded:
            log_pdf = log_pdf - np.log(clamped_mass)
        else:
            log_pdf = log_pdf - np.log(clamped_mass) * geometry.bounded_mask_column
    joint = log_weights + log_pdf
    max_joint = np.max(joint, axis=-1, keepdims=True)
    max_joint = np.where(np.isfinite(max_joint), max_joint, 0.0)
    exp_joint = np.exp(joint - max_joint)
    sum_exp = np.sum(exp_joint, axis=-1, keepdims=True)
    value = np.squeeze(np.log(sum_exp) + max_joint, axis=-1)

    out = _make(value, (raw_means, raw_scales, logits))
    if out.requires_grad:
        def _bw(grad):
            grad_column = grad.reshape(-1, 1)
            grad_joint = grad_column * (exp_joint / sum_exp)       # responsibilities
            if logits.requires_grad:
                _accumulate(logits, grad_joint - np.exp(log_weights) * grad_column, True)
            if not (raw_means.requires_grad or raw_scales.requires_grad):
                return
            grad_means = grad_joint * z / scales
            grad_scales = grad_joint * (z * z - 1.0) / scales
            if truncated:
                # d(-log mass): only where the clamp passed the mass through.
                grad_mass = -grad_joint / clamped_mass * (mass >= _MIN_TRUNCATED_MASS)
                if not geometry.all_bounded:
                    grad_mass = grad_mass * geometry.bounded_mask_column
                pdf_alpha = np.exp(alpha * alpha * (-0.5)) * (1.0 / _SQRT_2PI)
                pdf_beta = np.exp(beta * beta * (-0.5)) * (1.0 / _SQRT_2PI)
                grad_means += grad_mass * (pdf_alpha - pdf_beta) / scales
                grad_scales += grad_mass * (alpha * pdf_alpha - beta * pdf_beta) / scales
            # Back through truncated_normal_mixture_parameters: tanh and softplus.
            scale = geometry.scales_column
            if raw_means.requires_grad:
                tanh_means = np.tanh(raw_means.data)
                _accumulate(
                    raw_means, grad_means * scale * (1.0 - tanh_means * tanh_means), True
                )
            if raw_scales.requires_grad:
                sigmoid_scales = 1.0 / (1.0 + np.exp(-raw_scales.data))
                _accumulate(raw_scales, grad_scales * scale * sigmoid_scales, True)
        out._backward = _bw
    return out


# --------------------------------------------------------------------------- conv3d
def _triple(value: Union[int, Tuple[int, int, int]]) -> Tuple[int, int, int]:
    if isinstance(value, int):
        return (value, value, value)
    value = tuple(value)
    if len(value) != 3:
        raise ValueError("expected an int or a length-3 tuple")
    return value  # type: ignore[return-value]


#: Largest product (multiply-adds) :func:`conv3d` issues as one ``matmul``
#: when it splits a product.  OpenBLAS hands a GEMM to its thread pool above
#: 262 144 multiply-adds; a block of this size is still tens of microseconds
#: of arithmetic, so the Python loop over blocks costs a few percent at most.
_GEMM_BLOCK_MACS = 200_000
#: Narrowest block worth issuing.  A wide layer (``C_out*K`` above 12 500, e.g.
#: 32 -> 64 or 64 -> 64 channels) would need blocks of a few columns to stay
#: under the threshold, which turns the GEMM into matrix-vector products (10x
#: slower at one column).  Such a product goes to BLAS whole: at the volumes
#: wide layers run on it is large enough to pay for the thread pool, and one
#: threaded call beats many (measured 24 ms vs 77-730 ms for 64 -> 64 on
#: ``(10, 17, 17)`` with both cores busy).
_GEMM_MIN_BLOCK = 16


def _gemm_block(length: int, macs_per_column: int) -> int:
    """Columns of a ``length``-long GEMM axis to issue per ``matmul`` call."""
    block = _GEMM_BLOCK_MACS // macs_per_column
    if block < _GEMM_MIN_BLOCK:
        return length
    return min(length, block)


def conv3d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: Union[int, Tuple[int, int, int]] = 1,
    padding: Union[int, Tuple[int, int, int]] = 0,
) -> Tensor:
    """3D convolution over a ``(N, C_in, D, H, W)`` input.

    ``weight`` has shape ``(C_out, C_in, kD, kH, kW)`` and ``bias`` shape
    ``(C_out,)``.  Lowered to GEMM: the sliding windows of the padded input
    are copied once into the contiguous im2col matrix ``cols`` of shape
    ``(N, K, L)`` with ``K = C_in*kD*kH*kW`` and ``L`` the number of output
    positions, so that sample ``n`` is ``out[n] = W (C_out, K) @ cols[n]`` and
    lands directly in ``(N, C_out, D, H, W)`` layout.  ``cols`` is kept for
    the backward pass: ``dW = sum_n dout[n] @ cols[n].T``,
    ``dcols[n] = W.T @ dout[n]``, and a col2im scatter (one ``bincount`` per
    sample) folds ``dcols`` back onto the input.  Every product is issued in
    blocks along ``L`` of at most ``_GEMM_BLOCK_MACS`` multiply-adds, unless
    the layer is too wide to split usefully (see ``_GEMM_MIN_BLOCK``).
    """
    stride = _triple(stride)
    padding = _triple(padding)
    n, c_in, d, h, w = x.shape
    c_out, c_in_w, kd, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} do not match weight channels {c_in_w}")

    pd, ph, pw = padding
    sd, sh, sw = stride
    padded_shape = (n, c_in, d + 2 * pd, h + 2 * ph, w + 2 * pw)
    interior = (slice(None), slice(None), slice(pd, pd + d), slice(ph, ph + h), slice(pw, pw + w))
    x_pad = x.data
    if pd or ph or pw:
        x_pad = np.zeros(padded_shape)
        x_pad[interior] = x.data
    d_out = (padded_shape[2] - kd) // sd + 1
    h_out = (padded_shape[3] - kh) // sh + 1
    w_out = (padded_shape[4] - kw) // sw + 1
    if d_out <= 0 or h_out <= 0 or w_out <= 0:
        raise ValueError(
            f"conv3d output would be empty for input {(d, h, w)} with kernel {(kd, kh, kw)}"
        )

    k_size = c_in * kd * kh * kw
    length = d_out * h_out * w_out
    # (N, C, D_out, H_out, W_out, kD, kH, kW) window view -> (N, K, L) copy
    windows = sliding_window_view(x_pad, (kd, kh, kw), axis=(2, 3, 4))[:, :, ::sd, ::sh, ::sw]
    cols = np.empty((n, c_in, kd, kh, kw, d_out, h_out, w_out))
    cols[...] = windows.transpose(0, 1, 5, 6, 7, 2, 3, 4)
    cols = cols.reshape(n, k_size, length)
    weight_matrix = weight.data.reshape(c_out, k_size)
    block = _gemm_block(length, c_out * k_size)
    blocks = [slice(start, start + block) for start in range(0, length, block)]

    out_data = np.empty((n, c_out, length))
    for sample in range(n):
        for columns in blocks:
            np.matmul(weight_matrix, cols[sample, :, columns], out=out_data[sample, :, columns])
    if bias is not None:
        out_data += bias.data.reshape(1, c_out, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data.reshape(n, c_out, d_out, h_out, w_out), parents)
    if out.requires_grad:
        def _bw(grad):
            grad = grad.reshape(n, c_out, length)
            if bias is not None and bias.requires_grad:
                _accumulate(bias, grad.sum(axis=(0, 2)), True)
            if weight.requires_grad:
                grad_w = np.zeros((c_out, k_size))
                partial = np.empty((c_out, k_size))
                for sample in range(n):
                    for columns in blocks:
                        np.matmul(grad[sample, :, columns], cols[sample, :, columns].T, out=partial)
                        grad_w += partial
                _accumulate(weight, grad_w.reshape(weight.data.shape), True)
            if x.requires_grad:
                # col2im: windows overlap, so the scatter has to accumulate.
                # Every entry of a sample's ``dcols`` is sent to its flat
                # position in the padded input and one bincount sums them.
                channel, i, j, k, out_d, out_h, out_w = np.ogrid[
                    :c_in, :kd, :kh, :kw, :d_out, :h_out, :w_out
                ]
                _, _, d_pad, h_pad, w_pad = padded_shape
                target = (
                    ((channel * d_pad + out_d * sd + i) * h_pad + out_h * sh + j) * w_pad
                    + out_w * sw
                    + k
                ).ravel()
                volume = c_in * d_pad * h_pad * w_pad
                weight_t = weight_matrix.T
                grad_cols = np.empty((k_size, length))
                grad_x_pad = np.empty((n, volume))
                for sample in range(n):
                    for columns in blocks:
                        np.matmul(weight_t, grad[sample, :, columns], out=grad_cols[:, columns])
                    grad_x_pad[sample] = np.bincount(
                        target, weights=grad_cols.ravel(), minlength=volume
                    )
                grad_x_pad = grad_x_pad.reshape(padded_shape)
                _accumulate(x, grad_x_pad[interior])
        out._backward = _bw
    return out


def max_pool3d(
    x: Tensor,
    kernel_size: Union[int, Tuple[int, int, int]] = 2,
    stride: Optional[Union[int, Tuple[int, int, int]]] = None,
) -> Tensor:
    """3D max pooling over a ``(N, C, D, H, W)`` input.

    ``stride`` defaults to ``kernel_size`` (non-overlapping windows), matching
    the ``MaxPool3D(2)`` layers in the paper's observation embedding.  That
    case is a reshape: each window becomes one row of a ``(..., kD*kH*kW)``
    array, reduced with ``argmax`` (ties go to the first offset in raster
    order, as in the general path) and scattered back through the same index.
    """
    kernel = _triple(kernel_size)
    stride_t = _triple(stride) if stride is not None else kernel
    kd, kh, kw = kernel
    sd, sh, sw = stride_t
    n, c, d, h, w = x.shape
    d_out = (d - kd) // sd + 1
    h_out = (h - kh) // sh + 1
    w_out = (w - kw) // sw + 1
    if d_out <= 0 or h_out <= 0 or w_out <= 0:
        raise ValueError(f"max_pool3d output would be empty for input {(d, h, w)}")

    if stride_t == kernel:
        # Windows tile the (cropped) volume: split every axis into (out, k).
        covered = (slice(None), slice(None), slice(0, d_out * kd), slice(0, h_out * kh), slice(0, w_out * kw))
        split_shape = (n, c, d_out, kd, h_out, kh, w_out, kw)
        window_rows = (
            x.data[covered]
            .reshape(split_shape)
            .transpose(0, 1, 2, 4, 6, 3, 5, 7)
            .reshape(n, c, d_out, h_out, w_out, kd * kh * kw)
        )
        rows_shape = window_rows.shape
        best_offset = np.argmax(window_rows, axis=-1)[..., None]
        out = _make(np.take_along_axis(window_rows, best_offset, axis=-1)[..., 0], (x,))
        if out.requires_grad:
            def _bw(grad):
                grad_rows = np.zeros(rows_shape)
                np.put_along_axis(grad_rows, best_offset, grad[..., None], axis=-1)
                grad_x = np.zeros(x.data.shape)
                grad_x[covered] = (
                    grad_rows.reshape(n, c, d_out, h_out, w_out, kd, kh, kw)
                    .transpose(0, 1, 2, 5, 3, 6, 4, 7)
                    .reshape(n, c, d_out * kd, h_out * kh, w_out * kw)
                )
                _accumulate(x, grad_x, True)
            out._backward = _bw
        return out

    best = np.full((n, c, d_out, h_out, w_out), -np.inf)
    best_offset = np.zeros((n, c, d_out, h_out, w_out), dtype=np.int64)
    offset = 0
    for i in range(kd):
        for j in range(kh):
            for k in range(kw):
                patch = x.data[
                    :,
                    :,
                    i : i + sd * d_out : sd,
                    j : j + sh * h_out : sh,
                    k : k + sw * w_out : sw,
                ]
                better = patch > best
                best = np.where(better, patch, best)
                best_offset = np.where(better, offset, best_offset)
                offset += 1

    out = _make(best, (x,))
    if out.requires_grad:
        def _bw(grad):
            grad_x = np.zeros_like(x.data)
            offset_idx = 0
            for i in range(kd):
                for j in range(kh):
                    for k in range(kw):
                        mask = best_offset == offset_idx
                        grad_x[
                            :,
                            :,
                            i : i + sd * d_out : sd,
                            j : j + sh * h_out : sh,
                            k : k + sw * w_out : sw,
                        ] += grad * mask
                        offset_idx += 1
            _accumulate(x, grad_x, True)
        out._backward = _bw
    return out
