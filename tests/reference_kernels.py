"""Reference implementations the fused tensor kernels are checked against.

These are the expressions ``src/repro/tensor`` used before its hot kernels
were fused: the kernel-offset-unrolled ``einsum`` convolution, and the linear
map, LSTM cell and truncated-normal-mixture density composed from elementary
autograd operations.  They are slow and build many graph nodes; they live
here only so that ``tests/test_tensor_kernels.py`` and
``benchmarks/test_tensor_kernels.py`` can require value-and-gradient agreement
with (and a speed-up over) them.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import _accumulate, _make


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` as three graph nodes (transpose, matmul, add)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def lstm_cell(
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias_ih: Tensor,
    bias_hh: Tensor,
) -> Tuple[Tensor, Tensor]:
    """The LSTM step composed from slices and elementwise operations."""
    hs = h_prev.shape[-1]
    gates = linear(x, weight_ih, bias_ih) + linear(h_prev, weight_hh, bias_hh)
    i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
    f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
    g_gate = gates[:, 2 * hs : 3 * hs].tanh()
    o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
    c_new = f_gate * c_prev + i_gate * g_gate
    h_new = o_gate * c_new.tanh()
    return h_new, c_new


def truncated_normal_mixture_log_prob(
    raw_means: Tensor,
    raw_scales: Tensor,
    logits: Tensor,
    values: np.ndarray,
    geometry,
) -> Tensor:
    """The proposal layers' mixture density, one graph node per operation."""
    loc_t = Tensor(geometry.locs_column)
    scale_t = Tensor(geometry.scales_column)
    means = loc_t + raw_means.tanh() * scale_t
    scales = F.softplus(raw_scales) * scale_t + geometry.min_scale
    log_weights = F.log_softmax(logits, axis=-1)
    log_pdf = F.normal_log_pdf(values, means, scales)
    if geometry.any_bounded:
        alpha = (Tensor(geometry.finite_lows_column) - means) / scales
        beta = (Tensor(geometry.finite_highs_column) - means) / scales
        z = (F.normal_cdf(beta) - F.normal_cdf(alpha)).clamp(min_value=1e-8)
        if geometry.all_bounded:
            log_pdf = log_pdf - z.log()
        else:
            log_pdf = log_pdf - z.log() * Tensor(geometry.bounded_mask_column)
    return F.logsumexp(log_weights + log_pdf, axis=-1)


def _triple(value) -> Tuple[int, int, int]:
    return (value, value, value) if isinstance(value, int) else tuple(value)


def conv3d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride=1, padding=0) -> Tensor:
    """3D convolution as one ``einsum`` per kernel offset (27 for a 3x3x3 kernel)."""
    sd, sh, sw = _triple(stride)
    pd, ph, pw = _triple(padding)
    n, c_in, d, h, w = x.shape
    c_out, _, kd, kh, kw = weight.shape
    x_pad = np.pad(x.data, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)), mode="constant")
    d_out = (x_pad.shape[2] - kd) // sd + 1
    h_out = (x_pad.shape[3] - kh) // sh + 1
    w_out = (x_pad.shape[4] - kw) // sw + 1
    offsets = [(i, j, k) for i in range(kd) for j in range(kh) for k in range(kw)]

    def patch(i, j, k):
        return (
            slice(None),
            slice(None),
            slice(i, i + sd * d_out, sd),
            slice(j, j + sh * h_out, sh),
            slice(k, k + sw * w_out, sw),
        )

    out_data = np.zeros((n, c_out, d_out, h_out, w_out))
    for i, j, k in offsets:
        out_data += np.einsum("ncdhw,oc->nodhw", x_pad[patch(i, j, k)], weight.data[:, :, i, j, k])
    if bias is not None:
        out_data += bias.data.reshape(1, c_out, 1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data, parents)
    if out.requires_grad:
        def _bw(grad):
            if bias is not None and bias.requires_grad:
                _accumulate(bias, grad.sum(axis=(0, 2, 3, 4)))
            if weight.requires_grad:
                grad_w = np.zeros_like(weight.data)
                for i, j, k in offsets:
                    grad_w[:, :, i, j, k] = np.einsum("nodhw,ncdhw->oc", grad, x_pad[patch(i, j, k)])
                _accumulate(weight, grad_w)
            if x.requires_grad:
                grad_x_pad = np.zeros_like(x_pad)
                for i, j, k in offsets:
                    grad_x_pad[patch(i, j, k)] += np.einsum(
                        "nodhw,oc->ncdhw", grad, weight.data[:, :, i, j, k]
                    )
                _accumulate(x, grad_x_pad[:, :, pd : pd + d, ph : ph + h, pw : pw + w])
        out._backward = _bw
    return out
