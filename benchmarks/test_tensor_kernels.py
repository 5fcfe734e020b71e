"""Benchmark: the fused tensor kernels vs the implementations they replaced.

Two gates on ``repro.tensor``'s training hot path, both against the retained
references in ``tests/reference_kernels.py``:

* **conv3d** — forward + backward of the GEMM-lowered ``F.conv3d`` must be at
  least ``TENSOR_KERNEL_SPEEDUP_MIN``x (3x on dedicated hardware, relaxed on
  noisy CI runners) faster than the one-``einsum``-per-kernel-offset
  reference at the two shapes the benchmark's 3DCNN runs per 8-trace rank
  step: ``(8, 1, 8, 11, 11) -> 8`` and ``(8, 8, 4, 5, 5) -> 16``.  Those are
  narrow layers, whose products are issued in blocks; the wide layers of
  ``ObservationEmbedding3DCNN.paper_architecture`` (64 -> 64 on the pooled
  ``(10, 17, 17)`` grid, 64 -> 128 on ``(5, 8, 8)``) take the other side of
  ``F._gemm_block`` and must beat the reference too.
* **graph size** — the autograd nodes in the loss graph of one
  ``DistributedTrainer`` rank step, an exact and repeatable count, must be at
  most half of what the same step builds with the composed linear / LSTM-cell
  / mixture-density references patched in.  Both graphs must also agree in
  loss and in every parameter gradient, so the count compares two ways of
  computing the same thing.

Correctness of each kernel on its own (finite differences, every
stride/padding/shape corner) is owned by ``tests/test_tensor_kernels.py``.
"""

import os
import time

import numpy as np

from repro.common.rng import RandomState
from repro.distributed import DistributedTrainer
from repro.ppl.nn import InferenceNetwork
from repro.tensor import Tensor, functional as F

from benchmarks.conftest import BENCH_CONFIG, print_table
from tests import reference_kernels as ref

MIN_SPEEDUP = float(os.environ.get("TENSOR_KERNEL_SPEEDUP_MIN", "3.0"))
MIN_NODE_REDUCTION = 2.0
ROUNDS = 15

CONV_SHAPES = [((8, 1, 8, 11, 11), 8), ((8, 8, 4, 5, 5), 16)]
# Too wide to block (measured 3x and 10-20x; split into matrix-vector products
# the first ran at 0.66x).  The reference takes 0.2-0.7 s a pass here, hence few rounds.
WIDE_CONV_SHAPES = [((1, 64, 10, 17, 17), 64), ((1, 64, 5, 8, 8), 128)]
MIN_WIDE_SPEEDUP = 1.5
WIDE_ROUNDS = 3


def forward_backward_s(conv, x_data, w_data, b_data, x_needs_grad):
    x = Tensor(x_data, requires_grad=x_needs_grad)
    w = Tensor(w_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    start = time.perf_counter()
    conv(x, w, b, padding=1).sum().backward()
    return time.perf_counter() - start


def conv_speedups(shapes, rounds):
    generator = np.random.default_rng(3)
    rows = []
    speedups = []
    for x_shape, c_out in shapes:
        x_data = generator.standard_normal(x_shape)
        w_data = generator.standard_normal((c_out, x_shape[1], 3, 3, 3))
        b_data = generator.standard_normal((c_out,))
        # The first layer reads data, so only the later ones need the input gradient.
        x_needs_grad = x_shape[1] > 1
        # Alternate the two sides so a slow phase of the host hits both.
        reference_s = gemm_s = float("inf")
        for _ in range(rounds):
            reference_s = min(reference_s, forward_backward_s(ref.conv3d, x_data, w_data, b_data, x_needs_grad))
            gemm_s = min(gemm_s, forward_backward_s(F.conv3d, x_data, w_data, b_data, x_needs_grad))
        speedups.append(reference_s / gemm_s)
        rows.append(
            [f"{x_shape} -> {c_out}", f"{1e3 * reference_s:.3f}", f"{1e3 * gemm_s:.3f}", f"{speedups[-1]:.1f}x"]
        )
    print_table(
        "conv3d forward + backward (best of %d)" % rounds,
        ["shape", "einsum reference (ms)", "im2col + GEMM (ms)", "speed-up"],
        rows,
    )
    return speedups


def test_conv3d_beats_the_einsum_reference():
    speedups = conv_speedups(CONV_SHAPES, ROUNDS)
    print(f"required: >= {MIN_SPEEDUP}x at every shape")
    assert min(speedups) >= MIN_SPEEDUP


def test_wide_conv3d_beats_the_einsum_reference():
    speedups = conv_speedups(WIDE_CONV_SHAPES, WIDE_ROUNDS)
    print(f"required: >= {MIN_WIDE_SPEEDUP}x at every shape")
    assert min(speedups) >= MIN_WIDE_SPEEDUP


def graph_nodes(loss) -> int:
    """Operation nodes (tensors with recorded parents) reachable from ``loss``."""
    seen = {id(loss)}
    stack = [loss]
    count = 0
    while stack:
        node = stack.pop()
        if node._parents:
            count += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def rank_step(trainer, traces):
    """One rank's share of a ``TrainingLoop`` step, keeping the loss graph."""
    trainer.network.zero_grad()
    loss = trainer.network.loss(traces)
    loss.backward()
    gradients = {
        name: param.grad.copy()
        for name, param in trainer.network.named_parameters()
        if param.grad is not None
    }
    return graph_nodes(loss), float(loss.item()), gradients


def test_rank_step_graph_is_at_most_half_the_composed_graph(tau_dataset, monkeypatch):
    network = InferenceNetwork(config=BENCH_CONFIG, observe_key="detector", rng=RandomState(5))
    trainer = DistributedTrainer(
        network, tau_dataset, num_ranks=2, local_minibatch_size=8,
        validation_fraction=0.0, seed=3, rng=RandomState(3),
    )
    traces = tau_dataset.get_batch(next(iter(trainer.samplers[0])))

    fused_nodes, fused_loss, fused_gradients = rank_step(trainer, traces)
    assert rank_step(trainer, traces)[0] == fused_nodes, "the node count must repeat exactly"

    monkeypatch.setattr(F, "linear", ref.linear)
    monkeypatch.setattr(F, "lstm_cell", ref.lstm_cell)
    monkeypatch.setattr(F, "truncated_normal_mixture_log_prob", ref.truncated_normal_mixture_log_prob)
    composed_nodes, composed_loss, composed_gradients = rank_step(trainer, traces)

    print_table(
        "autograd nodes in one rank step's loss graph (8 traces, %d sub-minibatches)"
        % network.last_num_sub_minibatches,
        ["kernels", "nodes"],
        [["composed references", composed_nodes], ["fused", fused_nodes]],
    )
    print(f"reduction: {composed_nodes / fused_nodes:.2f}x (required: >= {MIN_NODE_REDUCTION}x)")
    np.testing.assert_allclose(fused_loss, composed_loss, rtol=1e-10)
    assert fused_gradients.keys() == composed_gradients.keys()
    for name, gradient in composed_gradients.items():
        np.testing.assert_allclose(fused_gradients[name], gradient, rtol=1e-8, atol=1e-12, err_msg=name)
    assert composed_nodes >= MIN_NODE_REDUCTION * fused_nodes
