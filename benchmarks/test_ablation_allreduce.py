"""Ablation (Section 4.4.4): sparse (non-null-only) allreduce and tensor fusion.

The paper reports a 4x improvement in allreduce time from reducing only the
union of non-null gradient tensors, plus a further gain from concatenating
small tensors into buffers so that one MPI call is issued per buffer instead
of one per tensor.  This bench builds the *real* gradient structure of the IC
network trained on the tau dataset (each simulated rank computes gradients
from its own minibatch, so only a subset of the address-specific layers is
non-null per rank), runs all three strategies, and compares the modelled
communication cost under the Aries latency/bandwidth model.
"""

import numpy as np

from repro.common.rng import RandomState
from repro.data import DistributedTraceSampler, sorted_indices_by_trace_type
from repro.distributed import (
    CommunicationStats,
    dense_allreduce,
    fused_sparse_allreduce,
    sparse_allreduce,
)
from repro.ppl.nn import InferenceNetwork, pregenerate_layers

from benchmarks.conftest import BENCH_CONFIG, print_table

NUM_RANKS = 2
MINIBATCH = 8


def _per_rank_gradients(network, dataset, parameters):
    """Each simulated rank's gradients as the trainer's exchange holds them:
    one flat image per rank (absent tensors zero) and a presence mask."""
    order = sorted_indices_by_trace_type(dataset)
    lengths = [dataset.trace_length_of(i) for i in range(len(dataset))]
    types = [dataset.trace_type_of(i) for i in range(len(dataset))]
    sampler = DistributedTraceSampler(
        order, minibatch_size=MINIBATCH, num_ranks=NUM_RANKS, lengths=lengths, trace_types=types, seed=3
    )
    gradients, present = [], []
    for indices in next(iter(sampler)):
        network.zero_grad()
        network.loss(dataset.get_batch(indices)).backward()
        gradients.append(np.concatenate([
            np.zeros(param.data.size) if param.grad is None else param.grad.reshape(-1)
            for param in parameters
        ]))
        present.append([param.grad is not None for param in parameters])
    return np.array(gradients), np.array(present)


def test_ablation_sparse_and_fused_allreduce(benchmark, tau_dataset):
    network = InferenceNetwork(config=BENCH_CONFIG, observe_key="detector", rng=RandomState(1))
    pregenerate_layers(network, list(tau_dataset), freeze=True)
    parameters = [param for _, param in network.named_parameters()]
    sizes = [param.data.size for param in parameters]

    gradients, present = _per_rank_gradients(network, tau_dataset, parameters)
    non_null_fraction = float(present.mean())

    aries = dict(latency_s=1.3e-6, bandwidth_bytes_per_s=10e9)
    stats = {}
    results = {}
    for strategy, fn in (
        ("dense", dense_allreduce),
        ("sparse", sparse_allreduce),
        ("fused_sparse", lambda *a, **k: fused_sparse_allreduce(*a, bucket_elements=200_000, **k)),
    ):
        stat = CommunicationStats(**aries)
        if strategy == "fused_sparse":
            # rounds=1 so the CommunicationStats accounting covers exactly one step
            results[strategy] = benchmark.pedantic(
                fn, args=(gradients, present, sizes), kwargs={"stats": stat}, iterations=1, rounds=1
            )
        else:
            results[strategy] = fn(gradients, present, sizes, stat)
        stats[strategy] = stat

    rows = []
    for strategy, stat in stats.items():
        rows.append(
            [
                strategy,
                stat.num_calls,
                f"{stat.bytes / 1e6:.2f} MB",
                f"{stat.modeled_time * 1e3:.3f} ms",
                f"{stats['dense'].modeled_time / stat.modeled_time:.1f}x",
            ]
        )
    print_table(
        "Ablation: gradient allreduce strategies (modelled on Cray Aries)",
        ["strategy", "collective calls", "bytes", "modelled time", "improvement vs dense"],
        rows,
    )
    print(f"fraction of tensors with non-null gradients per rank: {non_null_fraction:.2f}")

    # Identical averaged gradients across strategies; the sparse ones leave
    # the tensors no rank touched without a gradient.
    assert np.array_equal(results["dense"][0], results["sparse"][0])
    assert np.array_equal(results["dense"][0], results["fused_sparse"][0])
    assert results["dense"][1].all()
    assert np.array_equal(results["sparse"][1], results["fused_sparse"][1])
    # The paper's shape: each rank touches only a subset of address-specific
    # layers, sparse reduction never moves more data than dense, and fusion
    # cuts the collective call count, which is what makes the communication
    # bandwidth-bound rather than latency-bound.
    assert non_null_fraction < 1.0
    # The presence map costs one element per parameter tensor; beyond that the
    # sparse reduction never moves more data than the dense one.
    assert stats["sparse"].elements <= stats["dense"].elements + len(sizes)
    assert stats["fused_sparse"].num_calls < stats["sparse"].num_calls
    assert stats["fused_sparse"].num_calls < stats["dense"].num_calls
    assert stats["fused_sparse"].modeled_time < stats["dense"].modeled_time
