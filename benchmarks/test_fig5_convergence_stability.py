"""Figure 5: mean and standard deviation of the loss over five runs (128k minibatch).

The paper demonstrates stable convergence of the Adam-LARC + order-2
polynomial-decay configuration at the 128k global minibatch size by repeating
the run five times with different seeds and plotting mean +/- std of the loss.
This bench repeats that protocol at reproduction scale: five seeds, the same
optimizer configuration, a scaled-down global minibatch, and asserts that the
mean loss decreases while the run-to-run spread stays bounded.

A step's training loss is the loss of the group of chunks it was dealt, and
that varies with the group's trace types by about as much as twelve steps of
training move it: the run is long enough for the trend to clear that noise.
"""

import numpy as np

from repro.common.rng import RandomState
from repro.distributed import DistributedTrainer
from repro.ppl.nn import InferenceNetwork

from benchmarks.conftest import BENCH_CONFIG, print_series

NUM_SEEDS = 5
ITERATIONS = 36


def _one_run(seed, dataset):
    network = InferenceNetwork(config=BENCH_CONFIG, observe_key="detector", rng=RandomState(seed))
    trainer = DistributedTrainer(
        network,
        dataset,
        num_ranks=2,
        local_minibatch_size=8,
        larc=True,
        lr_schedule="poly2",
        total_iterations_hint=ITERATIONS,
        learning_rate=3e-3,
        end_learning_rate=1e-4,
        validation_fraction=0.0,
        seed=seed,
    )
    return trainer.train(ITERATIONS).train_losses


def test_fig5_convergence_stability(benchmark, tau_dataset):
    runs = [
        _one_run(seed, tau_dataset) for seed in range(NUM_SEEDS - 1)
    ]
    runs.append(benchmark.pedantic(_one_run, args=(NUM_SEEDS - 1, tau_dataset), iterations=1, rounds=1))
    losses = np.asarray(runs)  # (seeds, iterations)
    mean = losses.mean(axis=0)
    std = losses.std(axis=0)
    print_series(
        f"Figure 5: mean +/- std loss over {NUM_SEEDS} Adam-LARC runs",
        "iteration",
        list(range(1, ITERATIONS + 1)),
        {"mean_loss": mean.tolist(), "std_loss": std.tolist()},
    )
    # Convergence: the mean of the last quarter of iterations is below the first.
    quarter = ITERATIONS // 4
    assert mean[-quarter:].mean() < mean[:quarter].mean()
    # Stability: run-to-run spread stays bounded relative to the loss scale,
    # and no run diverges (all losses finite).
    assert np.all(np.isfinite(losses))
    assert std[-1] < 0.5 * abs(mean[0] - mean[-1]) + 1.0
