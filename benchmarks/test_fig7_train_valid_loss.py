"""Figure 7: training and validation loss vs iteration for the large-minibatch run.

The paper shows the loss on the training and validation splits of the 15M
offline dataset while training at 1,024 nodes with the 128k global minibatch.
This bench runs the same pipeline at reproduction scale: the offline tau
dataset with a held-out validation split, the distributed trainer with
Adam-LARC and polynomial decay, and prints both curves.  Asserted shape: both
losses decrease, and the validation loss tracks the training loss without
diverging (no overfitting blow-up at this budget).
"""

import numpy as np

from repro.common.rng import RandomState
from repro.distributed import DistributedTrainer
from repro.ppl.nn import InferenceNetwork

from benchmarks.conftest import BENCH_CONFIG, print_series

ITERATIONS = 20
VALIDATE_EVERY = 2


def test_fig7_training_and_validation_loss(benchmark, tau_dataset):
    network = InferenceNetwork(config=BENCH_CONFIG, observe_key="detector", rng=RandomState(7))
    trainer = DistributedTrainer(
        network,
        tau_dataset,
        num_ranks=2,
        local_minibatch_size=8,
        larc=True,
        lr_schedule="poly2",
        total_iterations_hint=ITERATIONS,
        learning_rate=3e-3,
        end_learning_rate=1e-4,
        validation_fraction=0.15,
        seed=7,
    )
    report = benchmark.pedantic(
        lambda: trainer.train(ITERATIONS, validate_every=VALIDATE_EVERY, validation_minibatch=32),
        iterations=1,
        rounds=1,
    )

    print_series(
        "Figure 7: training loss vs iteration",
        "iteration",
        list(range(1, ITERATIONS + 1)),
        {"train_loss": report.train_losses},
    )
    print_series(
        "Figure 7: validation loss",
        "iteration",
        report.validation_iterations,
        {"validation_loss": report.validation_losses},
    )

    train = np.asarray(report.train_losses)
    valid = np.asarray(report.validation_losses)
    assert train[-5:].mean() < train[:5].mean()
    assert valid[-1] < valid[0]
    # Validation tracks training: the gap stays within a factor of the overall
    # improvement (no divergence).
    assert abs(valid[-1] - train[-3:].mean()) < 2.0 * abs(train[0] - train[-3:].mean()) + 1.0
