"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper (see
DESIGN.md's experiment index).  Expensive artefacts — the tau-decay dataset,
a trained IC engine, the ground-truth test observation — are built once per
session here and reused across benches.  Every bench prints the rows/series it
regenerates so that ``pytest benchmarks/ --benchmark-only -s`` produces a
textual version of the paper's tables and figures, and asserts the *shape*
(ordering, rough factors, crossovers) rather than absolute numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.rng import RandomState, seed_all
from repro.data import generate_dataset
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.simulators import TauDecayModel, ground_truth_event


BENCH_CONFIG = Config(
    observation_shape=(8, 11, 11),
    lstm_hidden=32,
    lstm_stacks=1,
    observation_embedding_dim=16,
    address_embedding_dim=8,
    sample_embedding_dim=4,
    proposal_mixture_components=3,
)


@pytest.fixture(autouse=True)
def _seed():
    seed_all(2026)
    yield


@pytest.fixture(scope="session")
def tau_model():
    return TauDecayModel()


@pytest.fixture(scope="session")
def tau_dataset(tau_model):
    """400 prior traces of the mini-Sherpa pipeline (the offline dataset)."""
    return generate_dataset(tau_model, 400, rng=RandomState(11))


@pytest.fixture(scope="session")
def tau_observation(tau_model):
    """A held-out test observation with known ground truth (Section 6.4)."""
    ground_truth, observation = ground_truth_event(
        overrides={"px": 1.2, "py": -0.8, "pz": 45.5, "channel": 1}, rng=RandomState(99)
    )
    return ground_truth, observation


@pytest.fixture(scope="session")
def trained_ic_engine(tau_model, tau_dataset):
    """An IC engine trained on the offline tau dataset (shared by several benches)."""
    engine = InferenceCompilation(config=BENCH_CONFIG, observe_key="detector", rng=RandomState(5))
    engine.train(
        dataset=list(tau_dataset),
        num_traces=2400,
        minibatch_size=16,
        learning_rate=3e-3,
        lr_schedule="poly2",
        end_learning_rate=1e-4,
    )
    return engine


def print_table(title: str, headers, rows) -> None:
    """Render a small fixed-width table to stdout (the bench 'figure')."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0)) for i, h in enumerate(headers)]
    print("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))


def print_series(title: str, x_label: str, xs, series: dict) -> None:
    """Render one or more named series against a common x axis."""
    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [f"{series[name][i]:.4g}" for name in series])
    print_table(title, headers, rows)
