"""Synchronous data-parallel training of the IC network (Algorithm 2).

This is the reproduction of the paper's distributed trainer: N ranks each draw
a local minibatch from the (sorted, sharded) offline dataset through the
distributed sampler, compute the Algorithm 1 loss and its gradients on an
identical copy of the inference network, allreduce the gradients (sparse +
fused, Section 4.4.4) and take one optimizer step — Adam or Adam-LARC with an
optional polynomial learning-rate decay (Section 6.3).

Because every rank starts from identical parameters and the allreduce is an
exact average, executing the ranks sequentially inside one process is
numerically identical to running them concurrently under MPI; the wall-clock
behaviour at scale (load imbalance, sync cost) is captured separately by the
instrumentation here plus :mod:`repro.distributed.performance_model`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.rng import RandomState, get_rng
from repro.common.timing import PhaseTimer
from repro.data.batching import effective_minibatch_size
from repro.data.sampler import DistributedTraceSampler
from repro.data.sorting import sorted_indices_by_trace_type
from repro.distributed.allreduce import CommunicationStats, average_gradients
from repro.ppl.nn.inference_network import InferenceNetwork
from repro.ppl.nn.preprocessing import pregenerate_layers
from repro.tensor import optim

__all__ = ["TrainingReport", "DistributedTrainer"]


@dataclass
class TrainingReport:
    """Everything the scaling and convergence figures need from a training run."""

    train_losses: List[float] = field(default_factory=list)
    validation_losses: List[float] = field(default_factory=list)
    validation_iterations: List[int] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)
    iteration_times: List[float] = field(default_factory=list)
    best_iteration_times: List[float] = field(default_factory=list)
    traces_per_iteration: int = 0
    effective_minibatch_sizes: List[float] = field(default_factory=list)
    communication: List[CommunicationStats] = field(default_factory=list)
    phase_means: Dict[str, float] = field(default_factory=dict)
    num_parameters: int = 0

    @property
    def mean_throughput(self) -> float:
        """Average traces/s over the run (actual, including load imbalance)."""
        total_time = sum(self.iteration_times)
        if total_time <= 0:
            return 0.0
        return self.traces_per_iteration * len(self.iteration_times) / total_time

    @property
    def best_throughput(self) -> float:
        """Throughput assuming perfect load balance (the Figure 4 'best' columns)."""
        total_time = sum(self.best_iteration_times)
        if total_time <= 0:
            return 0.0
        return self.traces_per_iteration * len(self.best_iteration_times) / total_time

    @property
    def load_imbalance_percent(self) -> float:
        actual = sum(self.iteration_times)
        best = sum(self.best_iteration_times)
        if best <= 0:
            return 0.0
        return 100.0 * (actual - best) / best

    @property
    def final_train_loss(self) -> float:
        return self.train_losses[-1] if self.train_losses else float("nan")


class DistributedTrainer:
    """Algorithm 2: synchronous data-parallel SGD over simulated MPI ranks."""

    def __init__(
        self,
        network: InferenceNetwork,
        dataset,
        num_ranks: int = 2,
        local_minibatch_size: int = 8,
        optimizer: str = "adam",
        learning_rate: float = 1e-3,
        larc: bool = False,
        lr_schedule: Optional[str] = None,
        end_learning_rate: float = 1e-5,
        total_iterations_hint: Optional[int] = None,
        allreduce_strategy: str = "fused_sparse",
        num_buckets: int = 1,
        sort_dataset: bool = True,
        validation_fraction: float = 0.1,
        seed: int = 0,
        rng: Optional[RandomState] = None,
    ) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.network = network
        self.dataset = dataset
        self.num_ranks = num_ranks
        self.local_minibatch_size = local_minibatch_size
        self.allreduce_strategy = allreduce_strategy
        self.rng = rng or get_rng()
        self.seed = seed

        # Offline mode: pre-generate every address-specific layer and freeze.
        pregenerate_layers(self.network, dataset, freeze=True)

        # Train / validation split over dataset indices (validation from the tail).
        total = len(dataset)
        num_validation = int(total * validation_fraction)
        all_indices = list(range(total))
        self.validation_indices = all_indices[total - num_validation :] if num_validation > 0 else []
        train_indices = all_indices[: total - num_validation]

        if sort_dataset:
            keys = [(dataset.trace_type_of(i), dataset.trace_length_of(i), i) for i in train_indices]
            keys.sort()
            ordered = [k[2] for k in keys]
        else:
            ordered = list(train_indices)
        lengths = [dataset.trace_length_of(i) for i in range(total)]
        self.samplers = [
            DistributedTraceSampler(
                ordered,
                minibatch_size=local_minibatch_size,
                num_ranks=num_ranks,
                rank=rank,
                num_buckets=num_buckets,
                lengths=lengths,
                shuffle=True,
                seed=seed,
            )
            for rank in range(num_ranks)
        ]

        # Optimizer over named parameters (names used by the sparse allreduce).
        named = list(self.network.named_parameters())
        if optimizer == "adam":
            base = optim.Adam(named, lr=learning_rate)
        elif optimizer == "sgd":
            base = optim.SGD(named, lr=learning_rate)
        else:
            raise ValueError(f"unknown optimizer {optimizer!r}")
        self.optimizer = optim.LARC(base) if larc else base
        self._parameter_names = [name for name, _ in named]
        self._parameters = {name: param for name, param in named}
        self._parameter_shapes = {name: param.data.shape for name, param in named}

        self.scheduler = None
        if lr_schedule in ("poly1", "poly2"):
            total_steps = total_iterations_hint or max(1, len(self.samplers[0]))
            self.scheduler = optim.PolynomialDecayLR(
                self.optimizer,
                total_steps=total_steps,
                end_lr=end_learning_rate,
                power=1.0 if lr_schedule == "poly1" else 2.0,
            )
        elif lr_schedule not in (None, "none"):
            raise ValueError(f"unknown lr_schedule {lr_schedule!r}")

        self.phase_timer = PhaseTimer()
        self.report = TrainingReport(
            traces_per_iteration=num_ranks * local_minibatch_size,
            num_parameters=self.network.num_parameters(),
        )

    # --------------------------------------------------------------------- run
    def _rank_gradients(self, traces) -> Dict[str, np.ndarray]:
        """Compute one rank's loss and return its named (non-null) gradients."""
        self.network.zero_grad()
        loss = self.network.loss(traces)
        loss.backward()
        gradients = {
            name: param.grad.copy()
            for name, param in self._parameters.items()
            if param.grad is not None
        }
        self._last_rank_loss = float(loss.item())
        return gradients

    def train(
        self,
        num_iterations: int,
        validate_every: Optional[int] = None,
        validation_minibatch: int = 64,
        callback=None,
    ) -> TrainingReport:
        """Run ``num_iterations`` synchronous update steps."""
        iterators = [iter(sampler) for sampler in self.samplers]
        epoch = 0
        for iteration in range(num_iterations):
            per_rank_gradients: List[Dict[str, np.ndarray]] = []
            rank_losses: List[float] = []
            rank_compute_times: List[float] = []
            read_times: List[float] = []
            minibatch_types: List[str] = []

            for rank in range(self.num_ranks):
                # --- batch read -------------------------------------------------
                read_start = time.perf_counter()
                try:
                    indices = next(iterators[rank])
                except StopIteration:
                    epoch += 1
                    for sampler in self.samplers:
                        sampler.set_epoch(epoch)
                    iterators = [iter(sampler) for sampler in self.samplers]
                    indices = next(iterators[rank])
                traces = self.dataset.get_batch(indices)
                read_times.append(time.perf_counter() - read_start)
                minibatch_types.extend(t.trace_type for t in traces)

                # --- forward + backward ------------------------------------------
                compute_start = time.perf_counter()
                gradients = self._rank_gradients(traces)
                rank_compute_times.append(time.perf_counter() - compute_start)
                per_rank_gradients.append(gradients)
                rank_losses.append(self._last_rank_loss)

            # --- gradient allreduce ----------------------------------------------
            sync_start = time.perf_counter()
            stats = CommunicationStats()
            averaged = average_gradients(
                per_rank_gradients,
                self._parameter_names,
                self._parameter_shapes,
                strategy=self.allreduce_strategy,
                stats=stats,
            )
            sync_time = time.perf_counter() - sync_start

            # --- optimizer step ----------------------------------------------------
            optimizer_start = time.perf_counter()
            for name, param in self._parameters.items():
                param.grad = averaged.get(name)
            self.optimizer.step()
            if self.scheduler is not None:
                self.scheduler.step()
            optimizer_time = time.perf_counter() - optimizer_start

            # --- bookkeeping --------------------------------------------------------
            compute_arr = np.asarray(rank_compute_times)
            read_arr = np.asarray(read_times)
            # Actual iteration time: slowest rank (synchronisation barrier) +
            # shared sync/optimizer work.  Best: perfectly balanced ranks.
            actual_time = float(compute_arr.max() + read_arr.max() + sync_time + optimizer_time)
            best_time = float(compute_arr.mean() + read_arr.mean() + sync_time + optimizer_time)
            self.phase_timer.add("batch_read", float(read_arr.max()))
            self.phase_timer.add("forward_backward", float(compute_arr.max()))
            self.phase_timer.add("sync", sync_time)
            self.phase_timer.add("optimizer", optimizer_time)
            self.phase_timer.end_iteration()

            self.report.train_losses.append(float(np.mean(rank_losses)))
            self.report.learning_rates.append(self.optimizer.lr)
            self.report.iteration_times.append(actual_time)
            self.report.best_iteration_times.append(best_time)
            self.report.effective_minibatch_sizes.append(effective_minibatch_size(minibatch_types))
            self.report.communication.append(stats)

            if validate_every and (iteration + 1) % validate_every == 0 and self.validation_indices:
                self.report.validation_losses.append(self.validate(validation_minibatch))
                self.report.validation_iterations.append(iteration + 1)
            if callback is not None:
                callback(iteration, self.report.train_losses[-1])
        self.report.phase_means = self.phase_timer.mean_by_phase()
        return self.report

    # -------------------------------------------------------------- validation
    def validate(self, max_traces: int = 64) -> float:
        """Mean Algorithm-1 loss over (a subset of) the held-out validation split."""
        if not self.validation_indices:
            raise RuntimeError("trainer was constructed without a validation split")
        indices = self.validation_indices[:max_traces]
        traces = self.dataset.get_batch(indices)
        from repro.tensor import no_grad

        with no_grad():
            loss = self.network.loss(traces)
        return float(loss.item())
