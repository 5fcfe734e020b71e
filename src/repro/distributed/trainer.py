"""The one training loop (Algorithms 1 and 2) and its data-parallel trainer.

Every optimizer step in this repository is taken by :class:`TrainingLoop`.  Per
iteration it asks a *batch source* for each rank's packed minibatch, computes
the Algorithm 1 loss and its gradients per rank on the one shared network,
allreduces the gradients (sparse + fused, Section 4.4.4) and takes one
optimizer step — Adam or Adam-LARC with an optional polynomial learning-rate
decay (Section 6.3).  Online, offline and N-rank training differ only in the
source: ``InferenceCompilation.train`` is the one-rank case,
:class:`DistributedTrainer` the N-rank case drawing each rank's chunk of the
(sorted, sharded) offline dataset through the distributed sampler.

Because every rank starts from identical parameters and the allreduce is an
exact average, executing the ranks sequentially inside one process is
numerically identical to running them concurrently under MPI; the wall-clock
behaviour at scale (load imbalance, sync cost) is captured separately by the
instrumentation here plus :mod:`repro.distributed.performance_model`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.common.rng import RandomState
from repro.common.timing import PhaseTimer
from repro.data.batching import effective_minibatch_size
from repro.data.packing import PackedSubMinibatch, pack_minibatch
from repro.data.sampler import DistributedTraceSampler
from repro.data.sorting import sorted_indices_by_trace_type
from repro.distributed.allreduce import CommunicationStats, average_gradients
from repro.ppl.nn.inference_network import InferenceNetwork
from repro.ppl.nn.preprocessing import pregenerate_layers
from repro.tensor import no_grad, optim

__all__ = ["TrainingReport", "TrainingLoop", "DistributedTrainer"]


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


_OPTIMIZERS = {"adam": optim.Adam, "sgd": optim.SGD}
#: lr_schedule name -> polynomial decay power (``None``/``"none"``: constant)
_LR_DECAY_POWERS = {"poly1": 1.0, "poly2": 2.0}


class TrainingLoop:
    """Algorithm 2's update step, shared by every trainer in the repository.

    Construction validates the optimizer and schedule names before any side
    effect, then (offline: ``dataset`` given) pre-generates the dataset's
    address-specific layers and freezes the architecture, then builds the
    optimizer and learning-rate schedule.  :attr:`phase_timer` gets one record
    per step: ``batch_read`` and ``forward_backward`` of the slowest rank,
    ``sync``, ``optimizer``.
    """

    def __init__(
        self,
        network: InferenceNetwork,
        dataset=None,
        optimizer: str = "adam",
        learning_rate: float = 1e-3,
        larc: bool = False,
        lr_schedule: Optional[str] = None,
        end_learning_rate: float = 1e-5,
        total_steps: int = 1,
        num_ranks: int = 1,
        allreduce_strategy: str = "fused_sparse",
    ) -> None:
        if optimizer not in _OPTIMIZERS:
            raise ValueError(f"unknown optimizer {optimizer!r}")
        if lr_schedule not in (None, "none", *_LR_DECAY_POWERS):
            raise ValueError(f"unknown lr_schedule {lr_schedule!r}")
        if dataset is not None:
            pregenerate_layers(network, dataset, freeze=True)
        self.network = network
        self.num_ranks = num_ranks
        self.allreduce_strategy = allreduce_strategy
        self.phase_timer = PhaseTimer()
        # Gradients are exchanged by name, so more than one rank needs the
        # parameter set fixed here — which the offline freeze guarantees.
        self._parameters = dict(network.named_parameters())
        base = _OPTIMIZERS[optimizer](list(self._parameters.items()), lr=learning_rate)
        self.optimizer = optim.LARC(base) if larc else base
        if lr_schedule in _LR_DECAY_POWERS:
            self.scheduler = optim.PolynomialDecayLR(
                self.optimizer, total_steps, end_learning_rate, _LR_DECAY_POWERS[lr_schedule]
            )
        else:
            self.scheduler = optim.ConstantLR(self.optimizer)

    def run(
        self,
        source: Callable[[int], List[PackedSubMinibatch]],
        num_iterations: int,
        record: Callable[..., None],
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        """Take ``num_iterations`` synchronous update steps.

        ``source(rank)`` returns the rank's next packed minibatch.  After each
        step ``record(loss, rank_packs, seconds, best_seconds, stats)`` runs —
        the step's wall time with the ranks in parallel, the same under
        perfect load balance, and the allreduce's ``CommunicationStats`` —
        then ``callback(iteration, loss)`` last, so the caller's records are
        complete even if the callback ends the run by raising.  However the
        run ends, the network's update listeners are notified once if any
        step was applied.
        """
        parameters = self._parameters
        names = list(parameters)
        shapes = {name: param.data.shape for name, param in parameters.items()}
        stepped = False
        try:
            for iteration in range(num_iterations):
                rank_packs: List[List[PackedSubMinibatch]] = []
                rank_losses: List[float] = []
                rank_gradients: List[Dict[str, np.ndarray]] = []
                read_seconds: List[float] = []
                compute_seconds: List[float] = []
                for rank in range(self.num_ranks):
                    start = time.perf_counter()
                    packs = source(rank)
                    read_seconds.append(time.perf_counter() - start)

                    start = time.perf_counter()
                    self.optimizer.zero_grad()
                    loss = self.network.loss_packed(packs)
                    loss.backward()
                    if self.num_ranks > 1:
                        rank_gradients.append(
                            {n: p.grad.copy() for n, p in parameters.items() if p.grad is not None}
                        )
                    compute_seconds.append(time.perf_counter() - start)
                    rank_packs.append(packs)
                    rank_losses.append(loss.item())
                    # Free the autograd graph now, not when the next loss is
                    # bound: two live graphs is the peak-memory case.
                    del loss

                # The reduce point.  One rank: the gradients backward() left
                # on the parameters are the step's gradients.
                start = time.perf_counter()
                stats = CommunicationStats()
                if self.num_ranks > 1:
                    averaged = average_gradients(
                        rank_gradients, names, shapes, self.allreduce_strategy, stats
                    )
                    for name, param in parameters.items():
                        param.grad = averaged.get(name)
                sync_seconds = time.perf_counter() - start

                start = time.perf_counter()
                self.optimizer.step()
                self.scheduler.step()
                optimizer_seconds = time.perf_counter() - start
                stepped = True

                self.phase_timer.add("batch_read", max(read_seconds))
                self.phase_timer.add("forward_backward", max(compute_seconds))
                self.phase_timer.add("sync", sync_seconds)
                self.phase_timer.add("optimizer", optimizer_seconds)
                # Ranks in parallel: the slowest one (the record's phases) plus
                # the shared work.  Best: perfectly balanced ranks.
                seconds = self.phase_timer.end_iteration().total()
                best_seconds = float(
                    np.mean(read_seconds) + np.mean(compute_seconds) + sync_seconds + optimizer_seconds
                )
                mean_loss = float(np.mean(rank_losses))
                record(mean_loss, rank_packs, seconds, best_seconds, stats)
                if callback is not None:
                    callback(iteration, mean_loss)
        finally:
            if stepped:
                # The parameters changed in place: tell anyone caching results
                # keyed to this network (posterior caches, compiled plans).
                self.network.notify_updated()


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
        validation_fraction: float = 0.1,
        seed: int = 0,
        rng: Optional[RandomState] = None,
    ) -> None:
        # ``rng`` is accepted for call-site compatibility and not used: the
        # sampler schedule is a function of ``seed`` alone.
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.network = network
        self.dataset = dataset
        self.num_ranks = num_ranks
        self.local_minibatch_size = local_minibatch_size
        self.seed = seed

        # Train / validation split over dataset indices (validation from the
        # tail); training indices in trace-type sorted order (Section 4.4.3).
        total = len(dataset)
        num_train = total - int(total * validation_fraction)
        self.validation_indices = list(range(num_train, total))
        ordered = [i for i in sorted_indices_by_trace_type(dataset) if i < num_train]
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
        # The schedule cursor lives here, not in train(): consecutive train()
        # calls continue the epoch instead of replaying its shuffles.
        self._iterators = [iter(sampler) for sampler in self.samplers]
        # Offline mode: the loop pre-generates every address-specific layer
        # and freezes the network before building the optimizer.
        self._loop = TrainingLoop(
            network, dataset, optimizer, learning_rate, larc, lr_schedule, end_learning_rate,
            total_steps=total_iterations_hint or max(1, len(self.samplers[0])),
            num_ranks=num_ranks,
            allreduce_strategy=allreduce_strategy,
        )
        self.phase_timer = self._loop.phase_timer
        self.report = TrainingReport(
            traces_per_iteration=num_ranks * local_minibatch_size,
            num_parameters=self.network.num_parameters(),
        )

    # --------------------------------------------------------------------- run
    def _rank_packs(self, rank: int) -> List[PackedSubMinibatch]:
        """The N-rank batch source: the rank's next sampler chunk, read and packed."""
        try:
            indices = next(self._iterators[rank])
        except StopIteration:
            # The first rank to run dry starts the next epoch for every rank.
            epoch = self.samplers[0].epoch + 1
            for sampler in self.samplers:
                sampler.set_epoch(epoch)
            self._iterators = [iter(sampler) for sampler in self.samplers]
            indices = next(self._iterators[rank])
        return pack_minibatch(self.dataset.get_batch(indices), self.network.observe_key)

    def _record(self, loss, rank_packs, seconds, best_seconds, stats) -> None:
        self.report.train_losses.append(loss)
        self.report.learning_rates.append(self._loop.optimizer.lr)
        self.report.iteration_times.append(seconds)
        self.report.best_iteration_times.append(best_seconds)
        self.report.effective_minibatch_sizes.append(
            effective_minibatch_size(
                [trace.trace_type for packs in rank_packs for pack in packs for trace in pack.traces]
            )
        )
        self.report.communication.append(stats)

    def train(
        self,
        num_iterations: int,
        validate_every: Optional[int] = None,
        validation_minibatch: int = 64,
        callback=None,
    ) -> TrainingReport:
        """Run ``num_iterations`` synchronous update steps."""

        def after_step(iteration: int, loss: float) -> None:
            if validate_every and (iteration + 1) % validate_every == 0 and self.validation_indices:
                self.report.validation_losses.append(self.validate(validation_minibatch))
                self.report.validation_iterations.append(iteration + 1)
            if callback is not None:
                callback(iteration, loss)

        self._loop.run(self._rank_packs, num_iterations, self._record, after_step)
        self.report.phase_means = self.phase_timer.mean_by_phase()
        return self.report

    # -------------------------------------------------------------- validation
    def validate(self, max_traces: int = 64) -> float:
        """Mean Algorithm-1 loss over (a subset of) the held-out validation split."""
        if not self.validation_indices:
            raise RuntimeError("trainer was constructed without a validation split")
        indices = self.validation_indices[:max_traces]
        traces = self.dataset.get_batch(indices)
        with no_grad():
            loss = self.network.loss(traces)
        return float(loss.item())
