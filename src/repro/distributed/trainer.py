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

With more than one rank the ranks run side by side: :meth:`TrainingLoop.run`
forks rank processes at its start and joins them on its way out, dealing the
ranks round-robin over ``min(num_ranks, usable cores)`` processes with the
calling process as the first of them (one usable core, or a platform without
``fork``: no child, the same code).  Every process runs the same rank step —
read and pack the minibatch, ``zero_grad -> loss_packed -> backward`` — and
little crosses the process boundary: the parent keeps the sampler schedule and
sends each rank its index list over a pipe, a rank answers with its loss and
its read and compute seconds, parameters reach the ranks through one flat
shared float64 buffer rewritten after each ``optimizer.step()``, and gradients
come back through a flat shared buffer per rank with a per-tensor presence
mask.  The parent feeds views of those buffers, in rank order, to the single
``average_gradients`` call.  Each rank's gradients are a function of the
parameters and its index list only, and the reduction always sees the ranks in
rank order, so seeded loss curves and parameters are bit-identical for every
process count — which process ran a rank cannot show in the result.

Timings in :class:`TrainingReport` and ``phase_timer`` are wall-clock
measurements of this machine; what a 1,024-node machine would do is modelled
separately by :mod:`repro.distributed.performance_model`.
"""

from __future__ import annotations

import mmap
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.common.rng import RandomState
from repro.common.timing import PhaseTimer
from repro.common.utils import start_piped_child, usable_cores
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
    """Everything the scaling and convergence figures need from a training run.

    ``iteration_times`` is measured: the wall clock of each step, from dealing
    the ranks' work to the end of the optimizer step, with the ranks running
    side by side in the rank processes.  With more ranks than processes, a
    process's ranks still run in turn inside it, and the clock shows that.
    ``best_iteration_times`` is modelled: the same step with the ranks'
    measured read and compute seconds spread evenly over the processes and no
    wait at the join — the gap between the two is the load imbalance.
    ``phase_means`` averages the measured ``phase_timer`` phases;
    ``communication`` counts the allreduce's calls and elements, and its
    ``modeled_time`` is an interconnect model, not a measurement.
    """

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
        """Measured traces/s over the run (wall clock, including load imbalance)."""
        total_time = sum(self.iteration_times)
        if total_time <= 0:
            return 0.0
        return self.traces_per_iteration * len(self.iteration_times) / total_time

    @property
    def best_throughput(self) -> float:
        """Modelled traces/s under perfect load balance (the Figure 4 'best' columns)."""
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


#: Rank processes are forked, so they see the parent's network, dataset handle
#: and batch source as they are at the start of the run, with nothing pickled.
#: A rank process touches only those and its pipe, so a lock some other thread
#: of the parent held at the fork is never waited for.
_FORK = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork rank processes."""
    if _FORK is None or multiprocessing.current_process().daemon:
        return 1
    return len(usable_cores())


def _shared(count: int, dtype) -> np.ndarray:
    """A zeroed array in anonymous shared memory: one copy across forks."""
    return np.frombuffer(mmap.mmap(-1, count * np.dtype(dtype).itemsize), dtype=dtype, count=count)


class _RankExchange:
    """The shared memory the ranks of one run meet in.

    One flat float64 image of the parameters (parent -> ranks, written after
    each optimizer step) and, per rank, one flat float64 image of its
    gradients plus a per-tensor presence mask (ranks -> parent): a tensor the
    rank's minibatch did not touch has no gradient, and the sparse allreduce
    strategies depend on seeing that.
    """

    def __init__(self, parameters: Dict[str, Any], num_ranks: int) -> None:
        #: (name, parameter, its span of the flat images)
        self._slots = []
        total = 0
        for name, param in parameters.items():
            self._slots.append((name, param, slice(total, total + param.data.size)))
            total += param.data.size
        self.parameters = _shared(total, np.float64)
        self.gradients = _shared(num_ranks * total, np.float64).reshape(num_ranks, total)
        self.present = _shared(num_ranks * len(self._slots), np.bool_).reshape(num_ranks, -1)
        self.publish()

    def publish(self) -> None:
        """Parent: write the current parameters for the rank processes."""
        np.concatenate([param.data.reshape(-1) for _, param, _ in self._slots], out=self.parameters)

    def load(self) -> None:
        """Rank process: adopt the published parameters."""
        for _, param, span in self._slots:
            param.data[...] = self.parameters[span].reshape(param.data.shape)

    def store(self, rank: int) -> None:
        """Write the gradients ``backward`` left on the parameters as ``rank``'s."""
        for index, (_, param, span) in enumerate(self._slots):
            self.present[rank, index] = param.grad is not None
            if param.grad is not None:
                self.gradients[rank, span] = param.grad.reshape(-1)

    def gradients_of(self, rank: int) -> Dict[str, np.ndarray]:
        """Views of the gradients ``rank`` stored, by parameter name."""
        return {
            name: self.gradients[rank, span].reshape(param.data.shape)
            for index, (name, param, span) in enumerate(self._slots)
            if self.present[rank, index]
        }


class _RankFailure(NamedTuple):
    """A rank process's answer when one of its ranks raised."""

    rank: int
    traceback: str


class _RankWorker:
    """A forked rank process and the parent's end of its pipe."""

    #: seconds a process gets to leave after its pipe closed, before it is killed
    JOIN_SECONDS = 2.0

    def __init__(self, serve, ranks: Sequence[int], read, exchange: _RankExchange, earlier) -> None:
        self.ranks = ranks
        self.process, self.connection = start_piped_child(
            _FORK, serve, (read, exchange), [worker.connection for worker in earlier]
        )

    def _lost(self) -> RuntimeError:
        self.process.join(self.JOIN_SECONDS)
        return RuntimeError(
            f"rank {', '.join(map(str, self.ranks))}: process {self.process.pid} died mid-step "
            f"(exit code {self.process.exitcode})"
        )

    def send(self, assignments) -> None:
        try:
            self.connection.send(assignments)
        except OSError:
            raise self._lost() from None

    def collect(self) -> List[tuple]:
        """The ``(loss, read seconds, compute seconds)`` of each of this process's ranks."""
        try:
            reply = self.connection.recv()
        except (EOFError, OSError):
            raise self._lost() from None
        if isinstance(reply, _RankFailure):
            raise RuntimeError(
                f"rank {reply.rank} failed in process {self.process.pid}:\n{reply.traceback}"
            )
        return reply

    def join(self) -> None:
        self.connection.close()
        self.process.join(self.JOIN_SECONDS)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


_OPTIMIZERS = {"adam": optim.Adam, "sgd": optim.SGD}
#: lr_schedule name -> polynomial decay power (``None``/``"none"``: constant)
_LR_DECAY_POWERS = {"poly1": 1.0, "poly2": 2.0}


class TrainingLoop:
    """Algorithm 2's update step, shared by every trainer in the repository.

    Construction validates the optimizer and schedule names before any side
    effect, then (offline: ``dataset`` given) pre-generates the dataset's
    address-specific layers and freezes the architecture, then builds the
    optimizer and learning-rate schedule.  :attr:`phase_timer` gets one record
    per step, measured in the calling process so the phases add up to the
    step's wall clock: ``batch_read`` and ``forward_backward`` of its own
    ranks, ``sync`` — the wait for the other rank processes at the join plus
    the gradient averaging — and ``optimizer``.
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
        deal: Callable[[int], Any],
        read: Callable[[Any], List[PackedSubMinibatch]],
        num_iterations: int,
        record: Callable[..., None],
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        """Take ``num_iterations`` synchronous update steps.

        ``deal(rank)`` runs here, in rank order, and returns the rank's work
        for the step; ``read(work)`` turns it into the rank's packed minibatch
        inside the process that runs the rank, so with more than one rank
        ``work`` must be small and picklable (an index list).  After each step
        ``record(loss, rank_work, seconds, best_seconds, stats)`` runs — the
        step's measured wall clock, the same modelled under perfect balance
        over the rank processes, and the allreduce's ``CommunicationStats`` —
        then ``callback(iteration, loss)`` last, so the caller's records are
        complete even if the callback ends the run by raising.  However the
        run ends, every rank process has been joined and the network's update
        listeners are notified once if any step was applied.
        """
        parameters = self._parameters
        names = list(parameters)
        shapes = {name: param.data.shape for name, param in parameters.items()}
        # One rank: the gradients backward() left on the parameters are the
        # step's gradients — no exchange, no process, no pipe.
        exchange = _RankExchange(parameters, self.num_ranks) if self.num_ranks > 1 else None
        num_processes = min(self.num_ranks, _usable_cores())
        own_ranks = range(0, self.num_ranks, num_processes)
        workers: List[_RankWorker] = []
        stepped = False
        try:
            for first_rank in range(1, num_processes):
                ranks = range(first_rank, self.num_ranks, num_processes)
                workers.append(_RankWorker(self._serve_ranks, ranks, read, exchange, workers))
            for iteration in range(num_iterations):
                started = time.perf_counter()
                work = [deal(rank) for rank in range(self.num_ranks)]
                dealt = time.perf_counter()
                for worker in workers:
                    worker.send([(rank, work[rank]) for rank in worker.ranks])
                outcomes = {rank: self._rank_step(read, rank, work[rank], exchange) for rank in own_ranks}

                # The join: wait for the other processes' ranks, then reduce.
                joining = time.perf_counter()
                for worker in workers:
                    outcomes.update(zip(worker.ranks, worker.collect()))
                averaging = time.perf_counter()
                stats = CommunicationStats()
                if exchange is not None:
                    averaged = average_gradients(
                        [exchange.gradients_of(rank) for rank in range(self.num_ranks)],
                        names, shapes, self.allreduce_strategy, stats,
                    )
                    for name, param in parameters.items():
                        param.grad = averaged.get(name)
                reduced = time.perf_counter()

                self.optimizer.step()
                self.scheduler.step()
                if exchange is not None:
                    exchange.publish()
                stepped = True
                finished = time.perf_counter()

                losses, reads, computes = zip(*(outcomes[rank] for rank in range(self.num_ranks)))
                # What this process did, so the phases add up to the step.
                self.phase_timer.add("batch_read", dealt - started + sum(reads[rank] for rank in own_ranks))
                self.phase_timer.add("forward_backward", sum(computes[rank] for rank in own_ranks))
                self.phase_timer.add("sync", reduced - joining)
                self.phase_timer.add("optimizer", finished - reduced)
                self.phase_timer.end_iteration()
                # Modelled: every rank's work spread evenly over the processes, no wait.
                best_seconds = (
                    dealt - started + (sum(reads) + sum(computes)) / num_processes + finished - averaging
                )
                mean_loss = float(np.mean(losses))
                record(mean_loss, work, finished - started, best_seconds, stats)
                if callback is not None:
                    callback(iteration, mean_loss)
        finally:
            for worker in workers:
                worker.join()
            if stepped:
                # The parameters changed in place: tell anyone caching results
                # keyed to this network (posterior caches, compiled plans).
                self.network.notify_updated()

    def _rank_step(self, read, rank: int, work, exchange: Optional[_RankExchange]):
        """One rank's share of a step, in whichever process runs the rank.

        Returns ``(loss, read seconds, compute seconds)``; the gradients go to
        the rank's exchange buffer (one rank: they stay on the parameters).
        The loss graph dies with this frame, so two graphs are never alive at
        once — that would be the peak-memory case.
        """
        start = time.perf_counter()
        packs = read(work)
        read_seconds = time.perf_counter() - start

        start = time.perf_counter()
        self.optimizer.zero_grad()
        loss = self.network.loss_packed(packs)
        loss.backward()
        if exchange is not None:
            exchange.store(rank)
        return loss.item(), read_seconds, time.perf_counter() - start

    def _serve_ranks(self, connection, parent_ends, read, exchange: _RankExchange) -> None:
        """A rank process: block on the pipe, run the dealt ranks, answer."""
        for end in parent_ends:
            end.close()
        try:
            while True:
                assignments = connection.recv()
                exchange.load()
                outcomes = []
                for rank, work in assignments:
                    try:
                        outcomes.append(self._rank_step(read, rank, work, exchange))
                    except Exception:
                        connection.send(_RankFailure(rank, traceback.format_exc()))
                        return
                connection.send(outcomes)
        except (EOFError, OSError):
            pass  # the parent closed the pipe: the run is over


class DistributedTrainer:
    """Algorithm 2: synchronous data-parallel SGD, the ranks in forked processes."""

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
    def _deal(self, rank: int) -> List[int]:
        """The rank's next sampler chunk.  The schedule lives in the parent only."""
        try:
            return next(self._iterators[rank])
        except StopIteration:
            # The first rank to run dry starts the next epoch for every rank.
            epoch = self.samplers[0].epoch + 1
            for sampler in self.samplers:
                sampler.set_epoch(epoch)
            self._iterators = [iter(sampler) for sampler in self.samplers]
            return next(self._iterators[rank])

    def _read(self, indices: List[int]) -> List[PackedSubMinibatch]:
        """Read and pack a dealt chunk, in the process that runs the rank."""
        return pack_minibatch(self.dataset.get_batch(indices), self.network.observe_key)

    def _record(self, loss, rank_indices, seconds, best_seconds, stats) -> None:
        self.report.train_losses.append(loss)
        self.report.learning_rates.append(self._loop.optimizer.lr)
        self.report.iteration_times.append(seconds)
        self.report.best_iteration_times.append(best_seconds)
        self.report.effective_minibatch_sizes.append(
            effective_minibatch_size(
                [self.dataset.trace_type_of(i) for indices in rank_indices for i in indices]
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

        self._loop.run(self._deal, self._read, num_iterations, self._record, after_step)
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
