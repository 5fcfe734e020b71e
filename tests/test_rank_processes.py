"""The N-rank trainer runs its ranks in forked rank processes.

What must hold whatever the process count: seeded training is bit-identical
(losses, learning rates, allreduce accounting, parameters); a failing or dying
rank surfaces in the parent as one exception naming it, never as a hang; no
rank process outlives ``train()``; idle ranks block, they do not spin; and
one-rank training involves no process, shared buffer or pipe at all.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro import ppl
from repro.common.config import Config
from repro.common.rng import RandomState
from repro.data import InMemoryTraceDataset, generate_dataset
from repro.distributed import DistributedTrainer
from repro.distributed import trainer as trainer_module
from repro.distributions import Normal
from repro.ppl import FunctionModel
from repro.ppl.inference import InferenceCompilation
from repro.ppl.nn import ObservationEmbeddingFC
from repro.ppl.nn.inference_network import InferenceNetwork
from repro.simulators import TauDecayModel

needs_two_cores = pytest.mark.skipif(
    trainer_module._usable_cores() < 2, reason="needs fork and two usable cores"
)


@contextlib.contextmanager
def one_usable_core():
    """Force the zero-children case the way a one-core host would."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no sched_setaffinity on this platform")
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@pytest.fixture(scope="module")
def tau_traces():
    return list(generate_dataset(TauDecayModel(), 60, rng=RandomState(2024)))


def build_trainer(dataset, num_ranks=2, **kwargs):
    config = Config(
        observation_shape=(8, 11, 11),
        lstm_hidden=16,
        observation_embedding_dim=8,
        address_embedding_dim=4,
        sample_embedding_dim=3,
        proposal_mixture_components=2,
    )
    network = InferenceNetwork(config=config, observe_key="detector", rng=RandomState(9))
    trainer = DistributedTrainer(
        network, dataset, num_ranks=num_ranks, local_minibatch_size=4, learning_rate=2e-3, seed=7, **kwargs
    )
    return trainer, network


# ---------------------------------------------------------------- determinism
#: (strategy, ranks, trainer options, first/last loss frozen at PR 15 — the
#: sequential-rank loop this trainer replaced — or None)
CASES = [
    ("dense", 2, {}, (7.278512420911716, 7.2617384642769816)),
    ("sparse", 2, {}, None),
    ("fused_sparse", 2, {}, (7.278512420911716, 7.261766391498345)),
    ("fused_sparse", 3, {"larc": True, "num_buckets": 2}, None),
]


class TestProcessCountDoesNotShow:
    ITERATIONS = 13  # 54 training traces: more than one epoch for 2 x 4 and for 3 x 4

    def train(self, traces, strategy, num_ranks, options):
        trainer, network = build_trainer(
            InMemoryTraceDataset(traces), num_ranks, allreduce_strategy=strategy,
            lr_schedule="poly2", **options,
        )
        assert self.ITERATIONS > len(trainer.samplers[0])  # crosses an epoch rollover
        report = trainer.train(self.ITERATIONS)
        return report, network.state_dict()

    @pytest.mark.parametrize("strategy, num_ranks, options, frozen", CASES)
    def test_one_process_equals_default(self, tau_traces, strategy, num_ranks, options, frozen):
        with one_usable_core():
            serial_report, serial_state = self.train(tau_traces, strategy, num_ranks, options)
        report, state = self.train(tau_traces, strategy, num_ranks, options)
        assert report.train_losses == serial_report.train_losses
        assert report.learning_rates == serial_report.learning_rates
        assert report.effective_minibatch_sizes == serial_report.effective_minibatch_sizes
        assert [(s.num_calls, s.elements) for s in report.communication] == [
            (s.num_calls, s.elements) for s in serial_report.communication
        ]
        assert all(stats.num_calls > 0 for stats in report.communication)
        assert state.keys() == serial_state.keys()
        for name in state:
            assert np.array_equal(state[name], serial_state[name]), name
        if frozen is not None:
            assert (report.train_losses[0], report.train_losses[-1]) == frozen

    @needs_two_cores
    def test_two_ranks_run_in_two_processes(self, tau_traces, tmp_path):
        """Structural, not wall-clock: the ranks of one step have different pids."""
        log = tmp_path / "pids"

        class PidLogging(InMemoryTraceDataset):
            def get_batch(self, indices):
                with open(log, "a") as handle:
                    handle.write(f"{os.getpid()}\n")
                return super().get_batch(indices)

        trainer, _ = build_trainer(PidLogging(tau_traces), validation_fraction=0.0)
        trainer.train(3)
        pids = [int(line) for line in log.read_text().split()]
        assert len(pids) == 6
        assert len(set(pids)) == 2 and os.getpid() in pids
        assert pids.count(os.getpid()) == 3  # one of the two ranks is the parent's, every step
        with one_usable_core():
            log.write_text("")
            trainer.train(2)
        assert {int(line) for line in log.read_text().split()} == {os.getpid()}


# ------------------------------------------------------------ failure semantics
class FaultyInRankProcess(InMemoryTraceDataset):
    """Reads fine in the parent; in a forked rank process it raises or dies."""

    def __init__(self, traces, fault):
        super().__init__(traces)
        self.parent_pid = os.getpid()
        self.fault = fault

    def get_batch(self, indices):
        if os.getpid() != self.parent_pid:
            if self.fault == "raise":
                raise OSError("shard 7 is unreadable")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().get_batch(indices)


@needs_two_cores
class TestRankFailures:
    def run_faulty(self, tau_traces, fault):
        trainer, network = build_trainer(FaultyInRankProcess(tau_traces, fault), validation_fraction=0.0)
        notifications = []
        network.add_update_listener(lambda: notifications.append(network.version))
        start = time.perf_counter()
        with pytest.raises(RuntimeError) as raised:
            trainer.train(5)
        assert time.perf_counter() - start < 30.0  # bounded: not a hang
        assert multiprocessing.active_children() == []
        assert notifications == []  # no step was applied
        assert trainer.report.train_losses == []
        return str(raised.value)

    def test_raising_rank_surfaces_with_its_traceback(self, tau_traces):
        message = self.run_faulty(tau_traces, "raise")
        assert message.startswith("rank 1 failed")
        assert "Traceback" in message and "OSError: shard 7 is unreadable" in message
        assert "get_batch" in message

    def test_killed_rank_process_surfaces(self, tau_traces):
        message = self.run_faulty(tau_traces, "kill")
        assert message.startswith("rank 1:") and "died mid-step" in message
        assert f"exit code {-signal.SIGKILL}" in message

    def test_raising_rank_of_the_parent_keeps_its_exception(self, tau_traces):
        class Unreadable(InMemoryTraceDataset):
            def get_batch(self, indices):
                raise OSError("shard 7 is unreadable")

        trainer, _ = build_trainer(Unreadable(tau_traces), validation_fraction=0.0)
        with pytest.raises(OSError, match="shard 7"):
            trainer.train(2)
        assert multiprocessing.active_children() == []


@needs_two_cores
class TestNoRankProcessOutlivesTrain:
    @pytest.mark.parametrize("ending", ["returns", "callback raises"])
    def test_children_joined_and_listeners_notified_once(self, tau_traces, ending):
        trainer, network = build_trainer(InMemoryTraceDataset(tau_traces), num_ranks=3)
        notifications = []
        network.add_update_listener(lambda: notifications.append(network.version))
        seen = []

        def callback(iteration, loss):
            seen.append([process.pid for process in multiprocessing.active_children()])
            if ending == "callback raises" and iteration == 1:
                raise KeyboardInterrupt

        if ending == "returns":
            trainer.train(2, callback=callback)
        else:
            with pytest.raises(KeyboardInterrupt):
                trainer.train(5, callback=callback)
        # 3 ranks on >= 2 cores: at least one rank process, the same for the whole call.
        assert len(seen) == 2 and seen[0] == seen[1] and 1 <= len(seen[0]) <= 2
        assert multiprocessing.active_children() == []
        assert notifications == [1]
        assert len(trainer.report.train_losses) == 2

    def test_idle_ranks_block_on_their_pipe(self, tau_traces):
        """The benchmark probes host speed inside the callback and needs a quiet host."""

        def cpu_ticks(pid):
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            return int(fields[11]) + int(fields[12])  # utime + stime

        if not os.path.exists("/proc/self/stat"):
            pytest.skip("no /proc")
        spent = []

        def callback(iteration, loss):
            (process,) = multiprocessing.active_children()
            before = cpu_ticks(process.pid)
            time.sleep(0.3)
            spent.append(cpu_ticks(process.pid) - before)

        trainer, _ = build_trainer(InMemoryTraceDataset(tau_traces))
        trainer.train(2, callback=callback)
        assert len(spent) == 2 and max(spent) <= 2  # a spinning rank would burn ~30 ticks


# ------------------------------------------------------------------- one rank
def two_draws():
    x = ppl.sample(Normal(0.0, 1.0), name="x")
    ppl.observe(Normal(x, 0.5), name="obs")
    return x


class TestOneRankStaysInProcess:
    @pytest.fixture(autouse=True)
    def forbid_rank_machinery(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("one-rank training built rank-process machinery")

        for name in ("_RankExchange", "_RankWorker", "_shared"):
            monkeypatch.setattr(trainer_module, name, forbidden)

    def engine(self):
        return InferenceCompilation(
            observation_embedding=ObservationEmbeddingFC(input_dim=1, embedding_dim=8, rng=RandomState(1)),
            observe_key="obs",
            rng=RandomState(5),
        )

    def test_inference_compilation_online_and_offline(self):
        model = FunctionModel(two_draws, name="two-draws")
        self.engine().train(model, num_traces=24, minibatch_size=8)
        self.engine().train(dataset=model.prior_traces(24, rng=RandomState(3)), num_traces=24, minibatch_size=8)
        assert multiprocessing.active_children() == []

    def test_one_rank_distributed_trainer(self, tau_traces):
        trainer, _ = build_trainer(InMemoryTraceDataset(tau_traces), num_ranks=1)
        report = trainer.train(2)
        assert len(report.train_losses) == 2
        assert all(stats.num_calls == 0 for stats in report.communication)
