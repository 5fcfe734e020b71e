"""Tests for the distributed subsystem: allreduce, trainer, perf model."""

from collections import Counter

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.rng import RandomState
from repro.data import InMemoryTraceDataset, generate_dataset, sorted_indices_by_trace_type
from repro.data.sampler import DistributedTraceSampler, chunk_cost
from repro.distributed import (
    CORI,
    EDISON,
    PAPER_TABLE2,
    PLATFORMS,
    ClusterPerformanceModel,
    CommunicationStats,
    DistributedTrainer,
    SingleNodeModel,
    dense_allreduce,
    fused_sparse_allreduce,
    sparse_allreduce,
)
from repro.ppl.nn import InferenceNetwork
from repro.ppl.nn.embeddings import ObservationEmbeddingFC

import reference_kernels as ref


def _make_per_rank_gradients():
    """Two ranks with overlapping but different non-null gradient sets."""
    shapes = {"shared": (4,), "only_a": (2, 2), "only_b": (3,), "never": (5,)}
    rank_a = {"shared": np.ones(4), "only_a": np.full((2, 2), 2.0)}
    rank_b = {"shared": np.full(4, 3.0), "only_b": np.full(3, 4.0)}
    return [rank_a, rank_b], shapes


def flat_images(per_rank, shapes):
    """The ranks' gradient dicts as the exchange holds them: one row per rank,
    the tensors end to end in name order, absent ones zero and unflagged."""
    names = sorted(shapes)
    sizes = [int(np.prod(shapes[name])) for name in names]
    gradients = np.zeros((len(per_rank), sum(sizes)))
    present = np.zeros((len(per_rank), len(names)), dtype=bool)
    for row, rank_gradients in enumerate(per_rank):
        offset = 0
        for index, (name, size) in enumerate(zip(names, sizes)):
            if name in rank_gradients:
                gradients[row, offset : offset + size] = rank_gradients[name].reshape(-1)
                present[row, index] = True
            offset += size
    return gradients, present, sizes


def by_name(averaged, has_gradient, shapes):
    """The flat result as a dict of the tensors that come out with a gradient."""
    out, offset = {}, 0
    for name, present in zip(sorted(shapes), has_gradient):
        size = int(np.prod(shapes[name]))
        if present:
            out[name] = averaged[offset : offset + size].reshape(shapes[name])
        offset += size
    return out


STRATEGIES = {
    "dense": dense_allreduce,
    "sparse": sparse_allreduce,
    "fused_sparse": fused_sparse_allreduce,
}


class TestAllreduce:
    def run(self, strategy, per_rank, shapes, **kwargs):
        stats = CommunicationStats()
        averaged, has_gradient = STRATEGIES[strategy](*flat_images(per_rank, shapes), stats=stats, **kwargs)
        return by_name(averaged, has_gradient, shapes), stats

    def test_all_strategies_agree_numerically(self):
        grads, shapes = _make_per_rank_gradients()
        dense, _ = self.run("dense", grads, shapes)
        sparse, _ = self.run("sparse", grads, shapes)
        fused, _ = self.run("fused_sparse", grads, shapes, bucket_elements=5)
        for name in ("shared", "only_a", "only_b"):
            assert np.array_equal(dense[name], sparse[name])
            assert np.array_equal(dense[name], fused[name])
        assert np.allclose(dense["shared"], 2.0)       # (1 + 3) / 2
        assert np.allclose(dense["only_a"], 1.0)        # (2 + 0) / 2
        assert np.allclose(dense["never"], 0.0)
        assert "never" not in sparse and "never" not in fused

    @pytest.mark.parametrize("strategy, bucket_elements", [
        ("dense", None), ("sparse", None), ("fused_sparse", None), ("fused_sparse", 5), ("fused_sparse", 40),
    ])
    @pytest.mark.parametrize("num_ranks", [1, 2, 3])
    def test_flat_average_equals_the_per_name_dict_reduction(self, strategy, bucket_elements, num_ranks):
        """One pass over the flat images gives the per-name dict reduction's result
        bit for bit, with the same collective calls and elements."""
        rng = np.random.default_rng(num_ranks)
        shapes = {f"t{index:02d}": tuple(rng.integers(1, 5, size=rng.integers(1, 3))) for index in range(12)}
        per_rank = [
            {name: rng.standard_normal(shape) for name, shape in shapes.items() if rng.random() < 0.6}
            for _ in range(num_ranks)
        ]
        per_rank[0]["t00"] = -np.zeros(shapes["t00"])  # signed zeros average as before
        kwargs = {} if bucket_elements is None else {"bucket_elements": bucket_elements}
        flat, flat_stats = self.run(strategy, per_rank, shapes, **kwargs)
        expected_stats = CommunicationStats()
        expected = ref.dict_allreduce(strategy, per_rank, shapes, expected_stats, **kwargs)
        assert flat.keys() == expected.keys()
        for name in expected:
            assert flat[name].tobytes() == expected[name].tobytes(), name
        assert (flat_stats.num_calls, flat_stats.elements) == (expected_stats.num_calls, expected_stats.elements)

    def test_sparse_moves_fewer_elements_than_dense(self):
        grads, shapes = _make_per_rank_gradients()
        _, dense_stats = self.run("dense", grads, shapes)
        _, sparse_stats = self.run("sparse", grads, shapes)
        assert sparse_stats.elements < dense_stats.elements
        assert sparse_stats.modeled_time < dense_stats.modeled_time

    def test_fusion_reduces_number_of_calls(self):
        grads, shapes = _make_per_rank_gradients()
        _, sparse_stats = self.run("sparse", grads, shapes)
        _, fused_stats = self.run("fused_sparse", grads, shapes, bucket_elements=10_000)
        assert fused_stats.num_calls < sparse_stats.num_calls
        assert fused_stats.modeled_time <= sparse_stats.modeled_time

    def test_communication_stats_accounting(self):
        stats = CommunicationStats(latency_s=1e-3, bandwidth_bytes_per_s=1e6)
        stats.add_call(1000)
        assert stats.bytes == 4000
        assert stats.modeled_time == pytest.approx(1e-3 + 4000 / 1e6)

    def test_single_rank_average_is_identity(self):
        averaged, has_gradient = sparse_allreduce(
            np.arange(4.0).reshape(1, 4), np.ones((1, 1), dtype=bool), [4]
        )
        assert np.array_equal(averaged, np.arange(4.0)) and has_gradient.tolist() == [True]


class TestPerformanceModel:
    def test_table1_platform_registry(self):
        assert set(PLATFORMS) == {"IVB", "HSW", "BDW", "SKL", "CSL"}
        assert PLATFORMS["HSW"].cores_per_socket == 16
        assert PLATFORMS["IVB"].peak_sp_gflops_per_socket == pytest.approx(460.8)

    def test_table2_shape_matches_paper_ordering(self):
        model = SingleNodeModel()  # calibrated on the paper's HSW rate
        table = model.table2()
        # Ordering of single-socket throughput across platforms matches Table 2.
        ours = [table[code]["1socket_traces_per_s"] for code in ("IVB", "HSW", "BDW", "SKL", "CSL")]
        paper = [PAPER_TABLE2[code]["1socket"] for code in ("IVB", "HSW", "BDW", "SKL", "CSL")]
        assert np.argsort(ours).tolist() == np.argsort(paper).tolist()
        # And each platform is within 25% of the paper's measured traces/s.
        for code in PAPER_TABLE2:
            assert table[code]["1socket_traces_per_s"] == pytest.approx(
                PAPER_TABLE2[code]["1socket"], rel=0.25
            )

    def test_two_sockets_scale_sublinearly(self):
        model = SingleNodeModel()
        for code in PLATFORMS:
            one = model.throughput(code, 1)
            two = model.throughput(code, 2)
            assert one < two < 2 * one

    def test_custom_measured_rate_rescales(self):
        model = SingleNodeModel(reference_platform="HSW", measured_traces_per_s=100.0)
        assert model.throughput("HSW", 1) == pytest.approx(100.0)
        assert model.throughput("IVB", 1) < 100.0

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            SingleNodeModel(reference_platform="XXX")

    def test_weak_scaling_monotone_and_below_ideal(self):
        model = ClusterPerformanceModel(CORI, rng=RandomState(0))
        points = model.weak_scaling([1, 16, 64, 256, 1024], iterations=5)
        throughputs = [p.average_traces_per_s for p in points]
        assert all(a < b for a, b in zip(throughputs, throughputs[1:]))
        for p in points:
            assert p.average_traces_per_s <= p.ideal_traces_per_s
            assert p.peak_traces_per_s >= p.average_traces_per_s
        # Efficiency decreases with node count (Figure 6's gap from ideal).
        assert points[-1].efficiency < points[0].efficiency

    def test_weak_scaling_cori_faster_than_edison(self):
        cori = ClusterPerformanceModel(CORI, rng=RandomState(0)).weak_scaling([1024], iterations=5)[0]
        edison = ClusterPerformanceModel(EDISON, rng=RandomState(0)).weak_scaling([1024], iterations=5)[0]
        assert cori.average_traces_per_s > edison.average_traces_per_s

    def test_phase_breakdown_imbalance_grows_with_sockets(self):
        model = ClusterPerformanceModel(CORI, rng=RandomState(1))
        breakdown = model.phase_breakdown([1, 2, 64], iterations=20)
        imbalances = [b.imbalance_percent for b in breakdown]
        assert imbalances[0] == pytest.approx(0.0, abs=1e-9)
        assert imbalances[1] < imbalances[2]
        assert "sync" in breakdown[2].actual
        assert "sync" not in breakdown[0].actual

    def test_phase_breakdown_phases_present(self):
        model = ClusterPerformanceModel(CORI, rng=RandomState(2))
        breakdown = model.phase_breakdown([2], iterations=5)[0]
        for phase in ("batch_read", "forward", "backward", "optimizer"):
            assert phase in breakdown.actual and phase in breakdown.best
            assert breakdown.actual[phase] >= breakdown.best[phase]


def build_trainer(dataset, num_ranks=2, **kwargs):
    config = Config(
        observation_shape=(8, 11, 11),
        lstm_hidden=16,
        observation_embedding_dim=8,
        address_embedding_dim=4,
        sample_embedding_dim=3,
        proposal_mixture_components=2,
    )
    network = InferenceNetwork(config=config, observe_key="detector")
    return DistributedTrainer(
        network, dataset, num_ranks=num_ranks, local_minibatch_size=4, learning_rate=2e-3, **kwargs
    ), network


class TestDistributedTrainer:
    def test_training_reduces_loss(self, tiny_tau_dataset):
        trainer, _ = build_trainer(tiny_tau_dataset)
        report = trainer.train(12)
        assert len(report.train_losses) == 12
        assert min(report.train_losses[-4:]) < report.train_losses[0]
        assert report.traces_per_iteration == 8
        assert report.num_parameters > 0

    def test_validation_split_and_loss(self, tiny_tau_dataset):
        trainer, _ = build_trainer(tiny_tau_dataset, validation_fraction=0.2)
        report = trainer.train(4, validate_every=2)
        assert len(report.validation_losses) == 2
        assert report.validation_iterations == [2, 4]
        assert np.isfinite(report.validation_losses[0])

    def test_no_validation_split_raises(self, tiny_tau_dataset):
        trainer, _ = build_trainer(tiny_tau_dataset, validation_fraction=0.0)
        with pytest.raises(RuntimeError):
            trainer.validate()

    def test_two_ranks_of_four_equal_one_rank_of_eight(self, tau_model, rng):
        """Synchronous SGD algebra: averaging the gradients of 2 ranks x 4
        traces is the gradient of 1 rank x the same 8 traces."""
        from repro.data import InMemoryTraceDataset

        dataset = InMemoryTraceDataset(tau_model.prior_traces(8, rng=rng))
        trainer_two, network_two = build_trainer(dataset, num_ranks=2, validation_fraction=0.0)
        network_one = InferenceNetwork(config=network_two.config, observe_key="detector")
        trainer_one = DistributedTrainer(
            network_one, dataset, num_ranks=1, local_minibatch_size=8, learning_rate=2e-3,
            validation_fraction=0.0,
        )
        initial = network_two.state_dict()
        network_one.load_state_dict(initial)
        report_two = trainer_two.train(1)
        report_one = trainer_one.train(1)
        assert report_two.train_losses[0] == pytest.approx(report_one.train_losses[0], rel=1e-12)
        state_two, state_one = network_two.state_dict(), network_one.state_dict()
        assert any(not np.array_equal(state_one[name], initial[name]) for name in initial)
        for name in initial:
            assert np.allclose(state_two[name], state_one[name], rtol=1e-9, atol=1e-12), name

    def test_second_train_call_continues_the_schedule(self, tau_model, rng, dealt_indices):
        """train(3); train(3) reads what one train(6) reads — across an epoch
        rollover — instead of replaying the first call's shuffles."""
        dataset = generate_dataset(tau_model, 20, rng=rng)
        split, _ = build_trainer(dataset, validation_fraction=0.0, seed=3)
        split_reads = dealt_indices(split)
        split.train(3)
        split.train(3)
        whole, _ = build_trainer(dataset, validation_fraction=0.0, seed=3)
        reads = dealt_indices(whole)
        whole.train(6)
        assert split_reads == reads
        assert len(split.report.train_losses) == 6
        assert split_reads[:6] != split_reads[6:]  # 5 chunks: the epoch rolled over

    @pytest.mark.parametrize("callback_raises", [False, True])
    def test_training_notifies_update_listeners(self, tiny_tau_dataset, callback_raises):
        """A served network retrained here must drop its cached posteriors
        and plans, also when the callback ends the run by raising."""
        trainer, network = build_trainer(tiny_tau_dataset)
        notifications = []
        network.add_update_listener(lambda: notifications.append(network.version))

        def stop_after_two(iteration, loss):
            if callback_raises and iteration == 1:
                raise KeyboardInterrupt

        if callback_raises:
            with pytest.raises(KeyboardInterrupt):
                trainer.train(5, callback=stop_after_two)
            assert len(trainer.report.train_losses) == len(trainer.phase_timer.records) == 2
        else:
            trainer.train(2, callback=stop_after_two)
        assert notifications == [1]

    def test_report_throughput_and_phases(self, tiny_tau_dataset):
        trainer, _ = build_trainer(tiny_tau_dataset)
        report = trainer.train(3)
        assert report.mean_throughput > 0
        assert report.best_throughput >= report.mean_throughput
        assert report.load_imbalance_percent >= 0
        for phase in ("batch_read", "forward_backward", "sync", "optimizer"):
            assert phase in report.phase_means
        assert all(stats.num_calls > 0 for stats in report.communication)
        assert all(size >= 1.0 for size in report.effective_minibatch_sizes)

    def test_lr_schedule_and_larc(self, tiny_tau_dataset):
        trainer, _ = build_trainer(
            tiny_tau_dataset, larc=True, lr_schedule="poly2", total_iterations_hint=6
        )
        report = trainer.train(6)
        assert report.learning_rates[-1] < report.learning_rates[0]

    def test_invalid_configuration(self, tiny_tau_dataset):
        with pytest.raises(ValueError):
            build_trainer(tiny_tau_dataset, num_ranks=0)
        with pytest.raises(ValueError):
            build_trainer(tiny_tau_dataset, lr_schedule="bogus")

    def test_trainer_has_no_bucket_option(self, tiny_tau_dataset):
        # The cost-matched deal balances ranks without length buckets.
        with pytest.raises(TypeError):
            build_trainer(tiny_tau_dataset, num_buckets=3)

    def test_a_training_split_smaller_than_one_minibatch_is_refused(self, tau_model, rng):
        # Three traces fill no chunk of 4: the schedule would be empty and
        # the first step would find nothing to deal.
        dataset = generate_dataset(tau_model, 3, rng=rng)
        with pytest.raises(ValueError, match="3 traces fill no minibatch of 4"):
            build_trainer(dataset)

    def test_epoch_rollover(self, tau_model, rng):
        dataset = generate_dataset(tau_model, 20, rng=rng)
        trainer, _ = build_trainer(dataset, validation_fraction=0.0)
        # More iterations than chunks per epoch forces the sampler to re-shuffle.
        report = trainer.train(8)
        assert len(report.train_losses) == 8


@pytest.fixture(scope="module")
def tau_200():
    from repro.simulators import TauDecayModel

    return InMemoryTraceDataset(list(generate_dataset(TauDecayModel(), 200, rng=RandomState(2024))))


def sorted_chunks(dataset, minibatch_size):
    """The chunks of Section 4.4.3: consecutive minibatch-size slices of the
    trace-type-sorted order, a short remainder dropped."""
    order = sorted_indices_by_trace_type(dataset)
    return [tuple(order[s : s + minibatch_size]) for s in range(0, len(order) - minibatch_size + 1, minibatch_size)]


class TestDeal:
    """One schedule: every chunk once per epoch, the trainer dealing the sampler's groups."""

    MINIBATCH = 8  # 200 traces: 25 chunks
    SEED = 11

    @staticmethod
    def costing(dataset):
        """Per-trace ``(lengths, trace_types)`` for :func:`chunk_cost`."""
        total = len(dataset)
        return [dataset.trace_length_of(i) for i in range(total)], [dataset.trace_type_of(i) for i in range(total)]

    def sampler_deal(self, dataset, num_ranks, epochs):
        """``epochs`` epochs of the sampler's groups, each begun with ``set_epoch``."""
        lengths, types = self.costing(dataset)
        sampler = DistributedTraceSampler(
            sorted_indices_by_trace_type(dataset), minibatch_size=self.MINIBATCH, num_ranks=num_ranks,
            lengths=lengths, trace_types=types, seed=self.SEED,
        )
        dealt = []
        for epoch in range(epochs):
            sampler.set_epoch(epoch)
            dealt.extend([tuple(chunk) for chunk in group] for group in sampler)
        return dealt

    def trainer_deal(self, dataset, num_ranks, iterations):
        network = InferenceNetwork(
            config=Config(observation_shape=(8, 11, 11), lstm_hidden=8, observation_embedding_dim=4,
                          address_embedding_dim=2, sample_embedding_dim=2, proposal_mixture_components=1),
            observe_key="detector",
        )
        trainer = DistributedTrainer(
            network, dataset, num_ranks=num_ranks, local_minibatch_size=self.MINIBATCH,
            validation_fraction=0.0, seed=self.SEED,
        )
        return [[tuple(trainer._deal(rank)) for rank in range(num_ranks)] for _ in range(iterations)]

    @staticmethod
    def assert_every_chunk_dealt_once_per_epoch(dealt, chunks, num_ranks, epochs):
        """n chunks are dealt in ceil(n / R) groups; only the fill of the last
        group repeats chunks, none is dropped, and no rank's epoch ends the
        others' early."""
        per_epoch = -(-len(chunks) // num_ranks)
        assert len(dealt) == epochs * per_epoch
        for epoch in range(epochs):
            counts = Counter(chunk for group in dealt[epoch * per_epoch : (epoch + 1) * per_epoch] for chunk in group)
            assert counts.keys() == set(chunks)
            assert sum(count - 1 for count in counts.values()) == -len(chunks) % num_ranks
        assert dealt[:per_epoch] != dealt[per_epoch : 2 * per_epoch]  # set_epoch reshuffles

    @pytest.mark.parametrize("num_ranks", [2, 3, 4])
    def test_every_chunk_is_dealt_once_per_epoch(self, tau_200, num_ranks):
        dealt = self.sampler_deal(tau_200, num_ranks, 3)
        self.assert_every_chunk_dealt_once_per_epoch(dealt, sorted_chunks(tau_200, self.MINIBATCH), num_ranks, 3)

    @pytest.mark.parametrize("num_ranks", [2, 3, 4])
    def test_no_step_pairs_chunks_apart_in_cost(self, tau_200, num_ranks):
        """Every step of three epochs deals a run of neighbours in cost order:
        no chunk left out of a group costs strictly between its members."""
        lengths, types = self.costing(tau_200)
        cost = {chunk: chunk_cost(chunk, lengths, types) for chunk in sorted_chunks(tau_200, self.MINIBATCH)}
        for group in self.sampler_deal(tau_200, num_ranks, 3):
            low, high = min(cost[c] for c in group), max(cost[c] for c in group)
            assert not any(low < cost[c] < high for c in cost if c not in group)

    @pytest.mark.parametrize("num_ranks", [2, 3, 4])
    def test_cost_matched_groups_balance_ranks_better_than_random_groups(self, tau_200, num_ranks):
        """A step's imbalance is its costliest rank's LSTM steps over the
        ranks' mean; the deal beats every one of ten random groupings of the
        same chunks."""
        lengths, types = self.costing(tau_200)

        def mean_imbalance(groups):
            steps = [np.array([chunk_cost(chunk, lengths, types)[0] for chunk in group], dtype=float) for group in groups]
            return float(np.mean([(s.max() - s.mean()) / s.mean() for s in steps]))

        dealt = mean_imbalance(self.sampler_deal(tau_200, num_ranks, 1))
        chunks = sorted_chunks(tau_200, self.MINIBATCH)
        generator = RandomState(self.SEED).generator
        for _ in range(10):
            shuffled = [chunks[i] for i in generator.permutation(len(chunks))]
            random_groups = [shuffled[s : s + num_ranks] for s in range(0, len(chunks) - num_ranks + 1, num_ranks)]
            assert dealt < mean_imbalance(random_groups)

    def test_trainer_deals_the_sampler_schedule_across_epochs(self, tau_200):
        """The trainer's cursor rolls the epoch over as ``set_epoch`` does."""
        num_ranks = 3
        chunks = sorted_chunks(tau_200, self.MINIBATCH)
        per_epoch = -(-len(chunks) // num_ranks)
        dealt = self.trainer_deal(tau_200, num_ranks, 3 * per_epoch)
        assert dealt == self.sampler_deal(tau_200, num_ranks, 3)
        self.assert_every_chunk_dealt_once_per_epoch(dealt, chunks, num_ranks, 3)


class TestShardJobs:
    def test_even_and_uneven_sharding(self):
        from repro.distributed import shard_jobs

        jobs = list(range(10))
        shards = shard_jobs(jobs, 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        assert [j for shard in shards for j in shard] == jobs  # order preserved

    def test_min_shard_size_caps_shard_count(self):
        from repro.distributed import shard_jobs

        jobs = list(range(10))
        assert len(shard_jobs(jobs, 8, min_shard_size=4)) == 2
        assert len(shard_jobs(jobs, 8, min_shard_size=16)) == 1  # too small to split
        assert shard_jobs([], 4) == []
        with pytest.raises(ValueError):
            shard_jobs(jobs, 4, min_shard_size=0)
