"""Tests for the distributed subsystem: allreduce, trainer, perf model."""

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.rng import RandomState
from repro.data import generate_dataset
from repro.distributed import (
    CORI,
    EDISON,
    PAPER_TABLE2,
    PLATFORMS,
    ClusterPerformanceModel,
    CommunicationStats,
    DistributedTrainer,
    SingleNodeModel,
    average_gradients,
    compare_schemes,
    dense_allreduce,
    evaluate_scheme,
    fused_sparse_allreduce,
    sparse_allreduce,
)
from repro.ppl.nn import InferenceNetwork
from repro.ppl.nn.embeddings import ObservationEmbeddingFC


def _make_per_rank_gradients():
    """Two ranks with overlapping but different non-null gradient sets."""
    shapes = {"shared": (4,), "only_a": (2, 2), "only_b": (3,), "never": (5,)}
    rank_a = {"shared": np.ones(4), "only_a": np.full((2, 2), 2.0)}
    rank_b = {"shared": np.full(4, 3.0), "only_b": np.full(3, 4.0)}
    names = sorted(shapes)
    return [rank_a, rank_b], names, shapes


class TestAllreduce:
    def test_all_strategies_agree_numerically(self):
        grads, names, shapes = _make_per_rank_gradients()
        dense = dense_allreduce(grads, names, shapes)
        sparse = sparse_allreduce(grads, names, shapes)
        fused = fused_sparse_allreduce(grads, names, shapes, bucket_elements=5)
        for name in ("shared", "only_a", "only_b"):
            assert np.allclose(dense[name], sparse[name])
            assert np.allclose(dense[name], fused[name])
        assert np.allclose(dense["shared"], 2.0)       # (1 + 3) / 2
        assert np.allclose(dense["only_a"], 1.0)        # (2 + 0) / 2
        assert np.allclose(dense["never"], 0.0)
        assert "never" not in sparse and "never" not in fused

    def test_sparse_moves_fewer_elements_than_dense(self):
        grads, names, shapes = _make_per_rank_gradients()
        dense_stats, sparse_stats = CommunicationStats(), CommunicationStats()
        dense_allreduce(grads, names, shapes, dense_stats)
        sparse_allreduce(grads, names, shapes, sparse_stats)
        assert sparse_stats.elements < dense_stats.elements
        assert sparse_stats.modeled_time < dense_stats.modeled_time

    def test_fusion_reduces_number_of_calls(self):
        grads, names, shapes = _make_per_rank_gradients()
        sparse_stats, fused_stats = CommunicationStats(), CommunicationStats()
        sparse_allreduce(grads, names, shapes, sparse_stats)
        fused_sparse_allreduce(grads, names, shapes, bucket_elements=10_000, stats=fused_stats)
        assert fused_stats.num_calls < sparse_stats.num_calls
        assert fused_stats.modeled_time <= sparse_stats.modeled_time

    def test_average_gradients_dispatch(self):
        grads, names, shapes = _make_per_rank_gradients()
        for strategy in ("dense", "sparse", "fused_sparse"):
            out = average_gradients(grads, names, shapes, strategy=strategy)
            assert np.allclose(out["shared"], 2.0)
        with pytest.raises(ValueError):
            average_gradients(grads, names, shapes, strategy="bogus")

    def test_communication_stats_accounting(self):
        stats = CommunicationStats(latency_s=1e-3, bandwidth_bytes_per_s=1e6)
        stats.add_call(1000)
        assert stats.bytes == 4000
        assert stats.modeled_time == pytest.approx(1e-3 + 4000 / 1e6)

    def test_single_rank_average_is_identity(self):
        grads = [{"w": np.arange(4.0)}]
        out = average_gradients(grads, ["w"], {"w": (4,)}, strategy="sparse")
        assert np.allclose(out["w"], np.arange(4.0))


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

    @pytest.mark.parametrize("strategy", ["dense", "fused_sparse"])
    def test_two_ranks_of_four_equal_one_rank_of_eight(self, tau_model, rng, strategy):
        """Synchronous SGD algebra: averaging the gradients of 2 ranks x 4
        traces is the gradient of 1 rank x the same 8 traces."""
        from repro.data import InMemoryTraceDataset

        dataset = InMemoryTraceDataset(tau_model.prior_traces(8, rng=rng))
        trainer_two, network_two = build_trainer(
            dataset, num_ranks=2, validation_fraction=0.0, allreduce_strategy=strategy
        )
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

    def test_allreduce_strategies_give_same_training(self, tiny_tau_dataset):
        losses = {}
        for strategy in ("dense", "fused_sparse"):
            trainer, network = build_trainer(tiny_tau_dataset, allreduce_strategy=strategy, seed=7)
            if strategy == "dense":
                reference_state = network.state_dict()
            else:
                network.load_state_dict(reference_state)
            report = trainer.train(3)
            losses[strategy] = report.train_losses
        assert np.allclose(losses["dense"], losses["fused_sparse"], rtol=1e-6)

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
            build_trainer(tiny_tau_dataset, optimizer="bogus")
        with pytest.raises(ValueError):
            build_trainer(tiny_tau_dataset, lr_schedule="bogus")

    def test_epoch_rollover(self, tau_model, rng):
        dataset = generate_dataset(tau_model, 20, rng=rng)
        trainer, _ = build_trainer(dataset, validation_fraction=0.0)
        # More iterations than chunks per epoch forces the sampler to re-shuffle.
        report = trainer.train(8)
        assert len(report.train_losses) == 8


class TestLoadBalance:
    def test_sorting_improves_effective_minibatch(self, tiny_tau_dataset):
        unsorted = evaluate_scheme(tiny_tau_dataset, scheme="unsorted", num_ranks=2, local_minibatch_size=8)
        sorted_eval = evaluate_scheme(tiny_tau_dataset, scheme="sorted", num_ranks=2, local_minibatch_size=8)
        assert sorted_eval.mean_effective_minibatch >= unsorted.mean_effective_minibatch

    def test_bucketing_reduces_imbalance(self, tau_model, rng):
        dataset = generate_dataset(tau_model, 200, rng=rng)
        sorted_eval = evaluate_scheme(dataset, scheme="sorted", num_ranks=4, local_minibatch_size=8)
        bucketed = evaluate_scheme(dataset, scheme="bucketing", num_ranks=4, local_minibatch_size=8, num_buckets=5)
        assert bucketed.mean_imbalance_percent <= sorted_eval.mean_imbalance_percent + 1e-9

    def test_dynamic_batching_balances_tokens(self, tiny_tau_dataset):
        dynamic = evaluate_scheme(tiny_tau_dataset, scheme="dynamic", num_ranks=2, local_minibatch_size=8)
        assert dynamic.iterations > 0
        assert dynamic.mean_imbalance_percent < 50.0

    def test_compare_schemes_returns_all(self, tiny_tau_dataset):
        results = compare_schemes(tiny_tau_dataset, num_ranks=2, local_minibatch_size=8)
        assert set(results) == {"unsorted", "sorted", "bucketing", "dynamic"}
        for evaluation in results.values():
            assert evaluation.throughput_proxy > 0

    def test_unknown_scheme_rejected(self, tiny_tau_dataset):
        with pytest.raises(ValueError):
            evaluate_scheme(tiny_tau_dataset, scheme="bogus")


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
