"""Tests for the data subsystem: shard store, datasets, sorting, batching, sampler."""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import Config
from repro.common.rng import RandomState
from repro.data import (
    DistributedTraceSampler,
    InMemoryTraceDataset,
    ShardStore,
    TraceDataset,
    dynamic_token_batches,
    effective_minibatch_size,
    generate_dataset,
    regroup_dataset,
    sorted_indices_by_trace_type,
    split_into_sub_minibatches,
    sub_minibatch_count,
)
from repro.data import packing
from repro.data.packing import pack_minibatch, read_packs
from repro.data.sampler import chunk_cost
from repro.distributed import DistributedTrainer
from repro.ppl.nn.inference_network import InferenceNetwork
from repro.simulators import TauDecayModel
from tests.test_training_packed import assert_packs_equal


class TestShardStore:
    def test_append_and_read_back(self, tmp_path):
        store = ShardStore(str(tmp_path / "shards"), records_per_shard=3)
        ids = [store.append({"value": i}) for i in range(10)]
        assert ids == list(range(10))
        assert len(store) == 10
        assert store[7] == {"value": 7}

    def test_sharding_layout(self, tmp_path):
        store = ShardStore(str(tmp_path / "shards"), records_per_shard=4)
        store.extend({"value": i} for i in range(10))
        store.flush()
        files = [f for f in os.listdir(tmp_path / "shards") if f.startswith("shard_")]
        assert len(files) == 3  # 4 + 4 + 2
        assert [store._index[i][0] for i in (0, 3, 4, 9)] == [0, 0, 1, 2]

    def test_persistence_roundtrip(self, tmp_path):
        directory = str(tmp_path / "shards")
        store = ShardStore(directory, records_per_shard=5)
        store.extend({"value": i} for i in range(12))
        store.flush()
        reopened = ShardStore(directory)
        assert len(reopened) == 12
        assert reopened[11] == {"value": 11}

    def test_handle_cache_hits(self, tmp_path):
        store = ShardStore(str(tmp_path / "shards"), records_per_shard=2, cache_size=2)
        store.extend({"value": i} for i in range(8))
        store.flush()
        store.clear_cache()
        for i in range(8):          # sequential access: one miss per shard, rest hits
            _ = store[i]
        assert store.cache_misses == 4
        assert store.cache_hits == 4

    def test_cache_eviction(self, tmp_path):
        store = ShardStore(str(tmp_path / "shards"), records_per_shard=1, cache_size=2)
        store.extend({"value": i} for i in range(5))
        store.flush()
        store.clear_cache()
        for i in range(5):
            _ = store[i]
        _ = store[0]  # evicted by now -> miss
        assert store.cache_misses == 6

    def test_a_read_decodes_one_record_not_one_shard(self, tmp_path, monkeypatch):
        store = ShardStore(str(tmp_path / "shards"), records_per_shard=4)
        store.extend({"value": i} for i in range(10))  # two shards on disk + an unflushed tail
        decoded = []
        loads = pickle.loads
        monkeypatch.setattr(
            "repro.data.shelf.pickle.loads", lambda data: decoded.append(loads(data)) or decoded[-1]
        )
        assert store[6] == {"value": 6}
        assert decoded == [{"value": 6}]
        assert store[9] == {"value": 9}  # from the tail, before any flush
        store.flush()
        assert ShardStore(str(tmp_path / "shards"))[9] == {"value": 9}

    def test_reads_are_positionless(self, tmp_path):
        # A forked rank process shares the parent's descriptors *and* their
        # file offsets: a read that seeks would race with the other process.
        store = ShardStore(str(tmp_path / "shards"), records_per_shard=5)
        store.extend({"value": i} for i in range(10))
        store.flush()
        assert [store[i]["value"] for i in (7, 2, 9, 0)] == [7, 2, 9, 0]
        assert len(store._cache) == 2
        assert all(os.lseek(descriptor, 0, os.SEEK_CUR) == 0 for descriptor in store._cache.values())

    def test_cache_size_bounds_open_descriptors(self, tmp_path):
        store = ShardStore(str(tmp_path / "shards"), records_per_shard=1, cache_size=2)
        store.extend({"value": i} for i in range(5))
        store.flush()
        for i in range(5):
            _ = store[i]
        assert len(store._cache) == 2
        evicted_and_open = list(store._cache.values())
        store.clear_cache()
        for descriptor in evicted_and_open:
            with pytest.raises(OSError):
                os.fstat(descriptor)

    def test_index_of_whole_shard_pickles_is_refused(self, tmp_path):
        directory = str(tmp_path / "shards")
        store = ShardStore(directory, records_per_shard=2)
        store.extend({"value": i} for i in range(4))
        store.flush()
        index_path = os.path.join(directory, ShardStore.INDEX_FILE)
        with open(index_path, "rb") as handle:
            payload = pickle.load(handle)
        payload["index"] = [(shard, position) for shard, position, _ in payload["index"]]
        with open(index_path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(ValueError, match="regenerate"):
            ShardStore(directory)

    def test_invalid_records_per_shard(self, tmp_path):
        with pytest.raises(ValueError):
            ShardStore(str(tmp_path / "x"), records_per_shard=0)

    def test_crash_during_index_write_keeps_previous_index(self, tmp_path, monkeypatch):
        # Regression: flush() used to write index.pkl in place, so a crash
        # mid-pickle corrupted the shard index and orphaned every shard file.
        # The atomic temp-file + os.replace path must leave the previous
        # index fully readable (and no torn .tmp file behind).
        directory = str(tmp_path / "shards")
        store = ShardStore(directory, records_per_shard=5)
        store.extend({"value": i} for i in range(7))
        store.flush()

        store.extend({"value": i} for i in range(7, 12))

        real_dump = pickle.dump

        def exploding_dump(obj, handle, *args, **kwargs):
            if isinstance(obj, dict) and "index" in obj:
                handle.write(b"torn!")  # partial bytes reach the target file
                raise OSError("simulated crash mid-flush")
            return real_dump(obj, handle, *args, **kwargs)

        monkeypatch.setattr("repro.data.shelf.pickle.dump", exploding_dump)
        with pytest.raises(OSError, match="simulated crash"):
            store.flush()
        monkeypatch.undo()

        assert not os.path.exists(os.path.join(directory, "index.pkl.tmp"))
        reopened = ShardStore(directory)
        assert len(reopened) == 7
        assert reopened[6] == {"value": 6}

    def test_flush_is_reloadable_after_interrupted_flush(self, tmp_path):
        # A later successful flush fully recovers: the replace is the only
        # publication point, so the index is either the old or the new one.
        directory = str(tmp_path / "shards")
        store = ShardStore(directory, records_per_shard=4)
        store.extend({"value": i} for i in range(9))
        store.flush()
        store.extend({"value": i} for i in range(9, 14))
        store.flush()
        reopened = ShardStore(directory)
        assert len(reopened) == 14
        assert reopened[13] == {"value": 13}


class TestTraceDataset:
    def test_roundtrip_on_disk(self, tau_model, rng, tmp_path):
        directory = str(tmp_path / "dataset")
        dataset = generate_dataset(tau_model, 20, directory=directory, records_per_shard=8, rng=rng)
        assert isinstance(dataset, TraceDataset)
        assert len(dataset) == 20
        reopened = TraceDataset(directory)
        assert len(reopened) == 20
        trace = reopened[3]
        assert trace.length == reopened.trace_length_of(3)
        assert trace.trace_type == reopened.trace_type_of(3)
        assert "detector" in trace.observation or trace.observation is not None

    def test_in_memory_dataset(self, tau_model, rng):
        dataset = generate_dataset(tau_model, 15, rng=rng)
        assert isinstance(dataset, InMemoryTraceDataset)
        assert len(dataset) == 15
        assert dataset.num_trace_types() >= 1
        assert dataset.get_batch([0, 1])[0] is dataset[0]
        assert len(list(iter(dataset))) == 15

    def test_metadata_matches_traces(self, tiny_tau_dataset):
        for index in range(0, len(tiny_tau_dataset), 7):
            trace = tiny_tau_dataset[index]
            assert trace.length == tiny_tau_dataset.trace_length_of(index)
            assert trace.trace_type == tiny_tau_dataset.trace_type_of(index)

    def test_disk_dataset_restores_prior_log_probs(self, tau_model, rng, tmp_path):
        dataset = generate_dataset(tau_model, 5, directory=str(tmp_path / "d"), rng=rng)
        trace = dataset[0]
        assert np.isfinite(trace.log_prior)
        assert trace.log_prior != 0.0


    def test_unflushed_traces_read_back(self, tau_model, rng, tmp_path):
        dataset = TraceDataset(str(tmp_path / "d"), records_per_shard=4)
        traces = tau_model.prior_traces(6, rng=rng)
        for trace in traces:  # one shard on disk, two traces pending
            dataset.add_trace(trace)
        for index in (1, 5):
            assert dataset[index].trace_type == traces[index].trace_type
            assert np.array_equal(dataset[index].observation["detector"], traces[index].observation["detector"])

    @pytest.mark.parametrize("damage", ["wrong shape", "wrong payload keys"])
    def test_record_its_distribution_cannot_score_raises(self, tau_model, rng, tmp_path, damage):
        # Regression: restore_trace swallowed the failure and restored the
        # sample with log_prob = 0.0, so a corrupt record trained silently
        # with a wrong prior term.
        dataset = TraceDataset(str(tmp_path / "d"))
        traces = tau_model.prior_traces(3, rng=rng)
        for trace in traces[:2]:
            dataset.add_trace(trace)
        address = append_damaged_record(dataset, traces[2], damage)
        assert dataset[1].log_prior != 0.0  # its neighbours still read
        with pytest.raises(ValueError) as raised:
            dataset[2]
        assert "dataset index 2" in str(raised.value) and address in str(raised.value)


def append_damaged_record(dataset, trace, damage) -> str:
    """Store ``trace`` with its first sample's distribution unable to score
    its value; returns that sample's address."""
    from repro.trace.pruning import prune_trace

    record = prune_trace(trace, address_dictionary=dataset.address_dictionary)
    sample = record["samples"][0]
    if damage == "wrong shape":
        sample["distribution"] = {"type": "Normal", "loc": [0.0, 1.0, 2.0], "scale": [1.0, 1.0, 1.0]}
        sample["value"] = [0.5, 0.5]
    else:
        sample["distribution"] = {"type": sample["distribution"]["type"], "no_such_parameter": 1.0}
    dataset.store.append(record)
    dataset.trace_types.append(trace.trace_type)
    dataset.trace_lengths.append(trace.length)
    return trace.samples[0].address


class TestSorting:
    def test_sorted_indices_group_trace_types(self, tiny_tau_dataset):
        order = sorted_indices_by_trace_type(tiny_tau_dataset)
        assert sorted(order) == list(range(len(tiny_tau_dataset)))
        types_in_order = [tiny_tau_dataset.trace_type_of(i) for i in order]
        # sorted order => identical types are contiguous
        changes = sum(1 for a, b in zip(types_in_order, types_in_order[1:]) if a != b)
        assert changes == tiny_tau_dataset.num_trace_types() - 1

    def test_regroup_dataset_writes_sorted_copy(self, tau_model, rng, tmp_path):
        source = generate_dataset(tau_model, 12, rng=rng)
        regrouped = regroup_dataset(source, str(tmp_path / "sorted"), records_per_shard=6)
        assert len(regrouped) == 12
        types = [regrouped.trace_type_of(i) for i in range(len(regrouped))]
        changes = sum(1 for a, b in zip(types, types[1:]) if a != b)
        assert changes == len(set(types)) - 1


class TestBatching:
    def test_split_into_sub_minibatches(self, tiny_tau_dataset):
        traces = tiny_tau_dataset.get_batch(range(20))
        groups = split_into_sub_minibatches(traces)
        assert sum(len(g) for g in groups) == 20
        for group in groups:
            assert len({t.trace_type for t in group}) == 1

    def test_effective_minibatch_size(self):
        assert effective_minibatch_size(["a"] * 8) == pytest.approx(8.0)
        assert effective_minibatch_size(["a", "b", "a", "b"]) == pytest.approx(2.0)
        assert effective_minibatch_size([]) == 0.0
        assert sub_minibatch_count(["a", "b", "b"]) == 2

    def test_dynamic_token_batches_respect_budget(self):
        lengths = [5, 5, 5, 20, 3, 3, 3, 3]
        batches = dynamic_token_batches(lengths, tokens_per_batch=12)
        assert sorted(i for batch in batches for i in batch) == list(range(len(lengths)))
        for batch in batches:
            if len(batch) > 1:
                assert sum(lengths[i] for i in batch) <= 12

    def test_dynamic_token_batches_single_long_trace(self):
        batches = dynamic_token_batches([100], tokens_per_batch=10)
        assert batches == [[0]]

    def test_dynamic_token_batches_validation(self):
        with pytest.raises(ValueError):
            dynamic_token_batches([1, 2], tokens_per_batch=0)

    @settings(max_examples=30, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=60),
        budget=st.integers(min_value=1, max_value=100),
    )
    def test_dynamic_token_batches_partition_property(self, lengths, budget):
        batches = dynamic_token_batches(lengths, tokens_per_batch=budget)
        flat = sorted(i for batch in batches for i in batch)
        assert flat == list(range(len(lengths)))
        for batch in batches:
            assert len(batch) >= 1


class TestDistributedSampler:
    def _sampler(self, dataset, num_ranks=2, minibatch_size=8, sorted_indices=None, seed=0):
        order = sorted_indices_by_trace_type(dataset) if sorted_indices is None else sorted_indices
        lengths = [dataset.trace_length_of(i) for i in range(len(dataset))]
        types = [dataset.trace_type_of(i) for i in range(len(dataset))]
        return DistributedTraceSampler(
            order, minibatch_size=minibatch_size, num_ranks=num_ranks, lengths=lengths, trace_types=types, seed=seed
        )

    def test_chunk_cost_is_lstm_steps_then_sub_minibatches(self):
        lengths = [5, 5, 9, 9, 2]
        types = ["a", "a", "b", "b", "c"]
        assert chunk_cost([0, 1], lengths, types) == (5, 1)  # one type: one LSTM pass
        assert chunk_cost([0, 2, 3], lengths, types) == (14, 2)
        assert chunk_cost([0, 2, 4], lengths, types) == (16, 3)

    def test_every_chunk_is_dealt_once_per_epoch(self, tiny_tau_dataset):
        # 60 traces make 7 chunks of 8: four groups of two, the last group's
        # first place filled by repeating the next-costliest chunk.
        sampler = self._sampler(tiny_tau_dataset)
        groups = list(sampler)
        assert len(groups) == len(sampler) == 4
        dealt = [tuple(chunk) for group in groups for chunk in group]
        assert len(set(dealt)) == len(tiny_tau_dataset) // 8 and len(dealt) == 8

    @pytest.mark.parametrize("num_ranks", [2, 3])
    def test_groups_are_cost_matched(self, tiny_tau_dataset, num_ranks):
        """A group is a run of neighbours in cost order: no other chunk costs
        strictly between its cheapest and its costliest chunk."""
        lengths = [tiny_tau_dataset.trace_length_of(i) for i in range(len(tiny_tau_dataset))]
        types = [tiny_tau_dataset.trace_type_of(i) for i in range(len(tiny_tau_dataset))]
        groups = list(self._sampler(tiny_tau_dataset, num_ranks=num_ranks))
        cost = {tuple(chunk): chunk_cost(chunk, lengths, types) for group in groups for chunk in group}
        for group in groups:
            assert len(group) == num_ranks
            members = {tuple(chunk) for chunk in group}
            low, high = min(cost[c] for c in members), max(cost[c] for c in members)
            assert not any(low < cost[c] < high for c in cost if c not in members)

    def test_minibatch_sizes_fixed(self, tiny_tau_dataset):
        for group in self._sampler(tiny_tau_dataset):
            assert len(group) == 2 and all(len(chunk) == 8 for chunk in group)

    def test_epoch_shuffling_changes_order_but_not_content(self, tiny_tau_dataset):
        sampler = self._sampler(tiny_tau_dataset)
        first = list(sampler)
        sampler.set_epoch(1)
        second = list(sampler)
        assert sorted(first) == sorted(second)
        assert first != second

    def test_same_seed_same_order(self, tiny_tau_dataset):
        a = list(self._sampler(tiny_tau_dataset, seed=3))
        b = list(self._sampler(tiny_tau_dataset, seed=3))
        assert a == b

    def test_fewer_chunks_than_ranks_repeats_them(self):
        groups = list(DistributedTraceSampler(
            list(range(16)), minibatch_size=8, num_ranks=3, lengths=[1] * 16, trace_types=["a"] * 16,
        ))
        assert groups == [[list(range(8)), list(range(8)), list(range(8, 16))]]

    def test_more_ranks_than_chunks_starves_no_rank(self, tiny_tau_dataset):
        # 60 traces make 7 chunks of 8; ten ranks share one group in which
        # every chunk is dealt and each rank gets a full chunk.
        groups = list(self._sampler(tiny_tau_dataset, num_ranks=10))
        assert len(groups) == 1 and len(groups[0]) == 10
        assert all(len(chunk) == 8 for chunk in groups[0])
        assert len({tuple(chunk) for chunk in groups[0]}) == 7

    def test_sorted_chunks_have_fewer_types_than_unsorted(self, tiny_tau_dataset):
        def mean_types_per_chunk(order):
            sampler = self._sampler(tiny_tau_dataset, num_ranks=1, sorted_indices=order)
            counts = [
                len({tiny_tau_dataset.trace_type_of(i) for i in chunk}) for (chunk,) in sampler
            ]
            return float(np.mean(counts))

        sorted_order = sorted_indices_by_trace_type(tiny_tau_dataset)
        unsorted_order = list(range(len(tiny_tau_dataset)))
        assert mean_types_per_chunk(sorted_order) <= mean_types_per_chunk(unsorted_order)

    def test_validation(self, tiny_tau_dataset):
        order = list(range(len(tiny_tau_dataset)))
        with pytest.raises(ValueError):
            self._sampler(tiny_tau_dataset, minibatch_size=0)
        with pytest.raises(ValueError):
            self._sampler(tiny_tau_dataset, num_ranks=0)
        with pytest.raises(ValueError, match="7 traces fill no minibatch of 8"):
            self._sampler(tiny_tau_dataset, sorted_indices=order[:7])


# ------------------------------------------------------------- record decode
def tau_trainer(dataset, **options):
    config = Config(
        observation_shape=(8, 11, 11),
        lstm_hidden=16,
        observation_embedding_dim=8,
        address_embedding_dim=4,
        sample_embedding_dim=3,
        proposal_mixture_components=2,
    )
    network = InferenceNetwork(config=config, observe_key="detector", rng=RandomState(9))
    options = {"num_ranks": 2, "local_minibatch_size": 4, "learning_rate": 2e-3, "seed": 7, **options}
    return DistributedTrainer(network, dataset, **options)


@pytest.fixture(scope="module")
def tau_disk_dataset(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("tau") / "dataset")
    generate_dataset(TauDecayModel(), 60, directory=directory, records_per_shard=16, rng=RandomState(2024))
    return TraceDataset(directory)  # reopened: every read comes from the shard files


def packed_traces(dataset, indices):
    """What a rank read before records decoded straight into packs."""
    return pack_minibatch(dataset.get_batch(indices), "detector")


class TestRecordDecode:
    """A dealt chunk of a ``TraceDataset`` decodes from its stored records
    straight into the packs of its traces — no ``Trace`` in between, the same
    packs array for array, so the losses are bit-identical — and keeps
    ``restore_trace``'s check that every stored value scores under its own
    stored distribution."""

    @pytest.mark.parametrize("num_ranks", [2, 3])
    def test_dealt_chunks_decode_to_the_packs_of_their_traces(self, tau_disk_dataset, num_ranks):
        trainer = tau_trainer(tau_disk_dataset, num_ranks=num_ranks, validation_fraction=0.0)
        groups = []
        for _ in range(2 * len(trainer.sampler)):  # two epochs
            for rank in range(num_ranks):
                chunk = trainer._deal(rank)
                packs = trainer._read(chunk)
                assert_packs_equal(packs, packed_traces(tau_disk_dataset, chunk))
                groups.append(len(packs))
        assert max(groups) > 1  # chunks of several trace types were dealt

    def test_seeded_losses_are_bit_identical_with_only_the_read_changed(self, tau_disk_dataset, monkeypatch):
        decoded = tau_trainer(tau_disk_dataset)
        decoded_report = decoded.train(12, validate_every=6)
        restored = tau_trainer(tau_disk_dataset)
        monkeypatch.setattr(restored, "_read", lambda indices: packed_traces(tau_disk_dataset, indices))
        restored_report = restored.train(12, validate_every=6)
        assert decoded_report.train_losses == restored_report.train_losses
        assert decoded_report.validation_losses == restored_report.validation_losses
        for (name, ours), (_, theirs) in zip(
            decoded.network.state_dict().items(), restored.network.state_dict().items()
        ):
            assert np.array_equal(ours, theirs), name

    def test_equal_payloads_share_one_prior_within_a_read_only(self, tau_disk_dataset):
        def priors(packs):
            return {id(p): p for pack in packs for step in pack.steps for p in step.priors}

        first = read_packs(tau_disk_dataset, range(24), "detector")
        shared = priors(first)
        payloads = [pickle.dumps(prior.to_dict()) for prior in shared.values()]
        assert len(payloads) == len(set(payloads)) < sum(p.batch_size * p.num_steps for p in first)
        again = read_packs(tau_disk_dataset, range(24), "detector")
        assert not shared.keys() & priors(again).keys()  # no cache outlives a read

    def test_one_log_prob_per_distinct_prior_per_step(self, tau_disk_dataset, monkeypatch):
        calls = []
        build = packing.distribution_from_dict

        def counting(payload):
            prior = build(payload)
            log_prob = prior.log_prob

            def counted(value):
                calls.append((id(prior), np.shape(value)))
                return log_prob(value)

            prior.log_prob = counted
            return prior

        monkeypatch.setattr(packing, "distribution_from_dict", counting)
        packs = read_packs(tau_disk_dataset, range(24), "detector")
        expected = []
        for pack in packs:
            for step in pack.steps:
                rows = {}
                for prior in step.priors:
                    rows[id(prior)] = rows.get(id(prior), 0) + 1
                expected += [(key, (count,)) for key, count in rows.items()]
        assert sorted(calls) == sorted(expected)

    @pytest.mark.parametrize("damage", ["wrong shape", "wrong payload keys"])
    def test_a_record_its_distribution_cannot_score_raises_in_the_trainers_read(
        self, tau_model, rng, tmp_path, damage
    ):
        dataset = TraceDataset(str(tmp_path / "d"))
        traces = tau_model.prior_traces(3, rng=rng)
        for trace in traces[:2]:
            dataset.add_trace(trace)
        trainer = tau_trainer(dataset, local_minibatch_size=1, validation_fraction=0.0)
        address = append_damaged_record(dataset, traces[2], damage)
        assert_packs_equal(trainer._read([0, 1]), packed_traces(dataset, [0, 1]))
        with pytest.raises(ValueError) as raised:
            trainer._read([0, 1, 2])
        assert "dataset index 2" in str(raised.value) and address in str(raised.value)

    def test_a_prior_the_stacked_call_cannot_score_falls_back_to_restore_trace(self, tau_model, rng, tmp_path):
        """Each record's scalar scores against three locations, so restore_trace
        accepts it; stacked, two values do not broadcast against three — the
        decode re-reads the records, which pass, and packs them."""
        from repro.trace.pruning import prune_trace

        dataset = TraceDataset(str(tmp_path / "d"))
        trace = tau_model.prior_traces(1, rng=rng)[0]
        for _ in range(2):
            record = prune_trace(trace, address_dictionary=dataset.address_dictionary)
            record["samples"][0]["distribution"] = {
                "type": "Normal", "loc": [0.0, 1.0, 2.0], "scale": [1.0, 1.0, 1.0]
            }
            dataset.store.append(record)
            dataset.trace_types.append(trace.trace_type)
            dataset.trace_lengths.append(trace.length)
        assert_packs_equal(read_packs(dataset, [0, 1], "detector"), packed_traces(dataset, [0, 1]))

    def test_an_in_memory_dataset_packs_its_traces(self, tiny_tau_dataset):
        packs = read_packs(tiny_tau_dataset, range(10), "detector")
        assert_packs_equal(packs, packed_traces(tiny_tau_dataset, range(10)))
