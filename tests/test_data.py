"""Tests for the data subsystem: shard store, datasets, sorting, batching, sampler."""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.rng import RandomState
from repro.data import (
    DistributedTraceSampler,
    InMemoryTraceDataset,
    ShardStore,
    TraceDataset,
    dynamic_token_batches,
    effective_minibatch_size,
    generate_dataset,
    parallel_sort_indices,
    regroup_dataset,
    sorted_indices_by_trace_type,
    sortedness_fraction,
    split_into_sub_minibatches,
    sub_minibatch_count,
)
from repro.data.sampler import chunk_cost


class TestShardStore:
    def test_append_and_read_back(self, tmp_path):
        store = ShardStore(str(tmp_path / "shards"), records_per_shard=3)
        ids = [store.append({"value": i}) for i in range(10)]
        assert ids == list(range(10))
        assert len(store) == 10
        assert store[7] == {"value": 7}
        assert store.get_many([0, 9]) == [{"value": 0}, {"value": 9}]

    def test_sharding_layout(self, tmp_path):
        store = ShardStore(str(tmp_path / "shards"), records_per_shard=4)
        store.extend({"value": i} for i in range(10))
        store.flush()
        files = [f for f in os.listdir(tmp_path / "shards") if f.startswith("shard_")]
        assert len(files) == 3  # 4 + 4 + 2
        assert store.shard_of(0) == 0 and store.shard_of(9) == 2

    def test_persistence_roundtrip(self, tmp_path):
        directory = str(tmp_path / "shards")
        store = ShardStore(directory, records_per_shard=5)
        store.extend({"value": i} for i in range(12))
        store.set_metadata("note", "hello")
        store.flush()
        reopened = ShardStore(directory)
        assert len(reopened) == 12
        assert reopened[11] == {"value": 11}
        assert reopened.get_metadata("note") == "hello"
        assert reopened.get_metadata("missing", 42) == 42

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
        dataset.add_traces(traces)  # one shard on disk, two traces pending
        for index in (1, 5):
            assert dataset[index].trace_type == traces[index].trace_type
            assert np.array_equal(dataset[index].observation["detector"], traces[index].observation["detector"])

    @pytest.mark.parametrize("damage", ["wrong shape", "wrong payload keys"])
    def test_record_its_distribution_cannot_score_raises(self, tau_model, rng, tmp_path, damage):
        # Regression: restore_trace swallowed the failure and restored the
        # sample with log_prob = 0.0, so a corrupt record trained silently
        # with a wrong prior term.
        from repro.trace.pruning import prune_trace

        dataset = TraceDataset(str(tmp_path / "d"))
        traces = tau_model.prior_traces(3, rng=rng)
        dataset.add_traces(traces[:2])
        record = prune_trace(traces[2], address_dictionary=dataset.address_dictionary)
        sample = record["samples"][0]
        address = traces[2].samples[0].address
        if damage == "wrong shape":
            sample["distribution"] = {"type": "Normal", "loc": [0.0, 1.0, 2.0], "scale": [1.0, 1.0, 1.0]}
            sample["value"] = [0.5, 0.5]
        else:
            sample["distribution"] = {"type": sample["distribution"]["type"], "no_such_parameter": 1.0}
        dataset.store.append(record)
        dataset.trace_types.append(traces[2].trace_type)
        dataset.trace_lengths.append(traces[2].length)
        assert dataset[1].log_prior != 0.0  # its neighbours still read
        with pytest.raises(ValueError) as raised:
            dataset[2]
        assert "dataset index 2" in str(raised.value) and address in str(raised.value)


class TestSorting:
    def test_sorted_indices_group_trace_types(self, tiny_tau_dataset):
        order = sorted_indices_by_trace_type(tiny_tau_dataset)
        assert sorted(order) == list(range(len(tiny_tau_dataset)))
        types_in_order = [tiny_tau_dataset.trace_type_of(i) for i in order]
        # sorted order => identical types are contiguous
        changes = sum(1 for a, b in zip(types_in_order, types_in_order[1:]) if a != b)
        assert changes == tiny_tau_dataset.num_trace_types() - 1

    def test_parallel_sort_matches_serial(self, tiny_tau_dataset):
        serial = sorted_indices_by_trace_type(tiny_tau_dataset)
        for workers in (1, 3, 8):
            assert parallel_sort_indices(tiny_tau_dataset, num_workers=workers) == serial

    def test_parallel_sort_validation(self, tiny_tau_dataset):
        with pytest.raises(ValueError):
            parallel_sort_indices(tiny_tau_dataset, num_workers=0)
        assert parallel_sort_indices(InMemoryTraceDataset([])) == []

    def test_sortedness_fraction_improves_after_sorting(self, tiny_tau_dataset):
        chunk = 8
        unsorted_types = [tiny_tau_dataset.trace_type_of(i) for i in range(len(tiny_tau_dataset))]
        sorted_types = [
            tiny_tau_dataset.trace_type_of(i) for i in sorted_indices_by_trace_type(tiny_tau_dataset)
        ]
        assert sortedness_fraction(sorted_types, chunk) >= sortedness_fraction(unsorted_types, chunk)

    def test_sortedness_fraction_validation(self):
        with pytest.raises(ValueError):
            sortedness_fraction(["a"], 0)
        assert sortedness_fraction([], 4) == 0.0

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
    def _sampler(self, dataset, num_ranks=2, **kwargs):
        order = sorted_indices_by_trace_type(dataset)
        lengths = [dataset.trace_length_of(i) for i in range(len(dataset))]
        types = [dataset.trace_type_of(i) for i in range(len(dataset))]
        return DistributedTraceSampler(
            order, minibatch_size=8, num_ranks=num_ranks, lengths=lengths, trace_types=types, **kwargs
        )

    def test_chunk_cost_is_lstm_steps_then_sub_minibatches(self):
        lengths = [5, 5, 9, 9, 2]
        types = ["a", "a", "b", "b", "c"]
        assert chunk_cost([0, 1], lengths, types) == (5, 1)  # one type: one LSTM pass
        assert chunk_cost([0, 2, 3], lengths, types) == (14, 2)
        assert chunk_cost([0, 2, 4], lengths, types) == (16, 3)

    def test_every_chunk_is_dealt_once_per_epoch(self, tiny_tau_dataset):
        # 60 traces make 7 chunks of 8: four groups of two, the last group's
        # first place filled by repeating the bucket's next-costliest chunk.
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

    def test_bucketing_keeps_every_group_in_one_bucket(self, tiny_tau_dataset):
        sampler = self._sampler(tiny_tau_dataset, num_buckets=3)
        bucket_of = {tuple(chunk): b for b, bucket in enumerate(sampler._buckets) for chunk in bucket}
        assert len(set(bucket_of.values())) == 3
        for group in sampler:
            assert len({bucket_of[tuple(chunk)] for chunk in group}) == 1

    def test_more_buckets_than_chunks_starves_no_rank(self, tiny_tau_dataset):
        # 60 traces make 7 chunks of 8; 10 one-chunk buckets would leave the
        # second rank nothing to pair with — the bucket count is capped at 3.
        sampler = self._sampler(tiny_tau_dataset, num_buckets=10)
        assert all(len(bucket) >= 2 for bucket in sampler._buckets)
        dealt = {tuple(chunk) for group in sampler for chunk in group}
        assert len(dealt) == 7

    def test_fewer_chunks_than_ranks_repeats_them(self):
        groups = list(DistributedTraceSampler(list(range(16)), minibatch_size=8, num_ranks=3, shuffle=False))
        assert groups == [[list(range(8)), list(range(8)), list(range(8, 16))]]

    def test_sorted_chunks_have_fewer_types_than_unsorted(self, tiny_tau_dataset):
        def mean_types_per_chunk(order):
            sampler = DistributedTraceSampler(order, minibatch_size=8, shuffle=False)
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
            DistributedTraceSampler(order, minibatch_size=0)
        with pytest.raises(ValueError):
            DistributedTraceSampler(order, minibatch_size=4, num_ranks=0)
        with pytest.raises(ValueError):
            DistributedTraceSampler(order, minibatch_size=4, num_buckets=0)
