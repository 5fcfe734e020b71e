"""Tests for the packed-minibatch vectorised training pipeline.

The load-bearing contract mirrors PR 3's batched-proposal contract, on the
training side: scoring a sub-minibatch through packed array inputs
(``vectorized_loss=True``, the default) must be **bit-identical** — in loss
value and in every parameter gradient — to the retained per-object reference
path (``vectorized_loss=False``), because the packed path is a
representation swap, not different math.  On top of that sit the offline
epoch schedule (sorted + token-budgeted minibatches, cached packs) and the
bookkeeping fixes that rode along (sub-minibatch counter, polymorph
fast-path).
"""

import numpy as np
import pytest

from repro import ppl
from repro.common.config import Config
from repro.common.rng import RandomState
from repro.data import InMemoryTraceDataset
from repro.data.packing import (
    PackedEpochPlan,
    pack_minibatch,
    pack_sub_minibatch,
)
from repro.distributed import DistributedTrainer, average_gradients
from repro.distributions import Categorical, Normal, Uniform
from repro.ppl import FunctionModel, observe, sample
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.ppl.nn.inference_network import InferenceNetwork
from repro.tensor import optim


def build_network(config, input_dim=4, vectorized_loss=True, seed=0):
    return InferenceNetwork(
        observation_embedding=ObservationEmbeddingFC(
            input_dim=input_dim, embedding_dim=config.observation_embedding_dim
        ),
        config=config,
        observe_key="obs",
        rng=RandomState(seed),
        vectorized_loss=vectorized_loss,
    )


def variable_program():
    """Mixed trace types, Categorical + bounded-Uniform priors."""
    n = sample(Categorical([0.4, 0.4, 0.2]), name="n")
    total = 0.0
    for i in range(int(n) + 1):
        total += sample(Uniform(-2.0, 2.0), name=f"x{i}", address=f"x{i}")
    scale = sample(Uniform(0.5, 1.5), name="scale", address="scale")
    observe(Normal(np.array([total, scale * total, float(n), total - scale]), 0.3), name="obs")
    return total


def loss_and_grads(network, traces):
    for p in network.parameters():
        p.grad = None
    loss = network.loss(traces)
    loss.backward()
    grads = {
        name: p.grad.copy() for name, p in network.named_parameters() if p.grad is not None
    }
    return loss.item(), grads


def assert_paths_bit_identical(network, traces):
    """Both loss paths on one network: same loss, same gradients, bitwise."""
    previous = network.vectorized_loss
    try:
        network.vectorized_loss = True
        packed_loss, packed_grads = loss_and_grads(network, traces)
        network.vectorized_loss = False
        reference_loss, reference_grads = loss_and_grads(network, traces)
    finally:
        network.vectorized_loss = previous
    assert packed_loss == reference_loss
    assert packed_grads.keys() == reference_grads.keys()
    for name in reference_grads:
        assert np.array_equal(packed_grads[name], reference_grads[name]), name


class TestLossEquivalence:
    def test_mixed_trace_types_and_prior_families(self, small_config, rng):
        """Categorical + bounded-Uniform priors across several trace types."""
        model = FunctionModel(variable_program, name="variable")
        network = build_network(small_config)
        traces = model.prior_traces(24, rng=rng)
        assert len({t.trace_type for t in traces}) > 1
        network.polymorph(traces)
        assert_paths_bit_identical(network, traces)

    def test_single_trace_degenerate_group(self, small_config, mixed_model, rng):
        """B=1 groups must survive packing (shape edge of every array path)."""
        network = build_network(small_config)
        traces = mixed_model.prior_traces(3, rng=rng)
        network.polymorph(traces)
        assert_paths_bit_identical(network, traces[:1])

    def test_discarded_address_resets_prev_embedding(self, small_config):
        """Frozen-network skip steps zero the previous-sample embedding in
        both paths (the PR 1 information-flow fix must survive packing)."""
        network = build_network(small_config, input_dim=2)
        prior = Normal(0.0, 1.0)
        network._create_layers("addr_1", prior)
        network._create_layers("addr_3", prior)
        network.freeze_architecture()

        def program():
            x1 = ppl.sample(Normal(0.0, 1.0), name="x1", address="addr_1")
            x2 = ppl.sample(Normal(0.0, 1.0), name="x2", address="addr_2")
            x3 = ppl.sample(Normal(0.0, 1.0), name="x3", address="addr_3")
            ppl.observe(Normal(np.array([x1 + x3, x2]), 0.5), name="obs")
            return x1

        model = FunctionModel(program, name="three_address")
        traces = [model.get_trace(rng=RandomState(100 + i)) for i in range(5)]
        assert_paths_bit_identical(network, traces)

    def test_loss_packed_matches_loss(self, small_config, mixed_model, rng):
        """Pre-built packs score identically to packing inside loss()."""
        network = build_network(small_config)
        traces = mixed_model.prior_traces(10, rng=rng)
        network.polymorph(traces)
        direct = network.loss(traces).item()
        packed = network.loss_packed(pack_minibatch(traces, observe_key="obs")).item()
        assert packed == direct

    def test_loss_packed_requires_packs(self, small_config):
        network = build_network(small_config)
        with pytest.raises(ValueError):
            network.loss_packed([])

    def test_offline_training_histories_identical(self, rng):
        """End-to-end: packed and reference engines under the same sorted
        schedule and seeds produce the same loss curve."""
        config = Config(
            observation_shape=(4, 5, 5),
            lstm_hidden=16,
            lstm_stacks=1,
            proposal_mixture_components=2,
            observation_embedding_dim=8,
            address_embedding_dim=4,
            sample_embedding_dim=3,
        )
        model = FunctionModel(variable_program, name="variable")
        dataset = model.prior_traces(60, rng=rng)

        def run(vectorized_loss):
            engine = InferenceCompilation(
                config=config,
                observation_embedding=ObservationEmbeddingFC(
                    input_dim=4, embedding_dim=8, rng=RandomState(1)
                ),
                observe_key="obs",
                rng=RandomState(7),
            )
            engine.network.vectorized_loss = vectorized_loss
            return engine.train(
                dataset=dataset, num_traces=240, minibatch_size=12, learning_rate=3e-3
            )

        packed_history = run(True)
        reference_history = run(False)
        assert packed_history.losses == reference_history.losses


class TestPacking:
    def test_pack_sub_minibatch_rejects_mixed_types(self, small_config, rng):
        model = FunctionModel(variable_program, name="variable")
        traces = model.prior_traces(30, rng=rng)
        by_type = {}
        for trace in traces:
            by_type.setdefault(trace.trace_type, trace)
        assert len(by_type) > 1
        with pytest.raises(ValueError):
            pack_sub_minibatch(list(by_type.values())[:2])

    def test_pack_sub_minibatch_requires_traces(self):
        with pytest.raises(ValueError):
            pack_sub_minibatch([])

    def test_packed_arrays_match_trace_contents(self, mixed_model, rng):
        traces = mixed_model.prior_traces(6, rng=rng)
        pack = pack_sub_minibatch(traces, observe_key="obs")
        assert pack.batch_size == 6
        assert pack.observations.shape == (6, 4)
        # mu step: bounded-Uniform geometry; k step: categorical indices + (B, K) prior probs
        mu_step, k_step = pack.steps
        assert mu_step.geometry is not None
        assert np.all(mu_step.geometry.bounded)
        assert np.array_equal(mu_step.geometry.lows, np.full(6, -2.0))
        assert mu_step.values_column.shape == (6, 1)
        assert k_step.indices is not None
        assert k_step.indices.dtype == np.int64
        packed_priors = k_step.packed_priors()
        assert packed_priors is not None
        assert packed_priors.probs.shape == (6, 3)
        assert k_step.packed_priors() is packed_priors  # built once, cached
        assert np.array_equal(
            k_step.indices, np.array([t["k"] for t in traces], dtype=np.int64)
        )

    def test_packed_priors_cover_the_array_families(self, rng):
        from repro.distributions import (
            BatchedMixtureOfTruncatedNormals,
            BatchedNormal,
            TruncatedNormal,
        )

        def program():
            a = sample(Normal(0.0, 1.0), name="a", address="a")
            b = sample(TruncatedNormal(0.0, 1.0, -1.0, 1.0), name="b", address="b")
            c = sample(Uniform(0.0, 1.0), name="c", address="c")
            observe(Normal(np.array([a + b, c]), 1.0), name="obs")

        traces = FunctionModel(program, name="families").prior_traces(3, rng=rng)
        pack = pack_sub_minibatch(traces, observe_key="obs")
        a_step, b_step, c_step = pack.steps
        assert isinstance(a_step.packed_priors(), BatchedNormal)
        assert isinstance(b_step.packed_priors(), BatchedMixtureOfTruncatedNormals)
        assert b_step.packed_priors().num_components == 1
        # Uniform has no batched-distribution form; its support is geometry.
        assert c_step.packed_priors() is None
        assert c_step.geometry is not None and c_step.geometry.all_bounded

    def test_packed_priors_survive_pickling(self, mixed_model, rng):
        """The lazy-build sentinel must not leak through pickling: an
        unpickled pack builds (or re-uses) real packed priors, never the
        copied sentinel object."""
        import pickle

        pack = pack_sub_minibatch(mixed_model.prior_traces(4, rng=rng), observe_key="obs")
        unbuilt = pickle.loads(pickle.dumps(pack))
        packed = unbuilt.steps[1].packed_priors()
        assert packed is not None and packed.probs.shape == (4, 3)
        pack.steps[1].packed_priors()  # build, then pickle the built cache
        rebuilt = pickle.loads(pickle.dumps(pack))
        assert rebuilt.steps[1].packed_priors().probs.shape == (4, 3)

    def test_pack_minibatch_groups_by_type(self, rng):
        model = FunctionModel(variable_program, name="variable")
        traces = model.prior_traces(30, rng=rng)
        packs = pack_minibatch(traces, observe_key="obs")
        assert len(packs) == len({t.trace_type for t in traces})
        assert sum(p.batch_size for p in packs) == len(traces)


class TestEpochPlan:
    def test_plan_covers_dataset_each_epoch(self, rng):
        model = FunctionModel(variable_program, name="variable")
        traces = model.prior_traces(40, rng=rng)
        plan = PackedEpochPlan(traces, minibatch_size=8, observe_key="obs")
        scheduled = []
        for _ in range(len(plan)):
            scheduled.extend(plan.batches[plan.next_batch_id(rng)])
        assert sorted(scheduled) == list(range(len(traces)))
        assert plan.epochs_started == 1
        plan.next_batch_id(rng)
        assert plan.epochs_started == 2

    def test_sorted_plan_minibatches_are_mostly_single_type(self, rng):
        """The point of sorting: far fewer sub-minibatches than random draws."""
        model = FunctionModel(variable_program, name="variable")
        traces = model.prior_traces(60, rng=rng)
        num_types = len({t.trace_type for t in traces})
        assert num_types > 1
        plan = PackedEpochPlan(traces, minibatch_size=12, observe_key="obs")
        group_counts = [len(plan.packs(b)) for b in range(len(plan))]
        # Sorted chunks touch a type boundary at most once per batch.
        assert max(group_counts) <= 2
        assert sum(group_counts) <= len(plan) + num_types - 1

    def test_packs_are_cached_across_epochs(self, rng):
        model = FunctionModel(variable_program, name="variable")
        traces = model.prior_traces(20, rng=rng)
        plan = PackedEpochPlan(traces, minibatch_size=5, observe_key="obs")
        first = plan.packs(0)
        assert plan.packs(0) is first

    def test_token_budget_bounds_long_trace_batches(self):
        """Dynamic token batching: long traces get smaller minibatches."""
        model = FunctionModel(variable_program, name="variable")
        traces = model.prior_traces(48, rng=RandomState(3))
        plan = PackedEpochPlan(traces, minibatch_size=8, observe_key="obs")
        lengths = {len(batch): None for batch in plan.batches}
        budget = plan.tokens_per_batch
        for batch in plan.batches:
            tokens = sum(traces[i].length for i in batch)
            # Every batch fits the budget unless it is a single long trace.
            assert tokens <= budget or len(batch) == 1
        assert len(lengths) > 1  # long-trace batches really are smaller

    def test_plan_validates_inputs(self, mixed_model, rng):
        with pytest.raises(ValueError):
            PackedEpochPlan([], minibatch_size=4)
        with pytest.raises(ValueError):
            PackedEpochPlan(mixed_model.prior_traces(3, rng=rng), minibatch_size=0)

    def test_train_rejects_unknown_offline_schedule(self, mixed_model, rng):
        engine = InferenceCompilation(
            observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=8),
            observe_key="obs",
            rng=RandomState(0),
        )
        with pytest.raises(ValueError):
            engine.train(
                dataset=mixed_model.prior_traces(8, rng=rng),
                num_traces=8,
                minibatch_size=4,
                offline_schedule="bogus",
            )
        # A bad VALUE must also fail before the irreversible freeze.
        with pytest.raises(ValueError):
            engine.train(dataset=mixed_model.prior_traces(8, rng=rng), num_traces=8, minibatch_size=0)
        assert not engine.network._frozen


def build_engine(config, vectorized_loss=True):
    engine = InferenceCompilation(
        config=config,
        observation_embedding=ObservationEmbeddingFC(
            input_dim=4, embedding_dim=config.observation_embedding_dim, rng=RandomState(1)
        ),
        observe_key="obs",
        rng=RandomState(5),
    )
    engine.network.vectorized_loss = vectorized_loss
    return engine


@pytest.mark.parametrize("vectorized_loss", [True, False])
class TestOneTrainingLoop:
    """Every trainer is a batch source feeding the one ``TrainingLoop`` step:
    its seeded loss curve equals a hand-rolled ``zero_grad -> loss(traces) ->
    backward -> step`` loop over the same minibatches, bit for bit."""

    ITERATIONS = 7
    MINIBATCH = 6

    @staticmethod
    def reference_losses(network, optimizer, minibatches):
        losses = []
        for traces in minibatches:
            new_parameters = network.polymorph(traces)  # online growth; frozen: none
            optimizer.add_param_group([p for _, p in new_parameters], [n for n, _ in new_parameters])
            network.zero_grad()
            loss = network.loss(traces)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        return losses

    def test_loss_reaches_loss_packed(self, small_config, mixed_model, rng, vectorized_loss, monkeypatch):
        network = build_network(small_config, vectorized_loss=vectorized_loss)
        traces = mixed_model.prior_traces(5, rng=rng)
        network.polymorph(traces)
        calls = []
        loss_packed = network.loss_packed

        def spy(packs):
            calls.append(packs)
            return loss_packed(packs)

        monkeypatch.setattr(network, "loss_packed", spy)
        value = network.loss(traces).item()
        assert len(calls) == 1 and [p.traces for p in calls[0]] == [p.traces for p in pack_minibatch(traces, "obs")]
        assert value == loss_packed(pack_minibatch(traces, "obs")).item()

    def test_online_history(self, small_config, vectorized_loss):
        model = FunctionModel(variable_program, name="variable")
        engine = build_engine(small_config, vectorized_loss)
        history = engine.train(
            model, num_traces=self.ITERATIONS * self.MINIBATCH, minibatch_size=self.MINIBATCH
        )
        reference = build_engine(small_config, vectorized_loss)
        minibatches = (
            model.prior_traces(self.MINIBATCH, rng=reference.rng) for _ in range(self.ITERATIONS)
        )
        optimizer = optim.Adam(list(reference.network.named_parameters()), lr=1e-3)
        expected = self.reference_losses(reference.network, optimizer, minibatches)
        assert history.losses == expected
        assert history.traces_seen[-1] == self.ITERATIONS * self.MINIBATCH

    @pytest.mark.parametrize("schedule", ["sorted", "random"])
    def test_offline_history(self, small_config, vectorized_loss, schedule):
        model = FunctionModel(variable_program, name="variable")
        dataset = model.prior_traces(20, rng=RandomState(17))
        engine = build_engine(small_config, vectorized_loss)
        history = engine.train(
            dataset=dataset,
            num_traces=self.ITERATIONS * self.MINIBATCH,
            minibatch_size=self.MINIBATCH,
            offline_schedule=schedule,
            optimizer="sgd",
        )
        reference = build_engine(small_config, vectorized_loss)
        reference.network.polymorph(dataset)
        rng = reference.rng
        if schedule == "sorted":
            plan = PackedEpochPlan(dataset, self.MINIBATCH, observe_key="obs")
            assert self.ITERATIONS > plan.num_minibatches  # crosses an epoch reshuffle
            minibatches = [plan.minibatch(plan.next_batch_id(rng)) for _ in range(self.ITERATIONS)]
        else:
            minibatches = [
                [dataset[i] for i in rng.generator.choice(len(dataset), size=self.MINIBATCH, replace=False)]
                for _ in range(self.ITERATIONS)
            ]
        optimizer = optim.SGD(list(reference.network.named_parameters()), lr=1e-3)
        assert history.losses == self.reference_losses(reference.network, optimizer, minibatches)
        assert history.traces_seen[-1] == sum(len(m) for m in minibatches)

    def test_two_rank_history(self, small_config, vectorized_loss, dealt_indices):
        model = FunctionModel(variable_program, name="variable")
        dataset = InMemoryTraceDataset(model.prior_traces(40, rng=RandomState(17)))
        network = build_network(small_config, vectorized_loss=vectorized_loss)
        trainer = DistributedTrainer(
            network, dataset, num_ranks=2, local_minibatch_size=4, validation_fraction=0.0, seed=2
        )
        dealt = dealt_indices(trainer)
        reference = build_network(small_config, vectorized_loss=vectorized_loss)
        reference.polymorph(dataset)
        reference.load_state_dict(network.state_dict())
        report = trainer.train(self.ITERATIONS)
        reads = [dataset.get_batch(indices) for indices in dealt]

        named = list(reference.named_parameters())
        optimizer = optim.Adam(named, lr=1e-3)
        expected = []
        for rank_traces in zip(reads[0::2], reads[1::2]):
            gradients, losses = [], []
            for traces in rank_traces:
                reference.zero_grad()
                loss = reference.loss(traces)
                loss.backward()
                gradients.append({n: p.grad.copy() for n, p in named if p.grad is not None})
                losses.append(loss.item())
            averaged = average_gradients(
                gradients, [n for n, _ in named], {n: p.data.shape for n, p in named}
            )
            for name, parameter in named:
                parameter.grad = averaged.get(name)
            optimizer.step()
            expected.append(float(np.mean(losses)))
        assert len(reads) == 2 * self.ITERATIONS
        assert report.train_losses == expected


class TestBookkeepingFixes:
    def test_sub_minibatch_counter_initialised_and_reset(self, small_config, mixed_model, rng):
        network = build_network(small_config)
        assert network.last_num_sub_minibatches == 0  # before any loss
        traces = mixed_model.prior_traces(6, rng=rng)
        network.polymorph(traces)
        network.loss(traces)
        assert network.last_num_sub_minibatches == len({t.trace_type for t in traces})
        model = FunctionModel(variable_program, name="variable")
        varied = model.prior_traces(12, rng=rng)
        network.loss(varied)  # reset, then recounted for the new minibatch
        assert network.last_num_sub_minibatches == len({t.trace_type for t in varied})

    def test_polymorph_skips_known_trace_types(self, small_config, mixed_model, rng):
        network = build_network(small_config)
        traces = mixed_model.prior_traces(5, rng=rng)
        assert len(network.polymorph(traces)) > 0
        assert network.num_addresses == 2
        # Second scan of the same trace type is a set lookup per trace.
        assert network.polymorph(mixed_model.prior_traces(5, rng=rng)) == []
        assert mixed_model.prior_traces(1, rng=rng)[0].trace_type in network._known_trace_types

    def test_frozen_polymorph_reports_each_discard_once(self, small_config, mixed_model, gaussian_model, rng):
        network = build_network(small_config)
        network.polymorph(mixed_model.prior_traces(3, rng=rng))
        network.freeze_architecture()
        before = network.num_parameters()
        network.polymorph(gaussian_model.prior_traces(3, rng=rng))
        assert network.num_parameters() == before
        assert len(network.last_discarded) == len(set(network.last_discarded)) > 0
        # Already-reported discards (and their trace type) are not re-scanned.
        network.polymorph(gaussian_model.prior_traces(3, rng=rng))
        assert network.last_discarded == []

    def test_polymorph_still_grows_on_new_types(self, small_config, rng):
        network = build_network(small_config)
        model = FunctionModel(variable_program, name="variable")
        traces = model.prior_traces(30, rng=rng)
        short = [t for t in traces if t["n"] == 0]
        longer = [t for t in traces if t["n"] == 2]
        assert short and longer
        assert len(network.polymorph(short)) > 0
        created = network.polymorph(longer)  # new type brings new addresses
        assert len(created) > 0
        assert "x2" in network.proposal_layers
