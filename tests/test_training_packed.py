"""Tests for the packed-minibatch vectorised training pipeline.

The load-bearing contract mirrors PR 3's batched-proposal contract, on the
training side: the packed loss (``vectorized_loss=True``, the default) scores
all packs of a minibatch together — the LSTM as one ragged sequence over
every pack's steps, every embedding and proposal head once per address over
all of its rows — while the retained
per-object reference path (``vectorized_loss=False``) scores step by step.
Both sum the same terms in a different order, so they agree within a stated
tolerance, not bitwise: the loss to rtol 1e-12 and every parameter gradient
to within 1e-10 of that gradient's largest magnitude.  The packed loss itself
is bitwise deterministic from run to run.  On top of that sit the offline
epoch schedule (sorted + token-budgeted minibatches, cached packs) and the
bookkeeping fixes that rode along (sub-minibatch counter, polymorph
fast-path).
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro import ppl
from repro.common.config import Config
from repro.common.rng import RandomState
from repro.data import InMemoryTraceDataset
from repro.data.packing import (
    PackedEpochPlan,
    concat_steps,
    pack_minibatch,
    pack_sub_minibatch,
)
from repro.distributed import DistributedTrainer, fused_sparse_allreduce
from repro.distributions import Categorical, Normal, TruncatedNormal, Uniform
from repro.ppl import FunctionModel, observe, sample
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.ppl.nn.inference_network import InferenceNetwork
from repro.ppl.nn.proposals import ProposalLayer
from repro.tensor import functional as F, optim
from repro.tensor.nn import Linear

#: packed loss vs the per-object reference: relative tolerance on the loss ...
LOSS_RTOL = 1e-12
#: ... and on each gradient tensor, as a fraction of its largest magnitude
GRAD_TOL = 1e-10
#: the two paths' offline loss curves over 20 Adam steps, where a gradient
#: difference can compound (measured on x86-64 with OpenBLAS: 3e-16)
HISTORY_RTOL = 1e-10


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


def families_program():
    """Every prior family, per-trace prior parameters, and one address drawn
    at several steps of a trace: Categorical, unbounded Normal, bounded
    Uniform and TruncatedNormal."""
    n = sample(Categorical([0.3, 0.4, 0.3]), name="n", address="n")
    total = 0.0
    for _ in range(int(n) + 1):
        total += sample(Normal(total, 1.0), name="walk", address="walk")
    width = sample(Uniform(0.5, 1.5), name="width", address="width")
    tail = sample(TruncatedNormal(total, width, total - 1.0, total + 2.0), name="tail", address="tail")
    observe(Normal(np.array([total, width, tail, float(n)]), 0.3), name="obs")
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


def assert_paths_agree(network, traces):
    """Both loss paths on one network: the loss to ``LOSS_RTOL``, every
    gradient to ``GRAD_TOL`` of its largest magnitude."""
    previous = network.vectorized_loss
    try:
        network.vectorized_loss = True
        packed_loss, packed_grads = loss_and_grads(network, traces)
        network.vectorized_loss = False
        reference_loss, reference_grads = loss_and_grads(network, traces)
    finally:
        network.vectorized_loss = previous
    assert packed_loss == pytest.approx(reference_loss, rel=LOSS_RTOL, abs=0.0)
    assert packed_grads.keys() == reference_grads.keys()
    for name, reference in reference_grads.items():
        error = np.max(np.abs(packed_grads[name] - reference))
        assert error <= GRAD_TOL * np.max(np.abs(reference)), name


def _same_array(ours, theirs) -> bool:
    if ours is None or theirs is None:
        return ours is None and theirs is None
    return ours.dtype == theirs.dtype and ours.shape == theirs.shape and np.array_equal(ours, theirs)


def assert_packs_equal(ours, theirs):
    """Two pack lists are the same input to the loss, array for array: pack
    order, observations, step order and every per-step column and prior."""
    assert [pack.trace_type for pack in ours] == [pack.trace_type for pack in theirs]
    for pack, other in zip(ours, theirs):
        assert _same_array(pack.observations, other.observations)
        assert [step.address for step in pack.steps] == [step.address for step in other.steps]
        for step, expected in zip(pack.steps, other.steps):
            for column in ("values", "encoded_values", "values_column", "indices"):
                assert _same_array(getattr(step, column), getattr(expected, column)), (step.address, column)
            assert (step.geometry is None) == (expected.geometry is None), step.address
            if step.geometry is not None:
                for field in dataclasses.fields(step.geometry):
                    assert _same_array(
                        getattr(step.geometry, field.name), getattr(expected.geometry, field.name)
                    ), (step.address, field.name)
            assert [pickle.dumps(p.to_dict()) for p in step.priors] == [
                pickle.dumps(p.to_dict()) for p in expected.priors
            ], step.address


class GaussianHeadOnlyLogProb(ProposalLayer):
    """A custom proposal layer implementing only ``log_prob``: the packed loss
    reaches it through the base-class ``log_prob_packed`` fallback."""

    def __init__(self, input_dim, rng=None):
        super().__init__()
        self.head = Linear(input_dim, 1, rng=rng)
        self.rows_per_call = []

    def log_prob(self, hidden, values, priors):
        self.rows_per_call.append(hidden.shape[0])
        assert len(priors) == hidden.shape[0]
        residual = self.head(hidden) - np.asarray(values, dtype=float).reshape(-1, 1)
        return (residual * residual * -0.5).sum()


class TestLossEquivalence:
    def test_mixed_trace_types_and_prior_families(self, small_config, rng):
        """Categorical + bounded-Uniform priors across several trace types."""
        model = FunctionModel(variable_program, name="variable")
        network = build_network(small_config)
        traces = model.prior_traces(24, rng=rng)
        assert len({t.trace_type for t in traces}) > 1
        network.polymorph(traces)
        assert_paths_agree(network, traces)

    def test_categorical_bounded_and_unbounded_priors(self, small_config, rng):
        """All families in one call, one address repeated within a trace."""
        model = FunctionModel(families_program, name="families")
        network = build_network(small_config)
        traces = model.prior_traces(20, rng=rng)
        assert len({t.trace_type for t in traces}) == 3
        network.polymorph(traces)
        assert len(network.proposal_layers) == 4
        assert all(address in network.proposal_layers for address in ("n", "walk", "width", "tail"))
        assert_paths_agree(network, traces)

    def test_single_trace_degenerate_group(self, small_config, mixed_model, rng):
        """B=1 packs must survive packing (shape edge of every array path),
        alone and several in one call."""
        network = build_network(small_config)
        traces = mixed_model.prior_traces(3, rng=rng)
        network.polymorph(traces)
        assert_paths_agree(network, traces[:1])
        model = FunctionModel(variable_program, name="variable")
        one_per_type = {}
        for trace in model.prior_traces(30, rng=rng):
            one_per_type.setdefault(trace.trace_type, trace)
        singles = list(one_per_type.values())
        assert len(singles) > 1
        network = build_network(small_config)
        network.polymorph(singles)
        assert [p.batch_size for p in pack_minibatch(singles, "obs")] == [1] * len(singles)
        assert_paths_agree(network, singles)

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
            if x3 > 0:
                ppl.sample(Normal(0.0, 1.0), name="x4", address="addr_1")
            ppl.observe(Normal(np.array([x1 + x3, x2]), 0.5), name="obs")
            return x1

        model = FunctionModel(program, name="three_address")
        traces = [model.get_trace(rng=RandomState(100 + i)) for i in range(8)]
        assert len({t.trace_type for t in traces}) == 2
        assert_paths_agree(network, traces)

    def test_two_stacked_lstm_layers(self, small_config, rng):
        """The sequence kernel runs once per stacked layer, the reference a
        cell per layer per step."""
        model = FunctionModel(families_program, name="families")
        network = build_network(dataclasses.replace(small_config, lstm_stacks=2))
        traces = model.prior_traces(20, rng=rng)
        network.polymorph(traces)
        assert_paths_agree(network, traces)

    def test_packs_of_different_lengths_share_steps(self, small_config, rng, monkeypatch):
        """Packs of 3, 4 and 5 steps in one minibatch: one ragged sequence,
        longest pack first, whose step widths shrink as the packs end."""
        model = FunctionModel(families_program, name="families")
        network = build_network(small_config)
        traces = model.prior_traces(20, rng=rng)
        network.polymorph(traces)
        packs = pack_minibatch(traces, "obs")
        lengths = sorted((pack.num_steps, pack.batch_size) for pack in packs)
        assert len({length for length, _ in lengths}) == 3
        layouts = []
        kernel = F.lstm_sequence

        def spy(x, batch_sizes, *weights):
            layouts.append(list(batch_sizes))
            return kernel(x, batch_sizes, *weights)

        monkeypatch.setattr(F, "lstm_sequence", spy)
        assert_paths_agree(network, traces)
        expected = [
            sum(size for length, size in lengths if length > step) for step in range(lengths[-1][0])
        ]
        assert layouts == [expected]

    def test_frozen_network_discards_mid_trace(self, small_config, rng):
        """Layers only for the one-draw trace type: the longer types' extra
        draws ``x1``, ``x2`` are discarded between ``x0`` and ``scale``, so
        packs of different types have different active lengths."""
        model = FunctionModel(variable_program, name="variable")
        traces = model.prior_traces(30, rng=rng)
        network = build_network(small_config)
        network.polymorph([t for t in traces if len(t.samples) == 3])
        network.freeze_architecture()
        network.polymorph(traces)
        assert set(network.last_discarded) == {"x1", "x2"}
        assert len({len(t.samples) for t in traces}) == 3
        assert_paths_agree(network, traces)

    def test_custom_layer_with_only_log_prob(self, small_config, rng):
        """A layer without ``log_prob_packed`` sees every row of its address
        in one call on the packed path, one step per call on the reference."""
        model = FunctionModel(families_program, name="families")
        traces = model.prior_traces(16, rng=rng)
        network = build_network(small_config)
        network.polymorph(traces)
        custom = GaussianHeadOnlyLogProb(small_config.lstm_hidden, rng=RandomState(3))
        network.proposal_layers["walk"] = custom
        assert_paths_agree(network, traces)
        walk_rows = sum(1 for t in traces for s in t.samples if s.address == "walk")
        packed_calls, reference_calls = custom.rows_per_call[:1], custom.rows_per_call[1:]
        assert packed_calls == [walk_rows]
        assert sum(reference_calls) == walk_rows and len(reference_calls) > 1

    def test_each_piece_of_work_runs_once(self, small_config, rng, monkeypatch):
        """Per call: one observation embedding, one sample embedding and one
        head per address, and one LSTM sequence over every step of every
        pack; never a per-step ``LSTM.step``."""
        model = FunctionModel(families_program, name="families")
        traces = model.prior_traces(20, rng=rng)
        network = build_network(small_config)
        network.polymorph(traces)
        packs = pack_minibatch(traces, "obs")
        assert len(packs) == 3
        calls = []

        def counting(name, method):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return wrapper

        def count(owner, method, name):
            monkeypatch.setattr(owner, method, counting(name, getattr(owner, method)))

        count(network.observation_embedding, "forward", "obs")
        count(network.lstm, "step", "lstm.step")
        count(network.lstm, "forward", "lstm.forward")
        for address in network.address_specs:
            count(network.proposal_layers[address], "log_prob_packed", f"head:{address}")
            count(network.sample_embeddings[address], "forward", f"embed:{address}")
        network.loss_packed(packs)
        assert calls.count("obs") == 1
        assert calls.count("lstm.forward") == 1
        assert calls.count("lstm.step") == 0
        for address in network.address_specs:
            assert calls.count(f"head:{address}") == 1
        # the last step of a trace feeds no next step: "tail" embeds nothing
        assert calls.count("embed:tail") == 0
        for address in ("n", "walk", "width"):
            assert calls.count(f"embed:{address}") == 1

    def test_packed_loss_is_deterministic(self, small_config, rng):
        """Run to run, and on a copy of the network: bitwise."""
        model = FunctionModel(families_program, name="families")
        traces = model.prior_traces(20, rng=rng)
        first, second = build_network(small_config), build_network(small_config)
        first.polymorph(traces)
        second.polymorph(traces)
        second.load_state_dict(first.state_dict())
        results = [loss_and_grads(network, traces) for network in (first, first, second)]
        first_loss, first_grads = results[0]
        for loss, grads in results[1:]:
            assert loss == first_loss
            assert grads.keys() == first_grads.keys()
            for name in grads:
                assert np.array_equal(grads[name], first_grads[name]), name

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

    def test_offline_training_histories_agree(self, rng):
        """End-to-end: packed and reference engines under the same sorted
        schedule and seeds produce the same loss curve, within tolerance."""
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
        assert len(packed_history.losses) == len(reference_history.losses) == 20
        np.testing.assert_allclose(packed_history.losses, reference_history.losses, rtol=HISTORY_RTOL, atol=0.0)


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
        # mu step: bounded-Uniform geometry; k step: categorical indices
        mu_step, k_step = pack.steps
        assert mu_step.geometry is not None
        assert np.all(mu_step.geometry.bounded)
        assert np.array_equal(mu_step.geometry.lows, np.full(6, -2.0))
        assert mu_step.values_column.shape == (6, 1)
        assert k_step.geometry is None and k_step.values_column is None
        assert k_step.indices is not None
        assert k_step.indices.dtype == np.int64
        assert k_step.encoded_values.shape == (6, 3)
        assert np.array_equal(
            k_step.indices, np.array([t["k"] for t in traces], dtype=np.int64)
        )

    def test_concat_steps_joins_rows_in_order(self, rng):
        """The rows an address's head scores at once: every array joined in
        step order, a family's missing array form stays missing."""
        model = FunctionModel(families_program, name="families")
        packs = pack_minibatch(model.prior_traces(12, rng=rng), observe_key="obs")
        walks = [step for pack in packs for step in pack.steps if step.address == "walk"]
        assert len(walks) > len(packs)  # several steps per pack at this address
        joined = concat_steps(walks)
        assert joined.batch_size == sum(step.batch_size for step in walks)
        assert joined.priors == [prior for step in walks for prior in step.priors]
        assert np.array_equal(joined.values_column, np.concatenate([s.values_column for s in walks]))
        assert np.array_equal(joined.encoded_values, np.concatenate([s.encoded_values for s in walks]))
        for field in ("lows", "highs", "locs", "scales", "bounded"):
            expected = np.concatenate([getattr(s.geometry, field) for s in walks])
            assert np.array_equal(getattr(joined.geometry, field), expected), field
        assert not joined.geometry.any_bounded and joined.indices is None
        tails = [step for pack in packs for step in pack.steps if step.address == "tail"]
        assert concat_steps(tails).geometry.all_bounded
        categorical = [step for pack in packs for step in pack.steps if step.address == "n"]
        assert np.array_equal(concat_steps(categorical).indices, np.concatenate([s.indices for s in categorical]))
        assert concat_steps(walks[:1]) is walks[0]
        unmatched = concat_steps([walks[0], dataclasses.replace(walks[1], geometry=None)])
        assert unmatched.geometry is None and unmatched.values_column is not None

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

    def test_train_rejects_bad_minibatch_before_freezing(self, mixed_model, rng):
        engine = InferenceCompilation(
            observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=8),
            observe_key="obs",
            rng=RandomState(0),
        )
        # A bad value must fail before the irreversible freeze.
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
        assert len(calls) == 1
        assert_packs_equal(calls[0], pack_minibatch(traces, "obs"))
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

    def test_offline_history(self, small_config, vectorized_loss):
        model = FunctionModel(variable_program, name="variable")
        dataset = model.prior_traces(20, rng=RandomState(17))
        engine = build_engine(small_config, vectorized_loss)
        history = engine.train(
            dataset=dataset,
            num_traces=self.ITERATIONS * self.MINIBATCH,
            minibatch_size=self.MINIBATCH,
        )
        reference = build_engine(small_config, vectorized_loss)
        reference.network.polymorph(dataset)
        plan = PackedEpochPlan(dataset, self.MINIBATCH, observe_key="obs")
        assert self.ITERATIONS > plan.num_minibatches  # crosses an epoch reshuffle
        minibatches = [plan.minibatch(plan.next_batch_id(reference.rng)) for _ in range(self.ITERATIONS)]
        optimizer = optim.Adam(list(reference.network.named_parameters()), lr=1e-3)
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
        sizes = [p.data.size for _, p in named]
        expected = []
        for rank_traces in zip(reads[0::2], reads[1::2]):
            gradients, present, losses = [], [], []
            for traces in rank_traces:
                reference.zero_grad()
                loss = reference.loss(traces)
                loss.backward()
                gradients.append(np.concatenate([
                    np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1) for _, p in named
                ]))
                present.append([p.grad is not None for _, p in named])
                losses.append(loss.item())
            averaged, has_gradient = fused_sparse_allreduce(np.array(gradients), np.array(present), sizes)
            offsets = np.cumsum([0] + sizes)
            for (_, parameter), start, end, has in zip(named, offsets, offsets[1:], has_gradient):
                parameter.grad = averaged[start:end].reshape(parameter.data.shape) if has else None
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
