"""Tests for the IC neural components: embeddings, proposals, inference network."""

import os
import pickle

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.rng import RandomState
from repro.distributions import Categorical, Normal, Uniform
from repro.ppl import FunctionModel, sample, observe
from repro.ppl.nn import (
    AddressEmbedding,
    InferenceNetwork,
    ObservationEmbedding3DCNN,
    ObservationEmbeddingFC,
    ProposalCategorical,
    ProposalNormalMixture,
    SampleEmbedding,
    collect_address_statistics,
    make_proposal_layer,
    pregenerate_layers,
)
from repro.tensor import Tensor
from tests import reference_kernels as ref
from tests.conftest import mixed_program


class TestObservationEmbeddings:
    def test_3dcnn_output_shape(self):
        embedding = ObservationEmbedding3DCNN((6, 7, 7), embedding_dim=12, channels=(4, 8))
        out = embedding(np.zeros((3, 6, 7, 7)))
        assert out.shape == (3, 12)

    def test_3dcnn_accepts_single_observation(self):
        embedding = ObservationEmbedding3DCNN((4, 5, 5), embedding_dim=8, channels=(4,))
        assert embedding(np.zeros((4, 5, 5))).shape == (1, 8)

    def test_3dcnn_rejects_bad_rank(self):
        embedding = ObservationEmbedding3DCNN((4, 5, 5), embedding_dim=8, channels=(4,))
        with pytest.raises(ValueError):
            embedding(np.zeros((2, 2)))

    def test_3dcnn_gradients_flow(self):
        embedding = ObservationEmbedding3DCNN((4, 5, 5), embedding_dim=6, channels=(4,))
        out = embedding(np.random.default_rng(0).standard_normal((2, 4, 5, 5)))
        out.sum().backward()
        assert all(p.grad is not None for p in embedding.parameters())

    def test_paper_architecture_structure(self):
        embedding = ObservationEmbedding3DCNN.paper_architecture()
        assert embedding.observation_shape == (20, 35, 35)
        assert embedding.embedding_dim == 256
        # five conv layers, as in Section 4.3
        from repro.tensor.nn import Conv3d

        convs = [m for m in embedding.network if isinstance(m, Conv3d)]
        assert len(convs) == 5
        assert convs[0].out_channels == 64 and convs[-1].out_channels == 128

    def test_fc_embedding(self):
        embedding = ObservationEmbeddingFC(input_dim=10, embedding_dim=5)
        assert embedding(np.zeros((4, 10))).shape == (4, 5)
        assert embedding(np.zeros((4, 2, 5))).shape == (4, 5)


class TestAddressAndSampleEmbeddings:
    def test_address_embedding_broadcasts(self):
        embedding = AddressEmbedding(6)
        out = embedding(4)
        assert out.shape == (4, 6)
        assert np.allclose(out.data[0], out.data[3])

    def test_sample_embedding_continuous(self):
        embedding = SampleEmbedding(1, 4)
        encoded = SampleEmbedding.encode_values(Uniform(0.0, 10.0), np.array([5.0, 7.5]))
        assert encoded.shape == (2, 1)
        out = embedding(Tensor(encoded))
        assert out.shape == (2, 4)

    def test_sample_embedding_categorical_one_hot(self):
        prior = Categorical([0.2, 0.3, 0.5])
        assert SampleEmbedding.value_dim_for(prior) == 3
        encoded = SampleEmbedding.encode_values(prior, np.array([2, 0]))
        assert np.allclose(encoded, [[0, 0, 1], [1, 0, 0]])

    def test_encode_values_standardises_continuous(self):
        encoded = SampleEmbedding.encode_values(Uniform(0.0, 2.0), np.array([1.0]))
        assert encoded[0, 0] == pytest.approx(0.0)


class TestProposalLayers:
    def test_factory_chooses_family(self):
        assert isinstance(make_proposal_layer(Uniform(0, 1), 8), ProposalNormalMixture)
        assert isinstance(make_proposal_layer(Normal(0, 1), 8), ProposalNormalMixture)
        assert isinstance(make_proposal_layer(Categorical([0.5, 0.5]), 8), ProposalCategorical)
        from repro.distributions import Poisson

        with pytest.raises(NotImplementedError):
            make_proposal_layer(Poisson(2.0), 8)

    def test_normal_mixture_proposal_batch_respects_bounds(self):
        layer = ProposalNormalMixture(8, num_components=3)
        hidden = Tensor(np.random.default_rng(0).standard_normal((200, 8)))
        proposal = layer.proposal_batch(hidden, [Uniform(-2.0, 2.0)] * 200)
        samples = proposal.sample_rows([RandomState(row) for row in range(200)])
        assert samples.min() >= -2.0 and samples.max() <= 2.0
        assert np.all(np.isfinite(proposal.log_prob_rows(samples)))

    def test_normal_mixture_unbounded_prior(self):
        layer = ProposalNormalMixture(8, num_components=2)
        hidden = Tensor(np.zeros((1, 8)))
        proposal = layer.proposal_batch(hidden, [Normal(3.0, 2.0)])
        assert np.isfinite(proposal.log_prob_rows([100.0])[0])  # unbounded support

    def test_normal_mixture_log_prob_is_differentiable(self):
        layer = ProposalNormalMixture(6, num_components=3)
        hidden = Tensor(np.random.default_rng(1).standard_normal((4, 6)), requires_grad=True)
        priors = [Uniform(-1.0, 1.0)] * 4
        values = np.array([0.2, -0.5, 0.9, 0.0])
        log_q = layer.log_prob(hidden, values, priors)
        (-log_q).backward()
        assert all(p.grad is not None for p in layer.parameters())
        assert hidden.grad is not None

    def test_normal_mixture_log_prob_matches_proposal_batch(self):
        """The differentiable training log-density and the inference
        proposal must agree (same parameterisation)."""
        layer = ProposalNormalMixture(5, num_components=4)
        hidden_np = np.random.default_rng(2).standard_normal((1, 5))
        prior = Uniform(-2.0, 3.0)
        value = 1.234
        training_log_q = layer.log_prob(Tensor(hidden_np), np.array([value]), [prior]).item()
        inference_batch = layer.proposal_batch(Tensor(hidden_np), [prior])
        assert training_log_q == pytest.approx(float(inference_batch.log_prob_rows([value])[0]), abs=1e-6)

    def test_categorical_proposal_log_prob_and_batch(self):
        layer = ProposalCategorical(6, num_categories=4)
        hidden_np = np.random.default_rng(3).standard_normal((2, 6))
        values = np.array([1, 3])
        log_q = layer.log_prob(Tensor(hidden_np), values, [Categorical([0.25] * 4)] * 2)
        assert np.isfinite(log_q.item())
        proposal = layer.proposal_batch(Tensor(hidden_np[:1]), [Categorical([0.25] * 4)])
        assert proposal.num_categories == 4
        assert np.isclose(proposal.probs[0].sum(), 1.0)
        # Prior smoothing keeps all categories possible.
        assert np.all(proposal.probs > 0)

    @pytest.mark.parametrize("batch", [1, 16, 64])
    @pytest.mark.parametrize("family", ["mixture", "categorical"])
    def test_batched_rows_bit_identical_to_per_object_emission(self, family, batch):
        """``proposal_batch(...)`` drawn and scored in bulk is the lockstep
        engine's emission, ``ref.proposal_distributions(...)[i]`` the
        per-object reference: same draw, same rng consumption, same density,
        bit for bit, with per-row prior parameters."""
        data = np.random.default_rng(5)
        if family == "mixture":
            layer = ProposalNormalMixture(12, num_components=5, rng=RandomState(1))
            centres = data.uniform(-1.0, 1.0, size=batch)
            priors = [
                Uniform(c - 1.0, c + 2.0) if row % 2 == 0 else Normal(c, 1.5)
                for row, c in enumerate(centres)
            ]
        else:
            layer = ProposalCategorical(12, num_categories=4, rng=RandomState(1))
            priors = [Categorical(data.dirichlet(np.ones(4))) for _ in range(batch)]
        hidden = Tensor(data.standard_normal((batch, 12)))
        rows = layer.proposal_batch(hidden, priors)
        objects = ref.proposal_distributions(layer, hidden, priors)
        assert len(objects) == batch
        row_rngs = [RandomState(100 + index) for index in range(batch)]
        object_rngs = [RandomState(100 + index) for index in range(batch)]
        values = rows.sample_rows(row_rngs)
        log_qs = rows.log_prob_rows(values)
        for index, reference in enumerate(objects):
            expected = reference.sample(object_rngs[index])
            assert np.array_equal(np.asarray(values[index]), np.asarray(expected))
            assert (
                row_rngs[index].generator.bit_generator.state
                == object_rngs[index].generator.bit_generator.state
            )
            assert np.array_equal(
                np.asarray(log_qs[index]), np.asarray(reference.log_prob(expected))
            )

    def test_categorical_proposal_gradients(self):
        layer = ProposalCategorical(4, num_categories=3)
        hidden = Tensor(np.random.default_rng(4).standard_normal((3, 4)), requires_grad=True)
        loss = -layer.log_prob(hidden, np.array([0, 1, 2]), [Categorical([1, 1, 1])] * 3)
        loss.backward()
        assert all(p.grad is not None for p in layer.parameters())


def build_network(config, observe_key="obs", input_dim=4):
    return InferenceNetwork(
        observation_embedding=ObservationEmbeddingFC(input_dim=input_dim, embedding_dim=config.observation_embedding_dim),
        config=config,
        observe_key=observe_key,
    )


class TestInferenceNetwork:
    def test_polymorph_creates_layers_per_address(self, small_config, mixed_model, rng):
        network = build_network(small_config)
        traces = mixed_model.prior_traces(5, rng=rng)
        new_params = network.polymorph(traces)
        assert network.num_addresses == 2  # mu and k
        assert len(new_params) > 0
        # Polymorphing again with the same traces creates nothing new.
        assert network.polymorph(traces) == []

    def test_frozen_network_discards_new_addresses(self, small_config, mixed_model, gaussian_model, rng):
        network = build_network(small_config)
        network.polymorph(mixed_model.prior_traces(3, rng=rng))
        network.freeze_architecture()
        before = network.num_parameters()
        network.polymorph(gaussian_model.prior_traces(3, rng=rng))
        assert network.num_parameters() == before
        assert len(network.last_discarded) > 0

    def test_loss_decreases_with_training(self, small_config, mixed_model, rng):
        from repro.tensor import optim

        network = build_network(small_config)
        traces = mixed_model.prior_traces(64, rng=rng)
        network.polymorph(traces)
        opt = optim.Adam(network.parameters(), lr=5e-3)
        first_loss = None
        for _ in range(30):
            loss = network.loss(traces[:32])
            opt.zero_grad()
            loss.backward()
            opt.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < first_loss

    def test_loss_requires_traces(self, small_config):
        network = build_network(small_config)
        with pytest.raises(ValueError):
            network.loss([])

    def test_loss_splits_sub_minibatches_by_trace_type(self, small_config, rng):
        def variable_model():
            n = sample(Categorical([0.5, 0.5]), name="n")
            for i in range(int(n) + 1):
                sample(Uniform(0.0, 1.0), name=f"x{i}")
            observe(Normal(0.0, 1.0), value=0.0, name="obs")

        model = FunctionModel(variable_model)
        network = build_network(small_config, input_dim=1)
        traces = model.prior_traces(20, rng=rng)
        network.polymorph(traces)
        network.loss(traces)
        assert network.last_num_sub_minibatches == len({t.trace_type for t in traces})

    def test_one_slot_session_produces_valid_proposals(self, small_config, mixed_model, rng):
        network = build_network(small_config)
        traces = mixed_model.prior_traces(5, rng=rng)
        network.polymorph(traces)
        observation = np.asarray(traces[0].observation["obs"], dtype=float)
        session = network.batched_session([observation], [rng])
        mu_sample = traces[0].samples[0]
        proposal = session.proposals([(0, mu_sample.address, mu_sample.distribution, None)])[0]
        assert proposal is not None
        assert np.isfinite(proposal.log_q)
        k_sample = traces[0].samples[1]
        proposal_k = session.proposals(
            [(0, k_sample.address, k_sample.distribution, proposal.value)]
        )[0]
        assert proposal_k is not None
        assert session.num_proposal_steps == 2 and session.num_fallbacks == 0
        assert session.num_rounds == session.num_batched_steps == 2

    def test_one_slot_session_falls_back_for_unknown_address(self, small_config, mixed_model, rng):
        network = build_network(small_config)
        network.polymorph(mixed_model.prior_traces(2, rng=rng))
        session = network.batched_session([np.zeros(4)], [rng])
        assert session.proposals([(0, "never-seen-address", Uniform(0, 1), None)])[0] is None
        assert session.num_fallbacks == 1

    def test_save_and_load_roundtrip(self, small_config, mixed_model, rng, tmp_path):
        network = build_network(small_config)
        traces = mixed_model.prior_traces(5, rng=rng)
        network.polymorph(traces)
        loss_before = network.loss(traces).item()
        path = os.path.join(tmp_path, "network.pkl")
        network.save(path)
        loaded = InferenceNetwork.load(path)
        assert loaded.num_addresses == network.num_addresses
        assert loaded.num_parameters() == network.num_parameters()
        assert loaded.loss(traces).item() == pytest.approx(loss_before, rel=1e-10)

    @staticmethod
    def voxel_program():
        energy = sample(Normal(0.0, 1.0), name="energy")
        observe(Normal(energy * np.ones((4, 5, 5)), 1.0), name="obs")
        return energy

    def cnn_network(self, config, channels):
        cnn = ObservationEmbedding3DCNN(
            (4, 5, 5), embedding_dim=config.observation_embedding_dim, rng=RandomState(3), **channels
        )
        return InferenceNetwork(observation_embedding=cnn, config=config, observe_key="obs")

    def test_save_and_load_keep_the_cnn_channels(self, small_config, rng, tmp_path):
        network = self.cnn_network(small_config, {"channels": (4,)})
        traces = FunctionModel(self.voxel_program).prior_traces(5, rng=rng)
        network.polymorph(traces)
        path = os.path.join(tmp_path, "network.pkl")
        network.save(path)
        loaded = InferenceNetwork.load(path)
        assert loaded.observation_embedding.channels == (4,)
        volumes = np.stack([trace.observation["obs"] for trace in traces])
        assert np.array_equal(loaded.observation_embedding(volumes).data, network.observation_embedding(volumes).data)
        assert loaded.loss(traces).item() == network.loss(traces).item()

    def test_a_save_without_channels_loads_the_default_cnn(self, small_config, rng, tmp_path):
        network = self.cnn_network(small_config, {})
        traces = FunctionModel(self.voxel_program).prior_traces(5, rng=rng)
        network.polymorph(traces)
        path = os.path.join(tmp_path, "network.pkl")
        network.save(path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        del payload["observation_embedding_meta"]["channels"]  # as saved before channels were
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        loaded = InferenceNetwork.load(path)
        assert loaded.observation_embedding.channels == (8, 16)
        assert loaded.loss(traces).item() == network.loss(traces).item()

    def test_load_drops_config_keys_config_no_longer_declares(self, small_config, mixed_model, rng, tmp_path):
        network = build_network(small_config)
        traces = mixed_model.prior_traces(5, rng=rng)
        network.polymorph(traces)
        path = os.path.join(tmp_path, "network.pkl")
        network.save(path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        # a network saved while Config still had these fields
        payload["config"].update(seed=0, verbose=False, default_dtype="float64")
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        loaded = InferenceNetwork.load(path)
        assert loaded.config == small_config
        assert loaded.loss(traces).item() == pytest.approx(network.loss(traces).item(), rel=1e-10)

    def test_multiple_observes_require_observe_key(self, small_config, rng):
        def two_observes():
            x = sample(Uniform(0, 1), name="x")
            observe(Normal(x, 1.0), value=0.0, name="a")
            observe(Normal(x, 1.0), value=0.0, name="b")

        model = FunctionModel(two_observes)
        network = InferenceNetwork(
            observation_embedding=ObservationEmbeddingFC(1, small_config.observation_embedding_dim),
            config=small_config,
            observe_key=None,
        )
        traces = model.prior_traces(2, rng=rng)
        network.polymorph(traces)
        with pytest.raises(ValueError):
            network.loss(traces)

    def test_default_observation_embedding_is_3dcnn(self, small_config):
        network = InferenceNetwork(config=small_config)
        assert isinstance(network.observation_embedding, ObservationEmbedding3DCNN)


class TestPreprocessing:
    def test_pregenerate_layers_freezes(self, small_config, mixed_model, rng):
        network = build_network(small_config)
        created = pregenerate_layers(network, mixed_model.prior_traces(10, rng=rng), freeze=True)
        assert len(created) > 0
        assert network._frozen

    def test_collect_address_statistics(self, mixed_model, rng):
        stats = collect_address_statistics(mixed_model.prior_traces(10, rng=rng))
        assert stats["num_traces"] == 10
        assert stats["num_unique_addresses"] == 2
        assert stats["num_trace_types"] == 1
        assert stats["min_length"] == stats["max_length"] == 2
        assert stats["mean_length"] == pytest.approx(2.0)
