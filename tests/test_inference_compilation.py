"""End-to-end tests of the inference-compilation engine."""

import os

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.rng import RandomState
from repro.ppl import FunctionModel
from repro.ppl.inference import RandomWalkMetropolis, run_importance_sampling
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from tests.conftest import mixed_program


@pytest.fixture
def ic_setup(small_config):
    model = FunctionModel(mixed_program, name="mixed")
    engine = InferenceCompilation(
        config=small_config,
        observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=small_config.observation_embedding_dim),
        observe_key="obs",
        rng=RandomState(0),
    )
    return model, engine


def observation_for(mu, k):
    return np.array([mu, mu + k, mu - k, 2 * mu])


class TestTraining:
    def test_online_training_reduces_loss(self, ic_setup):
        model, engine = ic_setup
        history = engine.train(model, num_traces=1200, minibatch_size=24, learning_rate=3e-3)
        assert len(history.losses) == 1200 // 24
        assert history.losses[-1] < history.losses[0]
        assert history.final_loss == history.losses[-1]
        assert history.traces_seen[-1] == 1200

    def test_offline_training_with_dataset(self, ic_setup, rng):
        model, engine = ic_setup
        dataset = model.prior_traces(300, rng=rng)
        history = engine.train(dataset=dataset, num_traces=900, minibatch_size=30, learning_rate=3e-3)
        assert engine.network._frozen
        assert history.losses[-1] < history.losses[0]

    def test_network_grows_with_new_addresses_online(self, ic_setup):
        model, engine = ic_setup
        engine.train(model, num_traces=60, minibatch_size=20)
        assert engine.network.num_addresses == 2
        assert engine.network.num_parameters() == history_params(engine)

    def test_lr_schedule_poly2_decays(self, ic_setup):
        model, engine = ic_setup
        history = engine.train(
            model, num_traces=400, minibatch_size=20, learning_rate=1e-3,
            lr_schedule="poly2", end_learning_rate=1e-5,
        )
        assert history.learning_rates[-1] < history.learning_rates[0]

    def test_larc_option(self, ic_setup):
        model, engine = ic_setup
        history = engine.train(model, num_traces=200, minibatch_size=20, larc=True)
        assert len(history.losses) == 10

    def test_requires_model_or_dataset(self, ic_setup):
        _, engine = ic_setup
        with pytest.raises(ValueError):
            engine.train()

    @pytest.mark.parametrize("bad", [{"optimizer": "bogus"}, {"lr_schedule": "bogus"}])
    def test_unknown_optimizer_or_schedule_rejected(self, ic_setup, rng, bad):
        model, engine = ic_setup
        with pytest.raises(ValueError):
            engine.train(model, num_traces=20, minibatch_size=10, **bad)
        # Offline, the rejection must come before the irreversible freeze.
        with pytest.raises(ValueError):
            engine.train(dataset=model.prior_traces(20, rng=rng), num_traces=20, minibatch_size=10, **bad)
        assert not engine.network._frozen
        assert engine.history.losses == []

    @pytest.mark.parametrize("callback_raises", [False, True])
    def test_training_notifies_update_listeners(self, ic_setup, callback_raises):
        model, engine = ic_setup
        notifications = []
        engine.network.add_update_listener(lambda: notifications.append(engine.network.version))

        def stop_after_two(iteration, loss):
            if callback_raises and iteration == 1:
                raise KeyboardInterrupt

        if callback_raises:
            with pytest.raises(KeyboardInterrupt):
                engine.train(model, num_traces=100, minibatch_size=20, callback=stop_after_two)
        else:
            engine.train(model, num_traces=40, minibatch_size=20, callback=stop_after_two)
        assert len(engine.history.losses) == 2
        assert notifications == [1]

    def test_callback_invoked(self, ic_setup):
        model, engine = ic_setup
        seen = []
        engine.train(model, num_traces=60, minibatch_size=20, callback=lambda i, l: seen.append(i))
        assert seen == [0, 1, 2]


def history_params(engine):
    return engine.history.num_parameters[-1]


class TestAmortizedInference:
    def test_posterior_recovers_latents(self, ic_setup):
        model, engine = ic_setup
        engine.train(model, num_traces=2500, minibatch_size=32, learning_rate=3e-3)
        mu_true, k_true = 0.8, 1
        posterior = engine.posterior(model, {"obs": observation_for(mu_true, k_true)}, num_traces=200)
        assert posterior.extract("mu").mean == pytest.approx(mu_true, abs=0.25)
        k_probs = posterior.extract("k").categorical_probabilities()
        assert max(k_probs, key=k_probs.get) == k_true

    def test_ic_beats_prior_importance_sampling_in_ess(self, ic_setup):
        model, engine = ic_setup
        engine.train(model, num_traces=2500, minibatch_size=32, learning_rate=3e-3)
        observation = {"obs": observation_for(-0.5, 2)}
        ic_posterior = engine.posterior(model, observation, num_traces=200)
        prior_posterior = run_importance_sampling(model, observation, num_traces=200, rng=RandomState(1))
        ic_ess = ic_posterior.effective_sample_size() / len(ic_posterior)
        prior_ess = prior_posterior.effective_sample_size() / len(prior_posterior)
        assert ic_ess > prior_ess

    def test_ic_posterior_matches_rmh_reference(self, ic_setup):
        """The Figure 8 validation: IC and RMH agree on the posterior."""
        model, engine = ic_setup
        engine.train(model, num_traces=2500, minibatch_size=32, learning_rate=3e-3)
        observation = {"obs": observation_for(0.3, 0)}
        ic_posterior = engine.posterior(model, observation, num_traces=300)
        rmh = RandomWalkMetropolis(model, observation, burn_in=300)
        rmh_posterior = rmh.run(1500, rng=RandomState(2))
        assert ic_posterior.extract("mu").mean == pytest.approx(
            rmh_posterior.extract("mu").mean, abs=0.2
        )

    def test_posterior_requires_observe_key_for_multiple_observes(self, ic_setup):
        model, engine = ic_setup
        engine.train(model, num_traces=60, minibatch_size=20)
        with pytest.raises(ValueError):
            # Pretend two observes were conditioned but no key given and network has None key.
            engine.network.observe_key = None
            engine.posterior(model, {"a": 0.0, "b": 1.0}, num_traces=5)


class TestPersistence:
    def test_save_and_load_engine(self, ic_setup, tmp_path):
        model, engine = ic_setup
        engine.train(model, num_traces=200, minibatch_size=20)
        path = os.path.join(tmp_path, "ic.pkl")
        engine.save(path)
        loaded = InferenceCompilation.load(path)
        assert loaded.network.num_parameters() == engine.network.num_parameters()
        observation = {"obs": observation_for(0.0, 0)}
        posterior = loaded.posterior(model, observation, num_traces=20, rng=RandomState(3))
        assert len(posterior) == 20
