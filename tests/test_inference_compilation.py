"""End-to-end tests of the inference-compilation engine."""

import os

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.rng import RandomState
from repro.distributions import BatchedCategorical, BatchedMixtureOfTruncatedNormals
from repro.ppl import FunctionModel
from repro.ppl.inference import RandomWalkMetropolis, batched_importance_sampling
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

    @pytest.mark.parametrize("bad", [{"lr_schedule": "bogus"}, {"lr_schedule": "none"}])
    def test_unknown_schedule_rejected(self, ic_setup, rng, bad):
        # ``None`` is the constant schedule; the ``"none"`` alias is gone.
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
        prior_posterior = batched_importance_sampling(model, observation, num_traces=200, rng=RandomState(1))
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

    def test_a_key_no_observe_consumes_is_refused(self, ic_setup):
        # The network reads "obs"; "obz" conditions nothing and would leave
        # the posterior weighted as if it were not there.
        model, engine = ic_setup
        engine.train(model, num_traces=60, minibatch_size=20)
        observation = {"obs": observation_for(0.5, 1), "obz": 1.0}
        for batch_size in (1, 4):  # a one-slot session and a lockstep cohort
            with pytest.raises(ValueError, match=r"\['obz'\].*\['obs'\]"):
                engine.posterior(model, observation, num_traces=4, batch_size=batch_size)
        assert len(engine.posterior(model, {"obs": observation["obs"]}, num_traces=4)) == 4


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


class TestRemovedOptions:
    """Options and names that only tests used are gone: passing a removed
    option is a ``TypeError``, and a removed name is no attribute."""

    PROBS = np.array([[0.3, 0.7]])
    MIXTURE = dict(locs=[[0.0, 1.0]], scales=[[1.0, 1.0]], weights=[[0.5, 0.5]])
    #: everything a sampler over eight one-type traces needs
    SAMPLER = dict(minibatch_size=4, num_ranks=1, lengths=[1] * 8, trace_types=["a"] * 8)

    @pytest.mark.parametrize(
        "call",
        [
            "BatchedCategorical",
            "BatchedMixtureOfTruncatedNormals",
            "InferenceCompilation.train",
            "InferenceCompilation.train(optimizer=)",
            "TrainingLoop(optimizer=)",
            "TrainingLoop(allreduce_strategy=)",
            "DistributedTrainer(optimizer=)",
            "DistributedTrainer(allreduce_strategy=)",
            "TraceDataset(cache_size=)",
            "PackedEpochPlan(tokens_per_batch=)",
            "DistributedTraceSampler(drop_last=)",
            "DistributedTraceSampler(num_buckets=)",
            "DistributedTraceSampler(shuffle=)",
            "DistributedTraceSampler without lengths",
            "DistributedTraceSampler without trace_types",
            "Module.load_state_dict(strict=)",
            "init.kaiming_uniform(a=)",
            "SingleNodeModel.throughput(two_socket_efficiency=)",
            "Model.posterior(engine='importance_sampling', network=)",
        ],
    )
    def test_removed_option_is_rejected(self, ic_setup, rng, tmp_path, call):
        from repro.data import DistributedTraceSampler, PackedEpochPlan, TraceDataset
        from repro.distributed import DistributedTrainer, TrainingLoop
        from repro.distributed.performance_model import SingleNodeModel
        from repro.tensor import nn

        model, engine = ic_setup
        traces = model.prior_traces(4, rng=rng)
        layer = nn.Linear(2, 2, rng=RandomState(0))
        calls = {
            "BatchedCategorical": lambda: BatchedCategorical(self.PROBS, choice_kernel="percall"),
            "BatchedMixtureOfTruncatedNormals": lambda: BatchedMixtureOfTruncatedNormals(
                **self.MIXTURE, choice_kernel="percall"
            ),
            "InferenceCompilation.train": lambda: engine.train(
                dataset=traces, num_traces=4, minibatch_size=2, offline_schedule="random",
            ),
            # Training steps Adam and averages gradients with the fused sparse
            # allreduce; no caller outside tests chose anything else.
            "InferenceCompilation.train(optimizer=)": lambda: engine.train(
                dataset=traces, num_traces=4, minibatch_size=2, optimizer="adam",
            ),
            "TrainingLoop(optimizer=)": lambda: TrainingLoop(engine.network, traces, optimizer="adam"),
            "TrainingLoop(allreduce_strategy=)": lambda: TrainingLoop(
                engine.network, traces, allreduce_strategy="fused_sparse"
            ),
            "DistributedTrainer(optimizer=)": lambda: DistributedTrainer(
                engine.network, traces, optimizer="adam"
            ),
            "DistributedTrainer(allreduce_strategy=)": lambda: DistributedTrainer(
                engine.network, traces, allreduce_strategy="fused_sparse"
            ),
            # Nothing set these, not even a test: each is a constant now.
            "TraceDataset(cache_size=)": lambda: TraceDataset(str(tmp_path), cache_size=2),
            "PackedEpochPlan(tokens_per_batch=)": lambda: PackedEpochPlan(
                traces, minibatch_size=2, observe_key="obs", tokens_per_batch=8
            ),
            "DistributedTraceSampler(drop_last=)": lambda: DistributedTraceSampler(
                range(8), **self.SAMPLER, drop_last=False
            ),
            # The trainer always costs its chunks and shuffles its groups, in
            # one bucket: the sampler deals that schedule and no other.
            "DistributedTraceSampler(num_buckets=)": lambda: DistributedTraceSampler(
                range(8), **self.SAMPLER, num_buckets=2
            ),
            "DistributedTraceSampler(shuffle=)": lambda: DistributedTraceSampler(
                range(8), **self.SAMPLER, shuffle=False
            ),
            "DistributedTraceSampler without lengths": lambda: DistributedTraceSampler(
                range(8), minibatch_size=4, num_ranks=1, trace_types=["a"] * 8
            ),
            "DistributedTraceSampler without trace_types": lambda: DistributedTraceSampler(
                range(8), minibatch_size=4, num_ranks=1, lengths=[1] * 8
            ),
            "Module.load_state_dict(strict=)": lambda: layer.load_state_dict(
                layer.state_dict(), strict=False
            ),
            "init.kaiming_uniform(a=)": lambda: nn.init.kaiming_uniform((2, 2), a=1.0),
            "SingleNodeModel.throughput(two_socket_efficiency=)": lambda: SingleNodeModel().throughput(
                "HSW", 2, two_socket_efficiency=0.9
            ),
            # Prior IS takes no proposal network: guided IS is
            # ``engine=InferenceCompilation``.
            "Model.posterior(engine='importance_sampling', network=)": lambda: model.posterior(
                {"obs": observation_for(0.0, 0)}, num_traces=4, engine="importance_sampling", network=engine.network
            ),
        }
        with pytest.raises(TypeError):
            calls[call]()
        assert not engine.network._frozen

    def test_the_sampler_calls_differ_from_a_valid_one_only_in_the_option(self):
        from repro.data import DistributedTraceSampler

        assert len(DistributedTraceSampler(range(8), **self.SAMPLER)) == 2

    @pytest.mark.parametrize(
        "path",
        [
            "repro:set_config",
            "repro:get_config",
            "repro.common:set_config",
            "repro.common:get_config",
            "repro.common.config:get_config",
            "repro.distributed:distributed_importance_sampling",
            "repro.distributed:inference",
            "repro.distributions.batched:DEFAULT_CHOICE_KERNEL",
            "repro.distributions:BatchedNormal",
            "repro.distributions.batched:BatchedNormal",
            "repro.distributions.batched:BatchedCategorical.from_distributions",
            "repro.distributions.batched:BatchedMixtureOfTruncatedNormals.from_distributions",
            "repro.trace:TraceTypeRegistry",
            "repro.common.utils:ensure_list",
            "repro.common.utils:flatten_dict",
            "repro.common.utils:format_bytes",
            "repro.common.utils:format_seconds",
            "repro.data.sorting:parallel_sort_indices",
            "repro.data.sorting:sortedness_fraction",
            "repro.tensor.optim:scale_learning_rate",
            "repro.tensor.optim:MultiStepLR",
            "repro.tensor.nn.init:xavier_uniform",
            "repro.tensor.nn.init:orthogonal",
            "repro.tensor.nn:Tanh",
            "repro.tensor.nn:Sigmoid",
            "repro.tensor.nn:Dropout",
            "repro.tensor.nn:Module.train",
            "repro.tensor.nn:Module.add_module",
            "repro.tensor.functional:one_hot",
            "repro.tensor.functional:nll_loss",
            "repro.tensor.functional:mse_loss",
            "repro.tensor.functional:dropout",
            "repro.ppl.empirical:Empirical.combine",
            "repro.ppx:extract_address",
            "repro.ppx.addresses:extract_address",
            "repro.testing.faults:FaultPlan.site_calls",
            "repro.ppl.nn:ProposalSession",
            "repro.ppl.nn.inference_network:ProposalSession",
            "repro.ppl.nn.inference_network:InferenceNetwork.inference_session",
            "repro.ppl.inference.batched:_run_sequential",
            "repro.ppl.nn.proposals:ProposalLayer.proposal_distribution",
            "repro.ppl.nn.proposals:ProposalLayer.proposal_distributions",
            "repro.ppl.nn.proposals:ProposalNormalMixture.proposal_distributions",
            "repro.ppl.nn.proposals:ProposalCategorical.proposal_distributions",
            "repro.distributions:BatchedDistributionList",
            "repro.distributions.batched:BatchedDistributionList",
            "repro.ppl.inference.inference_compilation:InferenceCompilation.posterior_many",
            "repro.simulators.detector:Detector3D.smear_impact",
            "repro.simulators.detector:Detector3D.impact_log_prob",
            "repro.simulators.detector:DetectorConfig.impact_smearing",
            "repro.tensor:Tensor.unsqueeze",
            "repro.tensor:Tensor.randn",
            "repro.tensor:Tensor.flatten",
            "repro.tensor:Tensor.from_numpy",
            "repro.common.timing:PhaseTimer.total_by_phase",
            "repro.trace.sample:Sample.scalar_value",
            "repro.trace.sample:Sample.address_with_instance",
            "repro.distributions:Normal.icdf",
            "repro.trace:Trace.samples_at",
            "repro.trace:Trace.addresses_with_instances",
            "repro.data:TraceDataset.add_traces",
            "repro.data.dataset:InMemoryTraceDataset.add_traces",
            "repro.data.shelf:ShardStore.get_many",
            "repro.data.shelf:ShardStore.shard_of",
            "repro.data.shelf:ShardStore.get_metadata",
            "repro.data.shelf:ShardStore.set_metadata",
            "repro.ppl.empirical:Empirical.unweighted_values",
            "repro.ppl.empirical:FrozenPosterior.latent_names",
            "repro.tensor.optim.lr_scheduler:LRScheduler.current_lr",
            "repro.tensor.optim.optimizer:Optimizer.step_count",
            "repro.simulators.channels:DecayChannel.visible_products",
            "repro.simulators.channels:DecayChannel.invisible_products",
            "repro.distributed:average_gradients",
            "repro.distributed.allreduce:average_gradients",
            "repro.distributed.trainer:_OPTIMIZERS",
            "repro.tensor.optim:SGD",
            "repro.ppl.model:_RemoteSamplePolicy",
            "repro.ppx.server:SamplePolicy",
            # Prior importance sampling is batched_importance_sampling
            # without a network, through the one cohort engine.
            "repro.ppl.inference:run_importance_sampling",
            "repro.ppl.inference:importance_sampling",
            # Never run by the benchmark, the examples or the paper benches,
            # and unreachable from src/, benchmarks/ and examples/.
            "repro.tensor:is_grad_enabled",
            "repro.tensor.tensor:is_grad_enabled",
            "repro.tensor:Tensor.clone",
            "repro.tensor:Tensor.numpy",
            "repro.tensor:Tensor.zero_grad",
            "repro.tensor:Tensor.exp",
            "repro.tensor:Tensor.sqrt",
            "repro.tensor:Tensor.abs",
            "repro.tensor:Tensor.mean",
            "repro.tensor:Tensor.max",
            "repro.tensor:Tensor.view",
            "repro.tensor:Tensor.squeeze",
            "repro.tensor:Tensor.ones",
            "repro.tensor:Tensor.__pow__",
            "repro.tensor:Tensor.__rsub__",
            "repro.tensor:Tensor.__rtruediv__",
            "repro.tensor.functional:relu",
            "repro.tensor.functional:sigmoid",
            "repro.tensor.functional:tanh",
            "repro.tensor.functional:embedding",
            "repro.tensor.nn:Embedding",
            "repro.tensor.nn.linear:Embedding",
            "repro.tensor.nn:Module.named_modules",
            "repro.tensor.nn:Module.modules",
            "repro.tensor.nn:Sequential.__len__",
            "repro.tensor.nn:Sequential.__getitem__",
            "repro.tensor.nn:ModuleList.__len__",
            "repro.tensor.nn:ModuleList.__getitem__",
            "repro.tensor.nn:ModuleDict.keys",
            "repro.tensor.nn:ModuleDict.values",
            "repro.tensor.nn:ModuleDict.items",
            "repro.tensor.nn:ModuleDict.get",
            "repro.tensor.nn.init:zeros",
            "repro.common:temporary_seed",
            "repro.common.rng:temporary_seed",
            "repro.common:prod",
            "repro.common.utils:prod",
            "repro.common.timing:PhaseTimer.phase",
            "repro.common.timing:PhaseTimer.reset",
            "repro.common.timing:TimingRecord.total",
            "repro.common.timing:TimingRecord.__getitem__",
            "repro.data:TraceDataset.num_trace_types",
            "repro.data:InMemoryTraceDataset.num_trace_types",
            "repro.data.shelf:ShardStore.extend",
            "repro.simulators.spectroscopy:SpectroscopyModel.num_channels",
            "repro.distributions:Normal.cdf",
            "repro.ppl.inference.plans:EnginePlan.num_steps",
            "repro.ppl.nn.proposals:ProposalNormalMixture._prior_bounds",
            # Settings nothing read; the two-socket efficiency is one constant.
            "repro.common.config:Config.seed",
            "repro.common.config:Config.verbose",
            "repro.common.config:Config.default_dtype",
            "repro.distributed.performance_model:ClusterSpec.sockets_per_node",
            "repro.distributed.performance_model:ClusterSpec.two_socket_efficiency",
        ],
    )
    def test_removed_entry_points_are_gone(self, path):
        # Each name had only test callers (or was a second way to reach one
        # implementation); none may come back as a public attribute.
        import importlib

        module_name, _, attribute = path.partition(":")
        owner = importlib.import_module(module_name)
        *parents, name = attribute.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        assert not hasattr(owner, name)

    def test_tensor_comparisons_are_gone(self):
        # Tensor inherits object's comparison slots, so the name check above
        # cannot see them: comparing a tensor is a TypeError.
        import operator

        from repro.tensor import Tensor

        for compare in (operator.gt, operator.lt, operator.ge, operator.le):
            with pytest.raises(TypeError):
                compare(Tensor([1.0]), 0.5)

    @pytest.mark.parametrize(
        "call",
        [
            "batched_importance_sampling(trace_callback=)",
            "form_log_weights(trace_callback)",
            "RandomWalkMetropolis.run(trace_callback=)",
            "Detector3D(use_scalar_mvn=)",
            "SimulatorController.run_trace(sample_policy=)",
            "SimulatorController.run_trace(observe_override=)",
        ],
    )
    def test_removed_keyword_is_rejected(self, gaussian_model, call):
        # Only tests passed these; guided proposals come from the network's
        # lockstep session, never from a caller-supplied provider.
        from repro.ppl.inference.batched import form_log_weights
        from repro.ppx import SimulatorController, make_queue_pair
        from repro.simulators.detector import Detector3D

        observation = {"obs": 0.5}
        calls = {
            "batched_importance_sampling(trace_callback=)": lambda: batched_importance_sampling(
                gaussian_model, observation, num_traces=2, trace_callback=print
            ),
            "form_log_weights(trace_callback)": lambda: form_log_weights(
                [gaussian_model.prior_trace(RandomState(0))], None, print
            ),
            "RandomWalkMetropolis.run(trace_callback=)": lambda: RandomWalkMetropolis(
                gaussian_model, observation
            ).run(2, rng=RandomState(0), trace_callback=print),
            "Detector3D(use_scalar_mvn=)": lambda: Detector3D(use_scalar_mvn=False),
            # A remote run is recorded by an ExecutionState, as a local one
            # is.  No simulator answers: an accepted keyword times out.
            "SimulatorController.run_trace(sample_policy=)": lambda: SimulatorController(
                make_queue_pair()[0]
            ).run_trace(sample_policy=lambda address, distribution, request: 0.0, timeout=0.01),
            "SimulatorController.run_trace(observe_override=)": lambda: SimulatorController(
                make_queue_pair()[0]
            ).run_trace(None, observe_override=1.0, timeout=0.01),
        }
        with pytest.raises(TypeError):
            calls[call]()

    def test_one_execution_record(self, gaussian_model):
        # The execution state keeps the only tallies, and a remote model runs
        # under it through the same get_trace as a local one.
        from repro.ppl import Model, RemoteModel
        from repro.ppl.state import ProposalController, ReplayController

        replay = ReplayController({})
        proposal = ProposalController(lambda address, instance, prior: None)
        for controller in (replay, proposal):
            gaussian_model.get_trace(controller, rng=RandomState(0))
        for name in ("fresh_log_prob", "reused_keys", "fresh_keys"):
            assert not hasattr(replay, name)
        for name in ("log_q", "log_prior", "num_proposed", "state"):
            assert not hasattr(proposal, name)
        assert RemoteModel.get_trace is Model.get_trace

    def test_default_configured_engines_do_not_share_a_config(self):
        # With no process-global config, each default-configured engine owns
        # its Config: tuning one cannot reach another.
        first, second = (
            InferenceCompilation(
                observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=8),
                observe_key="obs",
                rng=RandomState(0),
            )
            for _ in range(2)
        )
        assert first.config is not second.config
        assert first.network.config is first.config
        first.config.lstm_hidden += 1
        assert second.config.lstm_hidden == Config().lstm_hidden
