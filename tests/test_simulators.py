"""Tests for the physics simulators: channels, detector, tau decay, spectroscopy."""

import numpy as np
import pytest

from repro.common.rng import RandomState, get_rng
from repro.simulators import (
    DECAY_CHANNELS,
    TAU_MASS,
    Deposit,
    Detector3D,
    DetectorConfig,
    SpectroscopyModel,
    TauDecayConfig,
    TauDecayModel,
    branching_ratios,
    channel_names,
    ground_truth_event,
)
from repro.simulators.spectroscopy import ELEMENT_LINES, SpectroscopyConfig, spectroscopy_program
from repro.simulators.handle import LocalHandle


class TestChannels:
    def test_branching_ratios_normalised(self):
        ratios = branching_ratios()
        assert np.isclose(ratios.sum(), 1.0)
        assert len(ratios) == len(DECAY_CHANNELS)
        assert np.all(ratios > 0)

    def test_dominant_channel_is_pi_pi0(self):
        # tau -> pi pi0 nu has the largest branching ratio in the table.
        assert DECAY_CHANNELS[int(np.argmax(branching_ratios()))].name == "tau->pi pi0 nu"

    def test_every_channel_has_a_neutrino(self):
        for channel in DECAY_CHANNELS:
            assert any(not p.visible for p in channel.products)

    def test_channel_names_and_mass(self):
        assert len(channel_names()) == len(DECAY_CHANNELS)
        assert TAU_MASS == pytest.approx(1.777, abs=1e-3)

    def test_leptonic_channels_present(self):
        names = channel_names()
        assert "tau->e nu nu" in names and "tau->mu nu nu" in names


class TestDetector:
    def test_deposit_conserves_energy_scale(self):
        detector = Detector3D(DetectorConfig(shape=(6, 9, 9)))
        grid = detector.deposit([Deposit(energy=10.0, impact_x=0.0, impact_y=0.0)])
        assert grid.shape == (6, 9, 9)
        assert grid.sum() == pytest.approx(10.0, rel=1e-6)
        assert np.all(grid >= 0)

    def test_deposit_superposition(self):
        detector = Detector3D(DetectorConfig(shape=(6, 9, 9)))
        a = detector.deposit([Deposit(5.0, 0.5, 0.5)])
        b = detector.deposit([Deposit(3.0, -0.5, -0.5)])
        both = detector.deposit([Deposit(5.0, 0.5, 0.5), Deposit(3.0, -0.5, -0.5)])
        assert np.allclose(both, a + b)

    def test_zero_energy_particles_are_ignored(self):
        detector = Detector3D()
        assert detector.deposit([Deposit(0.0, 0.0, 0.0)]).sum() == 0.0

    def test_impact_position_moves_the_blob(self):
        detector = Detector3D(DetectorConfig(shape=(4, 11, 11)))
        left = detector.deposit([Deposit(5.0, -2.0, 0.0)])
        right = detector.deposit([Deposit(5.0, 2.0, 0.0)])
        # centre of mass along x axis should differ
        xs = np.arange(11)
        com_left = (left.sum(axis=(0, 2)) * xs).sum() / left.sum()
        com_right = (right.sum(axis=(0, 2)) * xs).sum() / right.sum()
        assert com_left < com_right

    def test_em_showers_peak_earlier(self):
        detector = Detector3D(DetectorConfig(shape=(10, 7, 7)))
        em = detector.deposit([Deposit(5.0, 0.0, 0.0, is_electromagnetic=True)])
        had = detector.deposit([Deposit(5.0, 0.0, 0.0, is_electromagnetic=False)])
        assert np.argmax(em.sum(axis=(1, 2))) <= np.argmax(had.sum(axis=(1, 2)))

    def test_paper_size_configuration(self):
        assert DetectorConfig.paper_size().shape == (20, 35, 35)


class TestTauDecayModel:
    def test_prior_trace_structure(self, tau_model, rng):
        trace = tau_model.prior_trace(rng)
        named = trace.named_values()
        for key in ("px", "py", "pz", "channel"):
            assert key in named
        config = tau_model.config
        assert config.px_range[0] <= named["px"] <= config.px_range[1]
        assert config.pz_range[0] <= named["pz"] <= config.pz_range[1]
        assert 0 <= named["channel"] < len(DECAY_CHANNELS)
        assert trace.observation["detector"].shape == tau_model.observation_shape

    def test_rejection_loop_gives_variable_trace_lengths(self, tau_model, rng):
        lengths = {tau_model.prior_trace(rng).length for _ in range(40)}
        assert len(lengths) > 3

    def test_result_contains_figure8_variables(self, tau_model, rng):
        result = tau_model.prior_trace(rng).result
        for key in ("px", "py", "pz", "channel", "fsp_energy_1", "fsp_energy_2", "met"):
            assert key in result
        assert result["fsp_energy_1"] >= result["fsp_energy_2"] >= 0.0
        assert result["met"] >= 0.0
        assert result["tau_energy"] >= abs(result["pz"])

    def test_channel_frequencies_follow_branching_ratios(self, tau_model, rng):
        counts = np.zeros(len(DECAY_CHANNELS))
        for _ in range(400):
            counts[tau_model.prior_trace(rng)["channel"]] += 1
        freq = counts / counts.sum()
        # The dominant channel should be sampled most often.
        assert int(np.argmax(freq)) == int(np.argmax(branching_ratios()))

    def test_energy_fractions_are_positive_and_bounded(self, tau_model, rng):
        trace = tau_model.prior_trace(rng)
        fractions = [s.value for s in trace.samples if s.name and s.name.startswith("fraction_")]
        assert all(0.0 < f <= 1.0 for f in fractions)

    def test_observation_responds_to_momentum(self):
        # Very different px values should give visibly different detector images.
        _, obs_a = ground_truth_event(overrides={"px": -2.5, "py": 0.0, "pz": 45.0, "channel": 0}, rng=RandomState(0))
        _, obs_b = ground_truth_event(overrides={"px": 2.5, "py": 0.0, "pz": 45.0, "channel": 0}, rng=RandomState(0))
        assert not np.allclose(obs_a, obs_b)

    def test_ground_truth_event_respects_overrides(self):
        result, observation = ground_truth_event(overrides={"channel": 3, "px": 1.5}, rng=RandomState(5))
        assert result["channel"] == 3
        assert result["px"] == pytest.approx(1.5)
        assert observation.shape == TauDecayConfig().detector.shape

    def test_conditioned_trace_scores_supplied_observation(self, tau_model, rng):
        _, observation = ground_truth_event(rng=rng)
        trace = tau_model.get_trace(observed_values={"detector": observation}, rng=rng)
        assert np.allclose(trace.observes[0].value, observation)

    def test_custom_detector_shape(self):
        config = TauDecayConfig(detector=DetectorConfig(shape=(4, 7, 7)))
        model = TauDecayModel(config)
        assert model.prior_trace().observation["detector"].shape == (4, 7, 7)


class TestSpectroscopyModel:
    def test_prior_trace_structure(self, rng):
        model = SpectroscopyModel()
        trace = model.prior_trace(rng)
        result = trace.result
        assert set(result["fractions"]) == set(model.config.elements)
        assert np.isclose(sum(result["fractions"].values()), 1.0)
        assert trace.observation["spectrum"].shape == (model.config.num_channels,)
        assert model.config.dispersion_range[0] <= result["dispersion"] <= model.config.dispersion_range[1]

    def test_spectrum_is_nonnegative_before_noise(self, rng):
        result = SpectroscopyModel().prior_trace(rng).result
        assert np.all(result["expected_spectrum"] >= 0)

    def test_composition_changes_spectrum(self, rng):
        config = SpectroscopyConfig()
        axis_peaks = {}
        for element in ("Fe", "Si"):
            handle = LocalHandle()
            # run outside a tracing context: sample() falls back to prior draws,
            # so pin the composition by calling the program pieces directly
            spectrum = np.zeros(config.num_channels)
            for line in ELEMENT_LINES[element]:
                spectrum += line.intensity * np.exp(
                    -0.5 * ((np.linspace(0, 1, config.num_channels) - line.position) / 0.01) ** 2
                )
            axis_peaks[element] = int(np.argmax(spectrum))
        assert axis_peaks["Fe"] != axis_peaks["Si"]

    def test_every_element_has_lines(self):
        config = SpectroscopyConfig()
        for element in config.elements:
            assert element in ELEMENT_LINES
            assert len(ELEMENT_LINES[element]) >= 1

    def test_inference_recovers_dominant_element(self, rng):
        # Build an observation dominated by Fe and check IS posterior prefers Fe.
        model = SpectroscopyModel()
        from repro.ppl.state import Controller

        class _Fixed(Controller):
            def choose(self, address, instance, distribution, name, inner_rng):
                overrides = {"abundance_Fe": 0.95, "abundance_Ni": 0.06, "abundance_Cr": 0.06, "abundance_Si": 0.06,
                             "dispersion": 0.02, "background": 0.05}
                value = overrides.get(name, distribution.sample(inner_rng))
                return value, float(np.sum(distribution.log_prob(value)))

        truth = model.get_trace(_Fixed(), rng=rng)
        observation = truth.observation["spectrum"]
        posterior = model.posterior({"spectrum": observation}, num_traces=400, engine="importance_sampling", rng=rng)
        fe = posterior.extract("abundance_Fe").mean
        si = posterior.extract("abundance_Si").mean
        assert fe > si


class TestObservationNoiseComesFromTheExecutionStream:
    """Regression: the programs drew their observation noise from the
    process-global generator (``rng or get_rng()`` with no rng passed), so
    same-seed prior traces had equal latents but different observations, and
    every conditioned execution drew and discarded a noise image from the
    unsynchronised global stream."""

    MODELS = [(TauDecayModel, "detector"), (SpectroscopyModel, "spectrum")]

    @pytest.mark.parametrize("model_class,observe_name", MODELS)
    def test_same_seed_prior_traces_have_bit_equal_observations(self, model_class, observe_name):
        model = model_class()
        first = model.prior_traces(1, rng=RandomState(3))[0]
        get_rng().random()  # the global stream must not matter
        second = model.prior_traces(1, rng=RandomState(3))[0]
        assert [s.value for s in first.samples] == [s.value for s in second.samples]
        assert np.array_equal(first.observation[observe_name], second.observation[observe_name])
        # Noise was actually simulated, at the configured scale.
        expected = first.result["expected_image" if observe_name == "detector" else "expected_spectrum"]
        noise = first.observation[observe_name] - expected
        assert np.std(noise) == pytest.approx(first.observes[0].distribution.scale, rel=0.25)

    @pytest.mark.parametrize("model_class,observe_name", MODELS)
    def test_conditioned_execution_leaves_the_global_generator_untouched(
        self, model_class, observe_name
    ):
        model = model_class()
        observation = model.prior_trace(RandomState(4)).observation[observe_name]
        before = get_rng().generator.bit_generator.state
        trace = model.get_trace(observed_values={observe_name: observation}, rng=RandomState(5))
        assert get_rng().generator.bit_generator.state == before
        assert np.array_equal(trace.observation[observe_name], observation)
        # Conditioning draws no noise at all: the stream advances exactly as
        # far as the latents alone take it.
        replay = RandomState(5)
        for sample_record in trace.samples:
            sample_record.distribution.sample(replay)
        stream = RandomState(5)
        model.get_trace(observed_values={observe_name: observation}, rng=stream)
        assert stream.generator.bit_generator.state == replay.generator.bit_generator.state
