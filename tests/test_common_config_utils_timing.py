"""Tests for repro.common config, utils and timing."""

import time

import numpy as np
import pytest

from repro.common.config import Config, get_config, set_config
from repro.common.timing import PhaseTimer
from repro.common.utils import (
    ensure_list,
    flatten_dict,
    format_bytes,
    format_seconds,
    prod,
    weighted_quantile,
)


class TestConfig:
    def test_defaults_are_scaled_down(self):
        cfg = Config()
        assert cfg.lstm_hidden < 512
        assert cfg.observation_shape != (20, 35, 35)

    def test_scaled_to_paper_matches_section_4_3(self):
        cfg = Config().scaled_to_paper()
        assert cfg.observation_shape == (20, 35, 35)
        assert cfg.lstm_hidden == 512
        assert cfg.proposal_mixture_components == 10
        assert cfg.observation_embedding_dim == 256
        assert cfg.address_embedding_dim == 64
        assert cfg.sample_embedding_dim == 4

    def test_replace_returns_copy(self):
        cfg = Config()
        other = cfg.replace(lstm_hidden=99)
        assert other.lstm_hidden == 99
        assert cfg.lstm_hidden != 99

    def test_set_config_updates_global(self):
        original = get_config()
        try:
            set_config(lstm_hidden=123)
            assert get_config().lstm_hidden == 123
        finally:
            set_config(original)


class TestUtils:
    def test_prod(self):
        assert prod([2, 3, 4]) == 24
        assert prod([]) == 1

    def test_ensure_list(self):
        assert ensure_list(3) == [3]
        assert ensure_list([1, 2]) == [1, 2]
        assert ensure_list((1, 2)) == [1, 2]

    def test_flatten_dict(self):
        nested = {"a": {"b": 1, "c": {"d": 2}}, "e": 3}
        assert flatten_dict(nested) == {"a.b": 1, "a.c.d": 2, "e": 3}

    def test_format_bytes(self):
        assert format_bytes(1.7 * 1024**4).endswith("TB")
        assert format_bytes(10) == "10.0 B"

    def test_format_seconds_ranges(self):
        assert format_seconds(2e-6).endswith("us")
        assert format_seconds(0.02).endswith("ms")
        assert format_seconds(5).endswith("s")
        assert format_seconds(120).endswith("min")
        assert format_seconds(7200).endswith("h")

    def test_weighted_quantile_unweighted_median(self):
        values = np.arange(1, 101, dtype=float)
        median = weighted_quantile(values, 0.5)
        assert abs(float(median[0]) - 50.5) < 1.0

    def test_weighted_quantile_respects_weights(self):
        values = np.array([0.0, 1.0])
        weights = np.array([0.01, 0.99])
        q = weighted_quantile(values, 0.5, weights)
        assert float(q[0]) > 0.5

    def test_weighted_quantile_validates(self):
        with pytest.raises(ValueError):
            weighted_quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            weighted_quantile([], 0.5)
        with pytest.raises(ValueError):
            weighted_quantile([1.0, 2.0], 0.5, [1.0])


class TestTiming:
    def test_phase_timer_records_phases(self):
        timer = PhaseTimer()
        with timer.phase("forward"):
            time.sleep(0.005)
        timer.add("sync", 0.5)
        record = timer.end_iteration()
        assert record["sync"] == pytest.approx(0.5)
        assert record["forward"] > 0
        assert record.total() > 0.5

    def test_phase_timer_mean_by_phase(self):
        timer = PhaseTimer()
        for value in (1.0, 3.0):
            timer.add("backward", value)
            timer.end_iteration()
        assert timer.mean_by_phase()["backward"] == pytest.approx(2.0)
        assert timer.total_by_phase()["backward"] == pytest.approx(4.0)
        timer.reset()
        assert timer.records == []
