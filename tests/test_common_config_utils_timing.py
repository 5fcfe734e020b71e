"""Tests for repro.common config, utils and timing."""

import time

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.timing import PhaseTimer
from repro.common.utils import partition_traces, prod, weighted_quantile


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


class TestUtils:
    def test_prod(self):
        assert prod([2, 3, 4]) == 24
        assert prod([]) == 1

    def test_partition_traces_unequal(self):
        assert partition_traces(10, 3) == [4, 3, 3]
        assert partition_traces(2, 4) == [1, 1, 0, 0]
        with pytest.raises(ValueError):
            partition_traces(0, 3)
        with pytest.raises(ValueError):
            partition_traces(10, 0)

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
        timer.reset()
        assert timer.records == []
