"""Tests for repro.common config, utils and timing."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.common.config import Config
from repro.common.timing import PhaseTimer
from repro.common import utils
from repro.common.utils import partition_traces, weighted_quantile


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


#: a training step's heap traffic in miniature: one 2 MiB block (it sets
#: glibc's dynamic thresholds: mapped below 2 MiB, trimmed above 4 MiB of free
#: top) and 8 MiB of smaller blocks, all freed together, 20 times over
_HEAP_STEPS = textwrap.dedent(
    """
    import resource, sys
    import numpy as np
    from repro.common.utils import retain_freed_heap
    if sys.argv[1] == "retain":
        retain_freed_heap()
    def step():
        big = np.ones(1 << 18)
        graph = [np.ones(1 << 16) for _ in range(16)]
        del big, graph
    for _ in range(5):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        step()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
)


@pytest.mark.skipif(utils._mallopt is None, reason="glibc's mallopt is not available")
class TestRetainFreedHeap:
    @staticmethod
    def page_faults(mode):
        """Minor page faults of the 20 steps, in a fresh interpreter (a clean heap)."""
        src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(utils.__file__))))
        # The control must run under glibc's default policy, whatever this
        # environment tunes.
        env = {
            name: value
            for name, value in os.environ.items()
            if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"
        }
        env["PYTHONPATH"] = src
        out = subprocess.run(
            [sys.executable, "-c", _HEAP_STEPS, mode], env=env, capture_output=True, text=True, check=True
        )
        return int(out.stdout.split()[-1])

    def test_freed_steps_are_reused_not_faulted_back_in(self):
        # Without it glibc returns each step's 10 MiB and faults it back in:
        # about 2 500 faults a step.
        assert self.page_faults("default") > 20 * 1000
        assert self.page_faults("retain") < 20 * 50


class TestTiming:
    def test_phase_timer_records_phases(self):
        timer = PhaseTimer()
        timer.add("sync", 0.5)
        record = timer.end_iteration()
        assert record.phases["sync"] == pytest.approx(0.5)
        assert timer.records == [record]

    def test_phase_timer_mean_by_phase(self):
        timer = PhaseTimer()
        for value in (1.0, 3.0):
            timer.add("backward", value)
            timer.end_iteration()
        assert timer.mean_by_phase()["backward"] == pytest.approx(2.0)
