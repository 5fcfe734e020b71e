"""Tests for traces, samples, trace types, pruning and address dictionaries."""

import numpy as np
import pytest

from repro.distributions import Categorical, Normal, Uniform
from repro.trace import (
    AddressDictionary,
    Sample,
    Trace,
    prune_trace,
    pruned_size_bytes,
    restore_trace,
    trace_type_id,
)


def build_trace(values=(0.3, 1), observation=None):
    trace = Trace()
    trace.add_sample(Sample("addr/px", Uniform(-3, 3), values[0], log_prob=float(Uniform(-3, 3).log_prob(values[0])), name="px"))
    trace.add_sample(Sample("addr/channel", Categorical([0.5, 0.5]), values[1], log_prob=float(np.log(0.5)), name="channel"))
    obs_value = observation if observation is not None else np.zeros((2, 2))
    trace.add_sample(
        Sample("addr/obs", Normal(np.zeros((2, 2)), 1.0), obs_value, observed=True, log_prob=-1.0, controlled=False, name="y")
    )
    trace.freeze(result={"px": values[0]}, observation={"y": obs_value})
    return trace


class TestSample:
    def test_dict_with_distribution(self):
        payload = Sample("a", Normal(1.0, 2.0), 0.5, log_prob=-1.2, name="x").to_dict()
        assert payload["address"] == "a"
        assert payload["distribution"] == Normal(1.0, 2.0).to_dict()
        assert payload["value"] == pytest.approx(0.5)
        assert payload["log_prob"] == pytest.approx(-1.2)
        assert payload["name"] == "x"

    def test_dict_array_value_is_a_list(self):
        payload = Sample("a", None, np.arange(4.0)).to_dict(include_distribution=False)
        assert payload["value"] == [0.0, 1.0, 2.0, 3.0]

    def test_dict_without_distribution(self):
        payload = Sample("a", Normal(0, 1), 0.5).to_dict(include_distribution=False)
        assert "distribution" not in payload


class TestTrace:
    def test_structure_and_log_probs(self):
        trace = build_trace()
        assert trace.length == 2
        assert len(trace.observes) == 1
        assert trace.log_prior == pytest.approx(float(Uniform(-3, 3).log_prob(0.3)) + np.log(0.5))
        assert trace.log_likelihood == pytest.approx(-1.0)
        assert trace.log_joint == pytest.approx(trace.log_prior + trace.log_likelihood)

    def test_named_access(self):
        trace = build_trace()
        assert trace["px"] == pytest.approx(0.3)
        assert trace["channel"] == 1
        assert trace.get("missing", default=42) == 42
        with pytest.raises(KeyError):
            _ = trace["missing"]

    def test_instances_count_repeated_addresses(self):
        trace = Trace()
        for value in (0.1, 0.2, 0.3):
            trace.add_sample(Sample("loop", Uniform(0, 1), value, name="f"))
        assert [s.instance for s in trace.samples] == [0, 1, 2]
        # Named access returns the last (accepted) value.
        assert trace["f"] == pytest.approx(0.3)

    def test_trace_type_depends_only_on_addresses(self):
        a = build_trace(values=(0.3, 1))
        b = build_trace(values=(-1.0, 0))
        assert a.trace_type == b.trace_type
        c = Trace()
        c.add_sample(Sample("other", Uniform(0, 1), 0.5))
        assert c.trace_type != a.trace_type

    def test_dict(self):
        trace = build_trace()
        payload = trace.to_dict()
        assert tuple(record["address"] for record in payload["samples"]) == trace.addresses
        assert [record["address"] for record in payload["observes"]] == ["addr/obs"]
        assert payload["result"] == {"px": pytest.approx(0.3)}
        assert payload["observation"]["y"].shape == (2, 2)


class TestTraceTypeId:
    def test_trace_type_id_is_stable(self):
        assert trace_type_id(["x", "y"]) == trace_type_id(["x", "y"])
        assert trace_type_id(["x", "y"]) != trace_type_id(["y", "x"])
        assert trace_type_id(["xy"]) != trace_type_id(["x", "y"])


class TestPruning:
    def test_roundtrip_without_dictionary(self):
        trace = build_trace()
        restored = restore_trace(prune_trace(trace))
        assert restored.addresses == trace.addresses
        assert restored["px"] == pytest.approx(trace["px"])
        assert restored.trace_type == trace.trace_type
        assert np.allclose(np.asarray(restored.observation["y"]), np.zeros((2, 2)))

    def test_roundtrip_with_address_dictionary(self):
        trace = build_trace()
        dictionary = AddressDictionary()
        pruned = prune_trace(trace, address_dictionary=dictionary)
        assert all("address_id" in record for record in pruned["samples"])
        restored = restore_trace(pruned, address_dictionary=dictionary)
        assert restored.addresses == trace.addresses

    def test_restore_requires_dictionary_when_used(self):
        trace = build_trace()
        dictionary = AddressDictionary()
        pruned = prune_trace(trace, address_dictionary=dictionary)
        with pytest.raises(ValueError):
            restore_trace(pruned)

    def test_log_prior_recomputed_after_restore(self):
        trace = build_trace()
        restored = restore_trace(prune_trace(trace))
        assert restored.log_prior == pytest.approx(trace.log_prior)

    def test_address_dictionary_reduces_size_for_long_addresses(self):
        # A dataset of traces sharing long (stack-frame-like) addresses: the
        # dictionary is stored once while every trace record stores only the
        # shorthand ids, which is where the paper's ~40% saving comes from.
        def make_trace():
            trace = Trace()
            for i in range(12):
                address = (
                    f"simulators/tau_decay.py:tau_decay_program:{100 + i}|"
                    f"simulators/tau_decay.py:_energy_fractions:{60 + i}"
                )
                trace.add_sample(Sample(address, Uniform(0, 1), 0.5, name=f"f{i}"))
            trace.freeze(observation={"y": 0.0})
            return trace

        traces = [make_trace() for _ in range(20)]
        dictionary = AddressDictionary()
        with_dict = sum(
            pruned_size_bytes(prune_trace(t, address_dictionary=dictionary)) for t in traces
        ) + pruned_size_bytes(dictionary.to_dict())
        without_dict = sum(pruned_size_bytes(prune_trace(t)) for t in traces)
        assert with_dict < without_dict
        # The paper reports ~40% memory reduction; require a substantial saving here.
        assert with_dict < 0.8 * without_dict

    def test_pruned_record_is_smaller_than_full_trace(self):
        trace = build_trace(observation=np.zeros((8, 8)))
        full = pruned_size_bytes(trace.to_dict())
        pruned = pruned_size_bytes(prune_trace(trace))
        assert pruned < full

    def test_address_dictionary_roundtrip(self):
        dictionary = AddressDictionary()
        first = dictionary.id_for("alpha")
        assert dictionary.id_for("alpha") == first
        assert dictionary.id_for("beta") == first + 1
        assert "alpha" in dictionary and "gamma" not in dictionary
        rebuilt = AddressDictionary.from_dict(dictionary.to_dict())
        assert rebuilt.address_for(first) == "alpha"
        assert len(rebuilt) == 2
