"""Smoke test of the repo benchmark: every workload, both result shapes, the trace file.

Runs each workload once, traced, for a fraction of a second with a single
set-up — enough to exercise every code path the real command takes (set-up,
timed window, correctness checks, per-layer probes, span file), not enough to
measure anything.
"""

import json
import os
import re

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.workloads import SEGMENTS

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(autouse=True)
def _child_interpreters_find_the_package(monkeypatch):
    """The PPX simulator is a child process: give it an absolute path to ``src``."""
    inherited = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(run.ROOT / "src"), inherited])))


def test_spec_names_are_well_formed_and_unique():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert all(len(workload["why"]) <= 200 and "\n" not in workload["why"] for workload in SPEC["workloads"])


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]] + run.UNGATED_WORKLOADS)
def test_workload_runs_checks_and_traces(workload, capsys):
    result = run.run_workload(workload, seed=1, seconds=0.4, traced=True, setup_repeats=1, spec=SPEC)
    assert result.correct, result.problems
    assert result.attempted >= 1
    assert result.attempted == result.samples["latency"] + result.failed
    # Every segment of the window completed work and has a host-speed reading.
    assert len(result.per_segment["traces/s"]) == len(result.per_segment["host speed"]) == SEGMENTS

    # Every metric of BENCHMARK.json is reported, by name, with its unit.
    run.print_result(result, SPEC)
    printed = capsys.readouterr().out
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}", printed, re.M)
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        result.traced = traced
        line = json.loads(run.driver_line(result, SPEC))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [metric["name"] for metric in SPEC[section]]
    assert all(value > 0 for value in result.end_to_end.values())

    # The span file parses and every child span lies inside its parent.
    with open(result.trace_path) as handle:
        events = json.load(handle)["traceEvents"]
    assert events
    by_id = {event["args"]["id"]: event for event in events}
    slack_us = 1.0
    for event in events:
        parent = by_id.get(event["args"]["parent"])
        if parent is not None:
            assert event["ts"] >= parent["ts"] - slack_us
            assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + slack_us
            assert event["args"]["request_id"] == parent["args"]["request_id"]
    os.remove(result.trace_path)
