"""Process-backend workers pin themselves to one core each.

Worker ``i`` confines itself to ``cores[i % len(cores)]`` of the affinity mask
it inherited, before it runs anything (``usable_cores(pin=i)`` in
``_worker_main``).  Each test runs one gated shard per worker at the same
time — the gate opens only once every worker has entered its shard, so shard
``i`` runs on worker ``i`` — and the model returns the cores its process may
run on.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import ppl
from repro.common.utils import usable_cores
from repro.distributions import Normal, Uniform
from repro.ppl import FunctionModel
from repro.serving import ProcessCohortPool
from tests.test_cohort_executor import GATE, ShardLog, simple_shards, wait_for

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no affinity calls on this platform"
)


#: workers that have entered ``core_reporting_program`` (shared with forked workers)
ENTERED = multiprocessing.Value("i", 0)


def core_reporting_program():
    with ENTERED.get_lock():
        ENTERED.value += 1
    wait_for(GATE)
    a = ppl.sample(Uniform(-1.0, 1.0), name="a", address="pinned_a")
    ppl.observe(Normal(a, 0.5), name="obs")
    return sorted(os.sched_getaffinity(0))


MODEL = FunctionModel(core_reporting_program, name="core-reporting")


def reported_cores(pool):
    """The cores each worker's process may run on, by worker index."""
    GATE.value = ENTERED.value = 0
    log = ShardLog(pool.num_workers)
    try:
        for index, shard in enumerate(simple_shards(pool.num_workers)):
            pool.submit(shard, log.callback(index))
        # A worker that finished its shard before the next one was dispatched
        # would take that one too: hold the gate until every worker holds one.
        deadline = time.monotonic() + 30.0
        while ENTERED.value < pool.num_workers and time.monotonic() < deadline:
            time.sleep(0.005)
    finally:
        GATE.value = 1
    log.wait(pool.num_workers)
    return [log.traces(index)[0].result for index in range(pool.num_workers)]


@pytest.fixture
def one_core_parent():
    """Confine this process to its first core for the test, then restore it."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield min(allowed)
    finally:
        os.sched_setaffinity(0, allowed)


def test_usable_cores_reads_the_mask_and_pins_by_index_modulo_its_size():
    cores = usable_cores()
    assert cores == sorted(os.sched_getaffinity(0))
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child: report through the exit code only
        returned = usable_cores(pin=len(cores) + 1)
        pinned = os.sched_getaffinity(0) == {cores[1 % len(cores)]}
        os._exit(0 if returned == cores and pinned else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert os.sched_getaffinity(0) == set(cores)  # the parent is untouched


@pytest.mark.skipif(len(usable_cores()) < 2, reason="needs two usable cores")
def test_two_workers_pin_to_disjoint_single_cores():
    cores = usable_cores()
    with ProcessCohortPool(MODEL, None, num_workers=2) as pool:
        assert reported_cores(pool) == [[cores[0]], [cores[1]]]


def test_one_core_parent_mask_pins_every_worker_to_that_core(one_core_parent):
    with ProcessCohortPool(MODEL, None, num_workers=2) as pool:
        assert reported_cores(pool) == [[one_core_parent], [one_core_parent]]


def test_respawned_and_refreshed_workers_keep_their_core():
    cores = usable_cores()
    expected = [[cores[index % len(cores)]] for index in range(2)]
    with ProcessCohortPool(MODEL, None, num_workers=2) as pool:
        victim = pool._workers[1]
        os.kill(victim.process.pid, signal.SIGKILL)
        # Its pipe reads end-of-file: the pool reaps it and respawns it under
        # its index.  Wait for that rather than joining the victim here, where
        # the test would race the pool's own ``join`` for the exit status.
        deadline = time.monotonic() + 10.0
        while pool._workers[1] is victim and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._workers[1] is not victim
        victim.process.join(timeout=5.0)
        assert not victim.process.is_alive()
        assert reported_cores(pool) == expected
        assert pool._workers[1].process.pid != victim.process.pid
        pool.refresh(MODEL)
        assert reported_cores(pool) == expected
