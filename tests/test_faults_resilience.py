"""Tests of the fault-injection harness and the serving resilience layer.

Covers the robustness acceptance contract: fault plans are reproducible from
their seed alone (and picklable into worker processes); the hooks are inert
without an installed plan; transient cohort failures are retried by running
the same jobs again from their stream keys (so seeded equivalence survives a
retry bit-for-bit); the circuit breaker fails fresh submissions fast with a
``ServingError`` while cached entries keep being served; a crashed worker
process's shard runs again only through the retry policy; and shutdown racing
a worker crash never leaves a future unresolved.
"""

import itertools
import os
import pickle
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro import ppl
from repro.common.rng import RandomState
from repro.distributions import Normal, Uniform
from repro.ppl import FunctionModel
from repro.ppl.inference.batched import (
    LockstepStallError,
    TraceJob,
    _LockstepCoordinator,
    batched_importance_sampling,
)
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.serving import (
    BreakerOpen,
    CircuitBreaker,
    PoolStopped,
    PosteriorService,
    ProcessCohortPool,
    RetryPolicy,
    ServiceResilience,
    ServingError,
    is_transient,
    posterior_digest,
)
from repro.serving.procpool import WorkerCrashed
from repro.testing import FaultPlan, FaultRule, InjectedFault, activate, fault_point, faults
from tests.test_batched_inference import OBSERVATION, lockstep_program


@pytest.fixture(scope="module")
def served_engine():
    model = FunctionModel(lockstep_program, name="lockstep")
    engine = InferenceCompilation(
        observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=16),
        observe_key="obs",
        rng=RandomState(0),
    )
    engine.train(model, num_traces=400, minibatch_size=20, learning_rate=3e-3)
    return model, engine


def make_service(model, engine, **kwargs):
    defaults = dict(observe_key="obs", max_batch=32, max_latency=0.01, num_workers=2)
    defaults.update(kwargs)
    return PosteriorService(model, engine.network if engine else None, **defaults)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.clear()


# ---------------------------------------------------------------------------
# Fault plan unit semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_disabled_hook_returns_none(self):
        assert faults.active() is None
        assert fault_point("anywhere", anything=1) is None
        assert faults.perform("anywhere") is None
        assert faults.injected_counts() == {}

    def test_at_every_probability_and_limit(self):
        plan = FaultPlan(
            [
                FaultRule(site="s", kind="error", at=2),
                FaultRule(site="t", kind="delay", every=3, delay=0.0, limit=2),
            ],
            seed=1,
        )
        verdicts = [plan.decide("s") for _ in range(5)]
        assert [v.kind if v else None for v in verdicts] == [None, None, "error", None, None]
        # every=3 fires on occurrences 2, 5, 8, ... but limit=2 caps it.
        t_verdicts = [plan.decide("t") for _ in range(12)]
        fired_at = [i for i, v in enumerate(t_verdicts) if v is not None]
        assert fired_at == [2, 5]
        assert plan.fired_counts() == {"s/error": 1, "t/delay": 2}
        assert plan.total_fired() == 3

    def test_same_seed_same_schedule_regardless_of_interleaving(self):
        def decisions(plan, order):
            outcome = {}
            for site in order:
                outcome.setdefault(site, []).append(plan.decide(site) is not None)
            return outcome

        rule = lambda site: FaultRule(site=site, kind="error", probability=0.4)
        a = decisions(FaultPlan([rule("x"), rule("y")], seed=9), ["x", "y"] * 10)
        # Interleave differently: per-site occurrence counters make the
        # verdict for the Nth call at a site independent of other sites.
        b = decisions(FaultPlan([rule("x"), rule("y")], seed=9), ["x"] * 10 + ["y"] * 10)
        assert a == b
        c = decisions(FaultPlan([rule("x"), rule("y")], seed=10), ["x", "y"] * 10)
        assert a != c  # different seed, different schedule (w.h.p. for p=0.4)

    def test_plans_pickle_with_schedule_position(self):
        plan = FaultPlan([FaultRule(site="s", kind="crash", at=1)], seed=3)
        assert plan.decide("s") is None
        clone = pickle.loads(pickle.dumps(plan))
        # The clone continues from the parent's occurrence counter: the next
        # call is occurrence 1 for both.
        assert clone.decide("s").kind == "crash"
        assert plan.decide("s").kind == "crash"

    def test_randomized_plans_are_pure_functions_of_seed(self):
        a, b = FaultPlan.randomized(42), FaultPlan.randomized(42)
        assert a.rules == b.rules
        assert a.seed == b.seed

    def test_activate_restores_previous_plan(self):
        outer = FaultPlan([], seed=1)
        faults.install(outer)
        with activate(FaultPlan([], seed=2)) as inner:
            assert faults.active() is inner
        assert faults.active() is outer
        faults.clear()

    def test_perform_raises_injected_fault(self):
        with activate(FaultPlan([FaultRule(site="s", kind="error", at=0)], seed=0)):
            with pytest.raises(InjectedFault):
                faults.perform("s")
        assert is_transient(InjectedFault("x"))

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="s", kind="frobnicate", at=0)
        with pytest.raises(ValueError):
            FaultRule(site="s", kind="error")  # no trigger


# ---------------------------------------------------------------------------
# Retry policy + circuit breaker units
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(5) == pytest.approx(0.5)  # capped

    def test_jitter_is_deterministic_and_centred(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        assert policy.delay(1, key=7) == policy.delay(1, key=7)
        assert policy.delay(1, key=7) != policy.delay(1, key=8)
        assert 0.075 <= policy.delay(1, key=7) <= 0.125


class TestCircuitBreaker:
    def test_threshold_recovery_and_probe(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(failure_threshold=2, recovery_time=10.0, clock=lambda: clock["now"])
        assert breaker.allow() and not breaker.blocking()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open" and breaker.blocking() and not breaker.allow()
        clock["now"] = 11.0
        assert breaker.allow()  # this caller is the half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one probe per window
        breaker.record_failure()
        assert breaker.state == "open"  # failed probe reopens
        clock["now"] = 22.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.opens == 2

    def test_service_stats_read_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1)
        resilience = ServiceResilience(breaker=breaker)
        service = make_service(FunctionModel(lockstep_program, name="lockstep"), None,
                               resilience=resilience)
        breaker.record_failure()
        stats = service.stats()
        assert (stats["breaker_state"], stats["breaker_opens"]) == ("open", 1)
        breaker.record_success()
        stats = service.stats()
        assert (stats["breaker_state"], stats["breaker_opens"]) == ("closed", 1)
        assert stats["resilience"]["breaker"]["opens"] == 1


# ---------------------------------------------------------------------------
# Service-level resilience (thread backend)
# ---------------------------------------------------------------------------


class TestServiceRetries:
    def test_transient_cohort_failures_are_retried_to_the_same_posterior(self, served_engine):
        model, engine = served_engine
        # The first two cohort executions fail with an injected transient
        # fault; the retry runs the same jobs from their stream keys, so the
        # final posterior is bit-identical to a clean run.
        plan = FaultPlan([FaultRule(site="workers.cohort", kind="error", at=0, limit=1),
                          FaultRule(site="workers.cohort", kind="error", at=1, limit=1)], seed=0)
        resilience = ServiceResilience(
            RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0),
            CircuitBreaker(failure_threshold=50),
        )
        with activate(plan):
            with make_service(model, engine, num_workers=1, resilience=resilience) as service:
                result = service.posterior(OBSERVATION, num_traces=12, seed=21,
                                           use_cache=False, timeout=60)
                stats = service.stats()
        assert stats["retries"] >= 1
        # Two injected failures of the one shard, two redispatches.
        assert stats["retries"] == resilience.retries_dispatched == 2
        assert stats["faults_injected"] == plan.total_fired() >= 1
        assert stats["faults"]["workers.cohort/error"] >= 1
        direct = batched_importance_sampling(
            model, OBSERVATION, num_traces=12, batch_size=64,
            network=engine.network, rng=RandomState(21),
        )
        for latent in ("a", "b", "c"):
            assert result.posterior.extract(latent).mean == pytest.approx(
                direct.extract(latent).mean, abs=1e-12
            )
        assert result.posterior.log_evidence == pytest.approx(direct.log_evidence, abs=1e-12)

    def test_a_cohort_that_fails_mid_draw_is_re_run_from_its_keys(self, served_engine):
        # Every execution of the first attempt fails *after* drawing from
        # its stream.  A job carries its key, not a generator, so the retry
        # builds every stream afresh: nothing was rewound, and the posterior
        # is still the clean run's, bit for bit.
        model, engine = served_engine
        executions, lock = itertools.count(), threading.Lock()

        class FlakySimulatorError(RuntimeError):
            transient = True

        def flaky_program():
            a = ppl.sample(Uniform(-2.0, 2.0), name="a", address="addr_a")
            b = ppl.sample(Normal(a, 1.0), name="b", address="addr_b")
            with lock:
                execution = next(executions)
            if execution < 12:
                raise FlakySimulatorError("simulator lost its licence server")
            c = ppl.sample(Uniform(b - 1.0, b + 1.0), name="c", address="addr_c")
            ppl.observe(Normal(np.array([a, b, c, a + b + c]), 0.4), name="obs")
            return a

        resilience = ServiceResilience(
            RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
            CircuitBreaker(failure_threshold=50),
        )
        flaky = FunctionModel(flaky_program, name="lockstep")
        with make_service(flaky, engine, num_workers=1, resilience=resilience) as service:
            result = service.posterior(OBSERVATION, num_traces=12, seed=21, use_cache=False, timeout=60)
        assert resilience.retries_dispatched == 1
        direct = batched_importance_sampling(
            model, OBSERVATION, num_traces=12, batch_size=64,
            network=engine.network, rng=RandomState(21),
        )
        assert posterior_digest(result.posterior) == posterior_digest(direct)

    def test_exhausted_retry_budget_fails_the_future(self, served_engine):
        model, engine = served_engine
        plan = FaultPlan([FaultRule(site="workers.cohort", kind="error", every=1)], seed=0)
        resilience = ServiceResilience(
            RetryPolicy(max_attempts=2, base_delay=0.005, jitter=0.0),
            CircuitBreaker(failure_threshold=100),
        )
        with activate(plan):
            with make_service(model, engine, num_workers=1, resilience=resilience) as service:
                future = service.submit(OBSERVATION, num_traces=4, seed=1, use_cache=False)
                with pytest.raises(InjectedFault):
                    future.result(timeout=30)
                assert service.stats()["failed"] == 1

    def test_non_transient_failures_are_not_retried(self, served_engine):
        model, engine = served_engine
        resilience = ServiceResilience(RetryPolicy(max_attempts=5, base_delay=0.01))

        def broken_program():
            raise ValueError("deterministic model bug")

        with make_service(FunctionModel(broken_program, name="broken"), None,
                          num_workers=1, resilience=resilience) as service:
            future = service.submit({"obs": 1.0}, num_traces=2, use_cache=False)
            with pytest.raises(ValueError, match="deterministic model bug"):
                future.result(timeout=30)
        assert resilience.retries_dispatched == 0

    def test_stop_fails_requests_waiting_out_a_backoff(self, served_engine):
        model, engine = served_engine
        plan = FaultPlan([FaultRule(site="workers.cohort", kind="error", every=1)], seed=0)
        resilience = ServiceResilience(
            RetryPolicy(max_attempts=3, base_delay=30.0, jitter=0.0),  # parked well past the stop
            CircuitBreaker(failure_threshold=100),
        )
        with activate(plan):
            service = make_service(model, engine, num_workers=1, resilience=resilience).start()
            future = service.submit(OBSERVATION, num_traces=4, seed=1, use_cache=False)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and resilience.stats()["retries_pending"] == 0:
                time.sleep(0.01)
            assert resilience.stats()["retries_pending"] == 1
            service.stop(drain=True)
        with pytest.raises(ServingError, match="stopped while retrying"):
            future.result(timeout=10)


class TestBreaker:
    def _storm_service(self, model, engine, **overrides):
        defaults = dict(
            retry=RetryPolicy(max_attempts=0),
            breaker=CircuitBreaker(failure_threshold=1, recovery_time=60.0),
        )
        defaults.update(overrides)
        resilience = ServiceResilience(defaults["retry"], defaults["breaker"])
        return make_service(model, engine, num_workers=1, resilience=resilience), resilience

    def test_open_breaker_fails_fresh_submissions_with_serving_error(self, served_engine):
        model, engine = served_engine
        plan = FaultPlan([FaultRule(site="workers.cohort", kind="error", every=1)], seed=0)
        service, resilience = self._storm_service(model, engine)
        with activate(plan):
            with service:
                first = service.submit(OBSERVATION, num_traces=4, seed=1, use_cache=False)
                with pytest.raises(InjectedFault):
                    first.result(timeout=30)
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and resilience.breaker.state != "open":
                    time.sleep(0.01)
                assert resilience.breaker.state == "open"
                with pytest.raises(BreakerOpen):
                    service.submit(OBSERVATION, num_traces=4, seed=2, use_cache=False)
                # BreakerOpen is a ServingError: clients catching the serving
                # tier's base error see degradation, not a new exception type.
                assert issubclass(BreakerOpen, ServingError)
                stats = service.stats()
                assert stats["breaker_state"] == "open"
                assert stats["breaker_opens"] >= 1
                # One failed shard opened it; the refused submit was not dispatched.
                assert stats["breaker_opens"] == resilience.breaker.opens == 1

    def test_open_breaker_keeps_serving_cached_entries(self, served_engine):
        model, engine = served_engine
        # Populate the cache, then open the breaker and verify the cached
        # entry still answers while fresh observations fail fast.
        service, resilience = self._storm_service(model, engine)
        plan = FaultPlan([FaultRule(site="workers.cohort", kind="error", every=1)], seed=0)
        with service:
            warm = service.posterior(OBSERVATION, num_traces=4, seed=1, timeout=60)
            assert not warm.cached
            with activate(plan):
                failing = service.submit(OBSERVATION, num_traces=8, seed=2, use_cache=False)
                with pytest.raises(InjectedFault):
                    failing.result(timeout=30)
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and resilience.breaker.state != "open":
                    time.sleep(0.01)
                served = service.posterior(OBSERVATION, num_traces=4, timeout=10)
                assert served.cached
                with pytest.raises(BreakerOpen):
                    service.submit({"obs": np.array([9.0, 9.0, 9.0, 9.0])},
                                   num_traces=4, use_cache=False)


class TestAdmissionBursts:
    def test_injected_queue_full_bursts_take_the_overload_path(self, served_engine):
        model, engine = served_engine
        from repro.serving import ServiceOverloaded

        plan = FaultPlan([FaultRule(site="service.admit", kind="reject", every=1, limit=2)], seed=0)
        with activate(plan):
            with make_service(model, engine) as service:
                for _ in range(2):
                    with pytest.raises(ServiceOverloaded):
                        service.submit(OBSERVATION, num_traces=4, use_cache=False)
                # The burst is bounded by the rule limit: service recovers.
                ok = service.posterior(OBSERVATION, num_traces=4, use_cache=False, timeout=60)
                assert ok.num_traces == 4
                stats = service.stats()
        assert stats["rejected_overload"] == 2
        assert stats["faults"]["service.admit/reject"] == 2


# ---------------------------------------------------------------------------
# Process backend: crash injection, shutdown races
# ---------------------------------------------------------------------------


def slow_program():
    import repro.ppl as ppl
    from repro.distributions import Normal, Uniform

    a = ppl.sample(Uniform(-1.0, 1.0), name="a", address="slow_a")
    time.sleep(0.25)
    ppl.observe(Normal(a, 0.5), name="obs")
    return a


SLOW_OBSERVATION = {"obs": np.array(0.3)}


class TestProcessChaos:
    def test_injected_dispatch_crash_is_retried_through_the_retry_policy(self, served_engine):
        model, engine = served_engine
        plan = FaultPlan(
            [FaultRule(site="procpool.dispatch", kind="crash", at=0, limit=1)], seed=0
        )
        resilience = ServiceResilience(RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0))
        with activate(plan):
            with make_service(model, engine, backend="process", num_workers=2,
                              resilience=resilience) as service:
                workers = service.workers
                result = service.posterior(OBSERVATION, num_traces=8, seed=5,
                                           use_cache=False, timeout=120)
                stats = service.stats()
        assert stats["faults"]["procpool.dispatch/crash"] == 1
        # The pool failed the shard once; the one re-run is the policy's retry.
        assert stats["workers"]["worker_crashes"] == 1
        assert stats["workers"]["failed_shards"] == 1
        assert stats["workers"]["shards_executed"] == 1
        assert stats["retries"] == 1
        assert (stats["completed"], stats["failed"]) == (1, 0)
        assert service.workers is workers and stats["backend"] == "process"
        direct = batched_importance_sampling(
            model, OBSERVATION, num_traces=8, batch_size=64,
            network=engine.network, rng=RandomState(5),
        )
        assert posterior_digest(result.posterior) == posterior_digest(direct)

    def test_shutdown_drain_racing_worker_crash_resolves_every_future(self):
        model = FunctionModel(slow_program, name="slow")
        service = PosteriorService(
            model, None, num_workers=1, backend="process", max_latency=0.001,
        ).start()
        future = service.submit(SLOW_OBSERVATION, num_traces=2, seed=3, use_cache=False)
        deadline = time.monotonic() + 5.0
        victim = None
        while time.monotonic() < deadline and victim is None:
            for worker in service.workers._workers:
                if worker.shard is not None and worker.process.is_alive():
                    victim = worker
            time.sleep(0.01)
        assert victim is not None
        # Kill the busy worker and immediately drain-shutdown: the drain
        # waits for the crashed shard, which fails loudly — the future is
        # resolved, never abandoned.
        os.kill(victim.process.pid, signal.SIGKILL)
        service.stop(drain=True)
        assert future.done()
        with pytest.raises(WorkerCrashed):
            future.result(timeout=0)

    def test_submit_to_an_unstarted_pool_is_not_retried(self):
        # No retry can outrun a stopped pool: the error reaches the caller.
        model = FunctionModel(lockstep_program, name="lockstep")
        pool = ProcessCohortPool(model, None, num_workers=1)
        with pytest.raises(ServingError) as excinfo:
            pool.submit([], lambda *args: None)
        assert isinstance(excinfo.value, PoolStopped)
        assert not is_transient(excinfo.value)


# ---------------------------------------------------------------------------
# Lockstep stall detection
# ---------------------------------------------------------------------------


class TestLockstepStall:
    def test_stalled_round_raises_diagnostic_error(self):
        coordinator = _LockstepCoordinator(
            session=None, num_workers=2, stall_timeout=0.1, poll_interval=0.02
        )
        # Worker 0 posts, worker 1 never does (and there is no thread record
        # to declare it dead): the round must fail loudly, naming slot 1.
        coordinator.finished(0)
        with pytest.raises(LockstepStallError, match=r"waiting on slots \{1:"):
            coordinator.serve(threads=None)

    def test_stall_releases_blocked_workers(self):
        coordinator = _LockstepCoordinator(
            session=None, num_workers=2, stall_timeout=0.1, poll_interval=0.02
        )
        released = []

        def blocked_worker():
            released.append(coordinator.request(0, "addr", None, None))

        thread = threading.Thread(target=blocked_worker, daemon=True)
        thread.start()
        with pytest.raises(LockstepStallError):
            coordinator.serve(threads=None)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert released == [None]  # prior fallback, not a hang


# ---------------------------------------------------------------------------
# PPX: bounded connect retry + client reconnect-with-handshake
# ---------------------------------------------------------------------------


class TestTransportRetry:
    def _refused_port(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_connect_tcp_gives_up_after_bounded_attempts(self):
        from repro.ppx.transport import connect_tcp

        port = self._refused_port()
        started = time.monotonic()
        with pytest.raises(ConnectionRefusedError, match="attempt"):
            connect_tcp("127.0.0.1", port, attempts=3, backoff=0.01)
        assert time.monotonic() - started < 5.0

    def test_connect_tcp_outwaits_a_late_listener(self):
        from repro.ppx.transport import connect_tcp, listen_tcp

        server, port = listen_tcp()
        server.close()  # refused until the real listener binds below

        def late_bind():
            time.sleep(0.15)
            late = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            late.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            late.bind(("127.0.0.1", port))
            late.listen(1)
            conn, _ = late.accept()
            conn.close()
            late.close()

        binder = threading.Thread(target=late_bind, daemon=True)
        binder.start()
        transport = connect_tcp("127.0.0.1", port, attempts=8, backoff=0.05)
        transport.close()
        binder.join(timeout=5.0)

    def test_injected_disconnect_closes_the_socket(self):
        from repro.ppx.messages import Handshake
        from repro.ppx.transport import SocketTransport, connect_tcp, listen_tcp

        server, port = listen_tcp()
        accepted = {}

        def accept_one():
            conn, _ = server.accept()
            accepted["transport"] = SocketTransport(conn)

        acceptor = threading.Thread(target=accept_one, daemon=True)
        acceptor.start()
        transport = connect_tcp("127.0.0.1", port)
        acceptor.join(timeout=5.0)
        plan = FaultPlan([FaultRule(site="transport.send", kind="disconnect", at=0)], seed=0)
        with activate(plan):
            with pytest.raises(ConnectionError, match="injected disconnect"):
                transport.send(Handshake())
        accepted["transport"].close()
        server.close()


    def test_injected_garbage_and_receive_disconnect_on_a_socketpair(self):
        """`garbage` ships a framed body the peer cannot decode, and only that
        one frame is lost; `disconnect` on the receive hook closes the socket."""
        from repro.ppx.messages import ObserveResult, SampleResult
        from repro.ppx.transport import SocketTransport

        left, right = socket.socketpair()
        sender, receiver = SocketTransport(left), SocketTransport(right)
        plan = FaultPlan([FaultRule(site="transport.send", kind="garbage", at=0)], seed=0)
        with activate(plan):
            sender.send(SampleResult(value=np.arange(4.0)))  # corrupted in flight
            sender.send(ObserveResult())
        assert plan.fired_counts() == {"transport.send/garbage": 1}
        with pytest.raises(ValueError, match="unknown PPX type tag"):
            receiver.receive(timeout=5.0)
        assert isinstance(receiver.receive(timeout=5.0), ObserveResult)
        assert receiver.bytes_received == sender.bytes_sent

        plan = FaultPlan([FaultRule(site="transport.receive", kind="disconnect", at=0)], seed=0)
        with activate(plan):
            with pytest.raises(ConnectionError, match="injected disconnect"):
                receiver.receive(timeout=5.0)
        assert plan.fired_counts() == {"transport.receive/disconnect": 1}
        with pytest.raises(ConnectionError, match="closed by peer"):
            sender.receive(timeout=5.0)  # the peer sees EOF
        sender.close()


class TestClientReconnect:
    def _ppl_side(self, server, script):
        """Accept connections and run ``script(transport, generation)`` per accept."""
        from repro.ppx.transport import SocketTransport

        def run():
            for generation in range(script.generations):
                conn, _ = server.accept()
                transport = SocketTransport(conn)
                script(transport, generation)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def test_client_reconnects_and_rehandshakes_after_drop(self):
        from repro.ppx.messages import (
            Handshake,
            HandshakeResult,
            Run,
            RunResult,
            ShutdownRequest,
            ShutdownResult,
        )
        from repro.ppx.transport import connect_tcp, listen_tcp

        server, port = listen_tcp()
        server.listen(2)
        handshakes = []

        def script(transport, generation):
            message = transport.receive()
            assert isinstance(message, Handshake)
            handshakes.append(generation)
            transport.send(HandshakeResult(accepted=True))
            if generation == 0:
                transport.send(Run())
                reply = transport.receive()
                assert isinstance(reply, RunResult)
                transport.close()  # drop the connection mid-session
            else:
                transport.send(ShutdownRequest())
                assert isinstance(transport.receive(), ShutdownResult)
                transport.close()

        script.generations = 2
        ppl_thread = self._ppl_side(server, script)

        from repro.ppx.client import SimulatorClient

        def simulator(client):
            return 1.0

        client = SimulatorClient(
            connect_tcp("127.0.0.1", port),
            simulator,
            connect=lambda: connect_tcp("127.0.0.1", port, attempts=5, backoff=0.02),
            max_reconnects=2,
        )
        client.serve_forever()  # returns cleanly after the post-reconnect shutdown
        ppl_thread.join(timeout=10.0)
        assert client.reconnects == 1
        assert handshakes == [0, 1]  # one handshake per connection generation
        server.close()

    def test_without_factory_disconnect_propagates(self):
        from repro.ppx.client import SimulatorClient
        from repro.ppx.messages import Handshake, HandshakeResult
        from repro.ppx.transport import SocketTransport, connect_tcp, listen_tcp

        server, port = listen_tcp()

        def script(transport, generation):
            assert isinstance(transport.receive(), Handshake)
            transport.send(HandshakeResult(accepted=True))
            transport.close()

        script.generations = 1
        ppl_thread = self._ppl_side(server, script)
        client = SimulatorClient(connect_tcp("127.0.0.1", port), lambda c: 0.0)
        with pytest.raises((ConnectionError, OSError)):
            client.serve_forever()
        ppl_thread.join(timeout=10.0)
        server.close()
