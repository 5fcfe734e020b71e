"""The PPX controller's request cache: each distinct SampleRequest frame is decoded once.

A repeat of a frame's exact body bytes takes the address, name, control flag
and prior cached for it; the prior is one read-only object every repeat
shares.  Only SampleRequests are cached, a frame that fails to build is never
cached, and the cache stays within its entry and byte bounds.
"""

import itertools
import socket
import threading

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.distributions import Categorical, Mixture, Normal
from repro.ppl import RemoteModel
from repro.ppl.state import ExecutionState, PriorController
from repro.ppx import (
    Handshake,
    RunResult,
    SampleRequest,
    SimulatorClient,
    SimulatorController,
    decode_message,
    encode_message,
    encode_value,
    make_queue_pair,
)
from repro.ppx import server
from repro.ppx.transport import SocketTransport, connect_tcp, listen_tcp
from repro.testing.faults import FaultPlan, FaultRule, activate


def three_priors(client):
    """A normal, a categorical and a mixture prior; an observe whose prior changes per trace."""
    a = float(np.asarray(client.sample(Normal(0.0, 1.0), name="a")))
    client.sample(Categorical([0.2, 0.3, 0.5]), name="b")
    client.sample(Mixture([Normal(-1.0, 0.5), Normal(1.0, 0.5)], [0.4, 0.6]), name="c")
    client.observe(Normal(a, 0.5), value=0.1, name="obs")
    return a


def serve(simulator, transport, **client_kwargs):
    client = SimulatorClient(transport, simulator, **client_kwargs)
    thread = threading.Thread(target=client.serve_forever, daemon=True)
    thread.start()
    return client, thread


def queue_remote(simulator):
    ppl_side, sim_side = make_queue_pair()
    _, thread = serve(simulator, sim_side)
    return RemoteModel(ppl_side, name="remote-cache-test"), thread


def trace_record(trace):
    """What a seeded remote trace must reproduce bit for bit."""
    return (
        trace.addresses,
        [np.asarray(s.value).tobytes() for s in trace.samples],
        [s.log_prob for s in trace.samples + trace.observes],
        trace.log_q,
        trace.log_joint,
    )


class TestOnlySampleRequestsAreCached:
    def test_one_shared_prior_per_distinct_frame(self):
        remote, thread = queue_remote(three_priors)
        try:
            traces = [remote.prior_trace(RandomState(seed)) for seed in range(5)]
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)
        cache = remote.controller._requests
        assert len(cache) == 3
        assert all(isinstance(decode_message(key), SampleRequest) for key in cache)
        cached_priors = {id(prior) for _, _, _, prior in cache.values()}
        for position in range(3):
            shared = {id(trace.samples[position].distribution) for trace in traces}
            assert len(shared) == 1 and shared <= cached_priors
        # The observe's prior moves with the draw: decoded fresh every time.
        assert len({id(trace.observes[0].distribution) for trace in traces}) == len(traces)
        assert remote.controller._request_bytes == sum(len(key) for key in cache)

    def test_cached_draws_equal_uncached_ones(self, monkeypatch):
        remote, thread = queue_remote(three_priors)
        try:
            cached = [trace_record(remote.prior_trace(RandomState(seed))) for seed in range(4)]
            monkeypatch.setattr(server, "_CACHE_MAX_ENTRIES", 0)
            remote.controller._requests.clear()
            remote.controller._request_bytes = 0
            uncached = [trace_record(remote.prior_trace(RandomState(seed))) for seed in range(4)]
            assert remote.controller._requests == {}
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)
        assert cached == uncached

    def test_a_shared_prior_cannot_be_written(self):
        remote, thread = queue_remote(three_priors)
        try:
            trace = remote.prior_trace(RandomState(0))
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)
        normal, categorical, mixture = (sample.distribution for sample in trace.samples)
        arrays = [
            normal.loc, normal.scale,
            categorical.probs, categorical._log_probs,
            mixture.weights, mixture._log_weights, mixture.components[1].loc,
            mixture._fast_params["locs"],
        ]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(categorical.probs, 2.0, out=categorical.probs)
        assert trace.observes[0].distribution.loc.flags.writeable  # not cached, not shared


class TestFramesThatFailAreNeverCached:
    @pytest.fixture
    def wire(self):
        """A handshaken controller on one end of a socket pair, raw frames in at the other."""
        ppl_end, sim_end = socket.socketpair()
        controller = SimulatorController(SocketTransport(ppl_end))
        sim = SocketTransport(sim_end)
        sim.send(Handshake())
        controller.accept_handshake(timeout=5.0)
        yield controller, sim, sim_end
        controller.transport.close()
        sim.close()

    @staticmethod
    def frame(body):
        return len(body).to_bytes(4, "big") + body

    @staticmethod
    def run(controller):
        state = ExecutionState(PriorController(), RandomState(0))
        return controller.run_trace(state, timeout=5.0)

    def test_undecodable_frames_raise_on_every_arrival(self, wire):
        controller, _, sim_end = wire
        good = encode_message(SampleRequest(address="x", distribution=Normal(0.0, 1.0).to_dict()))
        unknown = encode_message(SampleRequest(address="x", distribution={"type": "NoSuchDistribution"}))
        for body, error in ((good[: len(good) // 2], ValueError), (unknown, KeyError)):
            for _ in range(2):
                sim_end.sendall(self.frame(body))
                with pytest.raises(error):
                    self.run(controller)
                assert controller._requests == {}
        sim_end.sendall(self.frame(good) + self.frame(encode_message(RunResult(result=7))))
        assert self.run(controller) == 7
        assert list(controller._requests) == [good]

    def test_a_request_spelled_otherwise_is_answered_but_not_cached(self, wire):
        # A peer may leave out fields that have defaults: the frame decodes to
        # a SampleRequest, but not with this package's head, so it is not kept.
        controller, _, sim_end = wire
        short = encode_value({"kind": "SampleRequest", "address": "x", "distribution": Normal(0.0, 1.0).to_dict()})
        for _ in range(2):
            sim_end.sendall(self.frame(short) + self.frame(encode_message(RunResult(result=7))))
            assert self.run(controller) == 7
        assert controller._requests == {}

    def test_garbage_fault_frames_raise_on_every_arrival(self, wire):
        controller, sim, _ = wire
        request = SampleRequest(address="x", distribution=Normal(0.0, 1.0).to_dict())
        plan = FaultPlan([FaultRule(site="transport.send", kind="garbage", every=1)], seed=0)
        for _ in range(2):
            with activate(plan):
                sim.send(request)  # a correctly framed body of zeros
            with pytest.raises(ValueError, match="unknown PPX type tag"):
                self.run(controller)
            assert controller._requests == {}
        assert plan.fired_counts() == {"transport.send/garbage": 2}


class TestReconnect:
    def test_a_reconnected_run_matches_a_fresh_controller(self):
        listener, port = listen_tcp()
        listener.listen(2)
        listener.settimeout(10.0)
        client, thread = serve(
            three_priors,
            connect_tcp("127.0.0.1", port),
            connect=lambda: connect_tcp("127.0.0.1", port, attempts=5, backoff=0.02),
            max_reconnects=1,
        )
        remote = RemoteModel(SocketTransport(listener.accept()[0]), name="reconnecting")
        try:
            before = [trace_record(remote.prior_trace(RandomState(seed))) for seed in range(3)]
            cached = dict(remote.controller._requests)
            # Drop the connection at the controller's second receive of a run:
            # the simulator is inside its trace, waiting for a SampleResult.
            main, calls = threading.current_thread(), itertools.count()
            rule = FaultRule(
                site="transport.receive", kind="disconnect", every=1, limit=1,
                match=lambda _ctx: threading.current_thread() is main and next(calls) == 1,
            )
            with activate(FaultPlan([rule], seed=0)) as plan:
                with pytest.raises(ConnectionError, match="injected disconnect"):
                    remote.prior_trace(RandomState(9))
            assert plan.fired_counts() == {"transport.receive/disconnect": 1}
            remote.controller.transport = SocketTransport(listener.accept()[0])
            remote.controller.accept_handshake(timeout=10.0)
            after = [trace_record(remote.prior_trace(RandomState(seed))) for seed in range(3)]
            assert remote.controller._requests == cached  # the cache outlived the connection
        finally:
            remote.shutdown()
            thread.join(timeout=10.0)
            client.transport.close()
            listener.close()
        assert not thread.is_alive()
        assert client.reconnects == 1
        fresh, fresh_thread = queue_remote(three_priors)
        try:
            reference = [trace_record(fresh.prior_trace(RandomState(seed))) for seed in range(3)]
        finally:
            fresh.shutdown()
            fresh_thread.join(timeout=5.0)
        assert before == after == reference


class TestBounds:
    def test_a_stream_of_unique_frames_stays_within_the_entry_bound(self):
        draws = server._CACHE_MAX_ENTRIES + 100

        def drifting_prior(client):
            for index in range(draws):
                client.sample(Normal(float(index), 1.0), name="x")

        remote, thread = queue_remote(drifting_prior)
        try:
            trace = remote.prior_trace(RandomState(0))
            repeat = remote.prior_trace(RandomState(0))  # every frame again, the first ones evicted
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)
        cache = remote.controller._requests
        assert len(cache) == server._CACHE_MAX_ENTRIES
        assert remote.controller._request_bytes == sum(len(key) for key in cache) <= server._CACHE_MAX_BYTES
        # The oldest went first: what is left is the last frames of the stream.
        kept = [float(decode_message(key).distribution["loc"]) for key in cache]
        assert kept == [float(index) for index in range(draws - len(cache), draws)]
        for record in (trace, repeat):
            assert [float(s.distribution.loc) for s in record.samples] == [float(i) for i in range(draws)]
        assert trace_record(trace) == trace_record(repeat)

    def test_large_frames_stay_within_the_byte_bound(self):
        voxels = 20_000  # a 160 kB loc array per frame

        def array_priors(client):
            for index in range(10):
                client.sample(Normal(np.full(voxels, float(index)), 1.0), name="grid")
            client.sample(Normal(np.zeros(server._CACHE_MAX_BYTES // 8 + 1), 1.0), name="huge")

        remote, thread = queue_remote(array_priors)
        try:
            trace = remote.prior_trace(RandomState(0))
        finally:
            remote.shutdown()
            thread.join(timeout=5.0)
        controller = remote.controller
        assert controller._request_bytes == sum(len(key) for key in controller._requests)
        assert controller._request_bytes <= server._CACHE_MAX_BYTES
        assert 0 < len(controller._requests) < 10
        for index, sample in enumerate(trace.samples[:10]):
            assert sample.distribution.loc.shape == (voxels,)
            assert np.all(sample.distribution.loc == index)
        # A frame larger than the whole budget is built and used, never cached.
        assert trace.samples[10].distribution.loc.flags.writeable
        assert trace.samples[10].distribution.loc.shape == (server._CACHE_MAX_BYTES // 8 + 1,)
