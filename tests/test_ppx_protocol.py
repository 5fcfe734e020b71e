"""Tests for the PPX protocol: serialization, messages, addresses, transports."""

import queue
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributions import Normal, Uniform, distribution_from_dict
from repro.ppx import (
    AddressBuilder,
    Handshake,
    HandshakeResult,
    ObserveRequest,
    ObserveResult,
    Reset,
    Run,
    RunResult,
    SampleRequest,
    SampleResult,
    ShutdownRequest,
    ShutdownResult,
    decode_message,
    decode_value,
    encode_message,
    encode_value,
    make_queue_pair,
    message_from_dict,
)
from repro.ppx.transport import SocketTransport, connect_tcp, listen_tcp


def hot_program():
    """The serving benchmark's fixed-structure program: explicit sample
    addresses, an observe addressed from the stack."""
    from repro.ppl import observe, sample

    total = 0.0
    for i in range(8):
        total += sample(Uniform(-1.0, 1.0), name=f"x{i}", address=f"addr_{i}")
    observe(Normal(np.array([total, total * 0.5, -total, 1.0]), 0.4), name="obs")
    return total


def wire_equal(a, b) -> bool:
    """Structural equality where arrays must match in dtype, shape and every bit."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(wire_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(wire_equal, a, b))
    return type(a) is type(b) and a == b


wire_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
wire_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)


def wire_values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=12,
    )


class TestSerialization:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -12345,
            2**40,
            3.14159,
            -1e-300,
            "hello",
            "unicode ✓ τ",
            b"raw-bytes",
            [1, 2.5, "three", None],
            {"a": 1, "b": [True, {"c": "nested"}]},
        ],
    )
    def test_scalar_roundtrip(self, value):
        decoded, offset = decode_value(encode_value(value))
        assert decoded == value
        assert offset == len(encode_value(value))

    def test_numpy_array_roundtrip(self):
        for arr in (
            np.arange(12.0).reshape(3, 4),
            np.zeros((2, 3, 4), dtype=np.float32),
            np.array([1, 2, 3], dtype=np.int64),
            np.array(5.0),
        ):
            decoded, _ = decode_value(encode_value(arr))
            assert isinstance(decoded, np.ndarray)
            assert decoded.dtype == arr.dtype
            assert decoded.shape == arr.shape
            assert np.allclose(decoded, arr)

    def test_nested_structure_with_arrays(self):
        payload = {"obs": np.ones((2, 2)), "meta": {"n": 3, "tags": ["a", "b"]}}
        decoded, _ = decode_value(encode_value(payload))
        assert np.allclose(decoded["obs"], 1.0)
        assert decoded["meta"]["tags"] == ["a", "b"]

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            encode_value(object())

    def test_non_string_dict_key_raises(self):
        with pytest.raises(TypeError):
            encode_value({1: "a"})

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError):
            decode_value(b"Zjunk")

    @settings(max_examples=60, deadline=None)
    @given(wire_values(wire_scalars))
    def test_property_roundtrip(self, value):
        decoded, _ = decode_value(encode_value(value))
        assert decoded == value

    @settings(max_examples=60, deadline=None)
    @given(wire_values(st.one_of(wire_scalars, wire_arrays)))
    def test_property_roundtrip_with_nested_arrays(self, value):
        encoded = encode_value(value)
        for buffer in (encoded, memoryview(bytearray(encoded))):
            decoded, offset = decode_value(buffer)
            assert offset == len(encoded)
            assert wire_equal(decoded, value)

    @pytest.mark.parametrize(
        "array",
        [
            np.array(2.5),  # 0-d
            np.zeros((0,)),
            np.zeros((0, 3), dtype=np.float32),
            np.arange(24.0).reshape(2, 3, 4)[:, ::2, 1:],  # non-contiguous view
            np.asfortranarray(np.arange(12.0).reshape(3, 4)),
            np.arange(12, dtype=np.int64).reshape(3, 4).T,
            np.linspace(0, 1, 7, dtype=np.float32),
            np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]),
            np.array([[True, False], [False, True]]),
            np.arange(4.0).astype(">f8"),  # the dtype string carries the byte order
            np.array([0.1, -0.0, np.nan, np.inf, 5e-324]),
        ],
        ids=lambda a: f"{a.dtype.str}{a.shape}{'' if a.flags.c_contiguous else '-strided'}",
    )
    def test_array_roundtrip_is_bit_exact(self, array):
        # The payload sits at an odd offset so the decoder sees an unaligned buffer.
        encoded = encode_value(["x", array])
        (_, decoded), offset = decode_value(memoryview(encoded))
        assert offset == len(encoded)
        assert wire_equal(decoded, np.ascontiguousarray(array).reshape(array.shape))
        assert decoded.flags.c_contiguous and decoded.flags.aligned and decoded.flags.writeable
        assert decoded.base is None  # owns its memory: the receive buffer is reused

    def test_array_bytes_are_dtype_shape_and_the_raw_buffer(self):
        array = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert encode_value(array) == (
            b"A" + b"\x03<f4" + b"\x02" + struct.pack("!II", 2, 3) + struct.pack("!I", 24) + array.tobytes()
        )

    def test_numpy_scalars_encode_as_python_scalars(self):
        assert encode_value(np.float64(0.5)) == encode_value(0.5)
        assert encode_value(np.float32(0.5)) == encode_value(0.5)
        assert encode_value(np.int32(-7)) == encode_value(-7)

    def test_object_arrays_are_refused(self):
        with pytest.raises(TypeError):
            encode_value(np.asarray(None))

    @pytest.mark.parametrize(
        "corrupt",
        [
            b"",  # no tag at all
            b"S\x00\x00\x00\x09short",  # string shorter than announced
            b"I\x00\x00",  # fixed-width payload cut off
            b"D\x00\x00\x00\x01\x00\x00\x00\x04ki",  # key cut off
            b"A\x03<f8\x01\x00\x00\x00\x02\x00\x00\x00\x10" + bytes(8),  # buffer cut off
            b"A\x03<f8\x01\x00\x00\x00\x02\x00\x00\x00\x08" + bytes(8),  # length != shape * itemsize
            b"A\x02|O\x01\x00\x00\x00\x01\x00\x00\x00\x08" + bytes(8),  # object dtype
        ],
    )
    def test_truncated_or_inconsistent_payload_raises_value_error(self, corrupt):
        with pytest.raises(ValueError):
            decode_value(corrupt)


#: ``encode_message`` output of the parent commit (before arrays travelled as
#: arrays), one instance per message kind, none holding an array: the format
#: of everything that is not an array is frozen.
GOLDEN_MESSAGES = [
    (
        Handshake(system_name="sherpa", model_name="tau-decay", language="c++"),
        "4400000004000000046b696e64530000000948616e647368616b650000000b73797374656d5f6e616d6553000000067368657270610000000a6d6f64656c5f6e616d6553000000097461752d6465636179000000086c616e67756167655300000003632b2b",
    ),
    (
        HandshakeResult(system_name="repro-ppl", accepted=True),
        "4400000003000000046b696e64530000000f48616e647368616b65526573756c740000000b73797374656d5f6e616d655300000009726570726f2d70706c0000000861636365707465644201",
    ),
    (Run(observation=None), "4400000002000000046b696e64530000000352756e0000000b6f62736572766174696f6e4e"),
    (
        RunResult(
            result={"px": 1.5, "channel": 3, "name": "τ→πν", "flags": [True, None, b"\x00\xff"]},
            success=True,
            error=None,
        ),
        "4400000004000000046b696e64530000000952756e526573756c7400000006726573756c744400000004000000027078463ff8000000000000000000076368616e6e656c490000000000000003000000046e616d655300000009cf84e28692cf80cebd00000005666c6167734c0000000342014e590000000200ff00000007737563636573734201000000056572726f724e",
    ),
    (
        SampleRequest(
            address="tau.py:program:12|tau.py:_fractions:7",
            distribution=Uniform(0.02, 1.0).to_dict(),
            name="fraction_0",
            control=True,
            replace=False,
        ),
        "4400000006000000046b696e64530000000d53616d706c6552657175657374000000076164647265737353000000257461752e70793a70726f6772616d3a31327c7461752e70793a5f6672616374696f6e733a370000000c646973747269627574696f6e440000000300000004747970655300000007556e69666f726d000000036c6f77463f947ae147ae147b0000000468696768463ff0000000000000000000046e616d65530000000a6672616374696f6e5f3000000007636f6e74726f6c4201000000077265706c6163654200",
    ),
    (SampleResult(value=0.25), "4400000002000000046b696e64530000000c53616d706c65526573756c740000000576616c7565463fd0000000000000"),
    (
        ObserveRequest(address="obs", distribution=Normal(0.5, 2.0).to_dict(), value=-1.0, name="y"),
        "4400000005000000046b696e64530000000e4f62736572766552657175657374000000076164647265737353000000036f62730000000c646973747269627574696f6e4400000003000000047479706553000000064e6f726d616c000000036c6f63463fe0000000000000000000057363616c654640000000000000000000000576616c756546bff0000000000000000000046e616d65530000000179",
    ),
    (ObserveResult(), "4400000001000000046b696e64530000000d4f627365727665526573756c74"),
    (Reset(), "4400000001000000046b696e6453000000055265736574"),
    (ShutdownRequest(), "4400000001000000046b696e64530000000f53687574646f776e52657175657374"),
    (ShutdownResult(), "4400000001000000046b696e64530000000e53687574646f776e526573756c74"),
]

#: Parent-commit bytes of messages whose array fields went out as nested lists.
LEGACY_SAMPLE_RESULT = "4400000002000000046b696e64530000000c53616d706c65526573756c740000000576616c75654c00000002463ff0000000000000464004000000000000"  # value=np.array([1.0, 2.5])
LEGACY_OBSERVE_REQUEST = "4400000005000000046b696e64530000000e4f6273657276655265717565737400000007616464726573735300000001670000000c646973747269627574696f6e4400000003000000047479706553000000064e6f726d616c000000036c6f634c000000024c00000002460000000000000000463ff00000000000004c00000002464000000000000000464008000000000000000000057363616c65463fe00000000000000000000576616c75654c000000024c00000002463ff0000000000000463ff00000000000004c00000002464000000000000000464000000000000000000000046e616d65530000000467726964"  # Normal([[0, 1], [2, 3]], 0.5), value [[1, 1], [2, 2]]


class TestWireFormatStability:
    @pytest.mark.parametrize("message, golden", GOLDEN_MESSAGES, ids=lambda v: type(v).__name__)
    def test_non_array_messages_encode_to_the_frozen_bytes(self, message, golden):
        encoded = encode_message(message)
        assert encoded.hex() == golden
        assert encode_value(message.to_dict()) == encoded
        assert decode_message(encoded) == message

    def test_every_message_kind_has_a_golden_instance(self):
        from repro.ppx.messages import _MESSAGE_TYPES

        assert {type(message) for message, _ in GOLDEN_MESSAGES} == set(_MESSAGE_TYPES.values())

    def test_list_encoded_arrays_from_an_older_peer_still_decode(self):
        reply = decode_message(bytes.fromhex(LEGACY_SAMPLE_RESULT))
        assert reply == SampleResult(value=[1.0, 2.5])
        request = decode_message(bytes.fromhex(LEGACY_OBSERVE_REQUEST))
        assert request.value == [[1.0, 1.0], [2.0, 2.0]]
        distribution = distribution_from_dict(request.distribution)
        assert distribution == Normal(np.array([[0.0, 1.0], [2.0, 3.0]]), 0.5)
        assert np.isfinite(distribution.log_prob(request.value)).all()

    def test_array_fields_travel_as_arrays(self):
        grid = np.arange(8 * 11 * 11, dtype=float).reshape(8, 11, 11)
        message = ObserveRequest(address="a", distribution=Normal(grid, 0.1).to_dict(), value=grid + 1.0, name="d")
        encoded = encode_message(message)
        assert len(encoded) < 2 * grid.nbytes + 200  # two raw buffers, not 9 bytes per tagged float
        decoded = decode_message(encoded)
        assert wire_equal(decoded.value, grid + 1.0)
        assert wire_equal(decoded.distribution["loc"], grid)
        assert decoded.distribution["scale"] == 0.1

    def test_unregistered_message_class_is_refused(self):
        from repro.ppx.messages import Message

        class Unregistered(Message):
            pass

        with pytest.raises(TypeError, match="not a registered PPX message kind"):
            encode_message(Unregistered())


class TestMessages:
    def test_message_roundtrip_through_wire(self):
        message = SampleRequest(
            address="addr1", distribution=Uniform(0, 1).to_dict(), name="x", control=True, replace=False
        )
        decoded = decode_message(encode_message(message))
        assert isinstance(decoded, SampleRequest)
        assert decoded.address == "addr1"
        assert decoded.distribution["type"] == "Uniform"

    def test_all_message_kinds_roundtrip(self):
        messages = [
            Handshake(system_name="sherpa", model_name="tau"),
            HandshakeResult(accepted=True),
            Run(observation=[1.0, 2.0]),
            RunResult(result=3.0, success=True),
            SampleRequest(address="a", distribution=Normal(0, 1).to_dict()),
            SampleResult(value=0.5),
            ObserveRequest(address="b", distribution=Normal(0, 1).to_dict(), value=1.0),
            ShutdownRequest(),
        ]
        for message in messages:
            decoded = decode_message(encode_message(message))
            assert type(decoded) is type(message)

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            message_from_dict({"kind": "NotAMessage"})

    def test_array_observation_roundtrip(self):
        message = Run(observation=np.ones((2, 3)))
        decoded = decode_message(encode_message(message))
        assert np.allclose(np.asarray(decoded.observation), 1.0)


class TestAddressBuilder:
    def test_deterministic_across_calls_from_same_site(self):
        builder = AddressBuilder()

        def call_site():
            return builder.build(skip_frames=1)

        assert call_site() == call_site()

    def test_different_sites_give_different_addresses(self):
        builder = AddressBuilder()

        def site_a():
            return builder.build(skip_frames=1)

        def site_b():
            return builder.build(skip_frames=1)

        assert site_a() != site_b()

    def test_explicit_address_short_circuits(self):
        builder = AddressBuilder()
        assert builder.build(explicit="my/address") == "my/address"

    def test_cache_hits_accumulate(self):
        builder = AddressBuilder(use_cache=True)

        def call_site():
            return builder.build(skip_frames=1)

        call_site()
        misses_after_first = builder.cache_misses
        for _ in range(5):
            call_site()
        assert builder.cache_hits > 0
        assert builder.cache_misses == misses_after_first

    def test_cache_disabled_never_hits(self):
        builder = AddressBuilder(use_cache=False)

        def call_site():
            return builder.build(skip_frames=1)

        for _ in range(3):
            call_site()
        assert builder.cache_hits == 0
        assert builder.cache_misses > 0

    def test_cache_gives_same_addresses_as_uncached(self):
        cached, uncached = AddressBuilder(use_cache=True), AddressBuilder(use_cache=False)

        def call_site(builder):
            return builder.build(skip_frames=1)

        assert call_site(cached) == call_site(uncached)

    def test_clear_cache(self):
        builder = AddressBuilder()

        def call_site():
            return builder.build(skip_frames=1)

        call_site()
        builder.clear_cache()
        assert builder.cache_hits == 0 and builder.cache_misses == 0

    @pytest.mark.parametrize("deployment", ["local tau", "remote tau", "hot model"])
    def test_cached_walk_gives_the_reference_addresses_on_seeded_traces(self, deployment, monkeypatch):
        # use_cache=False re-derives every frame and reads the marker from the
        # frame's live locals: the reference the per-code-object table must
        # reproduce byte for byte, on first sight of a frame and on reuse.
        import repro.ppl.state as state_module
        import repro.ppx.client as client_module
        from repro.common.rng import RandomState
        from repro.ppl import FunctionModel, RemoteModel
        from repro.ppx import SimulatorClient
        from repro.simulators import TauDecayModel
        from repro.simulators.external import SIMULATOR_REGISTRY

        def addresses(use_cache):
            def builder():
                return AddressBuilder(use_cache=use_cache)

            monkeypatch.setattr(state_module, "AddressBuilder", builder)
            monkeypatch.setattr(client_module, "AddressBuilder", builder)
            AddressBuilder().clear_cache()
            if deployment == "remote tau":
                ppl_side, sim_side = make_queue_pair()
                client = SimulatorClient(sim_side, SIMULATOR_REGISTRY["tau_decay"])
                thread = threading.Thread(target=client.serve_forever, daemon=True)
                thread.start()
                model = RemoteModel(ppl_side)
            else:
                model = TauDecayModel() if deployment == "local tau" else FunctionModel(hot_program)
            try:
                traces = model.prior_traces(12, rng=RandomState(5))
            finally:
                if deployment == "remote tau":
                    model.shutdown()
                    thread.join(timeout=5.0)
            return [s.address for trace in traces for s in trace.samples + trace.observes]

        reference = addresses(use_cache=False)
        assert addresses(use_cache=True) == reference
        assert len(set(reference)) > 1


class TestTransports:
    def test_queue_pair_exchanges_messages(self):
        ppl_side, sim_side = make_queue_pair()
        ppl_side.send(Run(observation=1.0))
        received = sim_side.receive(timeout=1.0)
        assert isinstance(received, Run)
        sim_side.send(RunResult(result=2.0))
        reply = ppl_side.receive(timeout=1.0)
        assert isinstance(reply, RunResult) and reply.result == pytest.approx(2.0)
        assert ppl_side.bytes_sent > 0 and sim_side.bytes_received > 0

    def test_queue_timeout_raises(self):
        ppl_side, _ = make_queue_pair()
        with pytest.raises(queue.Empty):
            ppl_side.receive(timeout=0.01)

    def test_tcp_transport_roundtrip(self):
        server_socket, port = listen_tcp()
        results = {}

        def server_thread():
            connection, _ = server_socket.accept()
            transport = SocketTransport(connection)
            message = transport.receive()
            results["received"] = message
            transport.send(SampleResult(value=np.array([1.0, 2.0])))
            transport.close()

        thread = threading.Thread(target=server_thread)
        thread.start()
        client = connect_tcp("127.0.0.1", port)
        client.send(SampleRequest(address="site", distribution=Normal(0, 1).to_dict()))
        reply = client.receive(timeout=5.0)
        thread.join(timeout=5.0)
        server_socket.close()
        client.close()
        assert isinstance(results["received"], SampleRequest)
        assert isinstance(reply, SampleResult)
        assert np.allclose(np.asarray(reply.value), [1.0, 2.0])

    def test_socket_closed_by_peer_raises(self):
        server_socket, port = listen_tcp()

        def server_thread():
            connection, _ = server_socket.accept()
            connection.close()

        thread = threading.Thread(target=server_thread)
        thread.start()
        client = connect_tcp("127.0.0.1", port)
        thread.join(timeout=5.0)
        server_socket.close()
        with pytest.raises(ConnectionError):
            client.receive(timeout=2.0)
        client.close()


def frame(message) -> bytes:
    body = encode_message(message)
    return struct.pack("!I", len(body)) + body


class ScriptedSocket:
    """A socket stand-in whose ``recv_into`` hands out a fixed sequence of segments."""

    def __init__(self, segments):
        self.segments = [bytes(segment) for segment in segments]
        self.recv_calls = 0

    def gettimeout(self):
        return None

    def recv_into(self, buffer):
        self.recv_calls += 1
        if not self.segments:
            return 0  # EOF
        segment = self.segments[0]
        count = min(len(segment), len(buffer))
        buffer[:count] = segment[:count]
        if count == len(segment):
            self.segments.pop(0)
        else:
            self.segments[0] = segment[count:]
        return count


class TestSocketFraming:
    MESSAGES = [
        SampleRequest(address="site", distribution=Uniform(0.0, 1.0).to_dict(), name="u"),
        SampleResult(value=np.arange(6.0).reshape(2, 3)),
        ObserveResult(),
    ]

    def receive_all(self, segments, count):
        sock = ScriptedSocket(segments)
        transport = SocketTransport(sock)
        return [transport.receive() for _ in range(count)], transport, sock

    def assert_messages(self, received, expected):
        assert [type(message) for message in received] == [type(message) for message in expected]
        for got, want in zip(received, expected):
            assert wire_equal(got.to_dict(), want.to_dict())

    def test_a_whole_message_costs_one_recv(self):
        received, transport, sock = self.receive_all([frame(m) for m in self.MESSAGES], 3)
        self.assert_messages(received, self.MESSAGES)
        assert sock.recv_calls == 3
        assert transport.bytes_received == sum(len(frame(m)) for m in self.MESSAGES)

    def test_stream_fed_one_byte_at_a_time(self):
        stream = b"".join(frame(m) for m in self.MESSAGES)
        received, _, _ = self.receive_all([stream[i : i + 1] for i in range(len(stream))], 3)
        self.assert_messages(received, self.MESSAGES)

    def test_messages_coalesced_into_one_segment(self):
        received, _, sock = self.receive_all([b"".join(frame(m) for m in self.MESSAGES)], 3)
        self.assert_messages(received, self.MESSAGES)
        assert sock.recv_calls == 1

    def test_segment_boundary_inside_header_and_body(self):
        first, second = frame(self.MESSAGES[0]), frame(self.MESSAGES[1])
        segments = [first[:2], first[2:] + second[:3], second[3:40], second[40:]]
        received, _, _ = self.receive_all(segments, 2)
        self.assert_messages(received, self.MESSAGES[:2])

    def test_frames_larger_than_and_straddling_the_receive_buffer(self):
        big = Run(observation=np.arange(20_000.0))  # 160 kB: outgrows the initial buffer
        small = [SampleResult(value=float(i)) for i in range(3000)]  # ~150 kB: wraps it several times
        expected = [self.MESSAGES[0], big, *small, big, self.MESSAGES[2]]
        received, _, _ = self.receive_all([b"".join(frame(m) for m in expected)], len(expected))
        self.assert_messages(received, expected)

    @pytest.mark.parametrize("cut", [0, 2, 4, 9], ids=["before-header", "mid-header", "after-header", "mid-body"])
    def test_eof_inside_a_frame_raises_connection_error(self, cut):
        whole, partial = frame(self.MESSAGES[0]), frame(self.MESSAGES[1])[:cut]
        transport = SocketTransport(ScriptedSocket([whole + partial]))
        assert isinstance(transport.receive(), SampleRequest)
        with pytest.raises(ConnectionError):
            transport.receive()

    def test_undecodable_frame_is_consumed_not_reread(self):
        garbage = struct.pack("!I", 5) + bytes(5)
        transport = SocketTransport(ScriptedSocket([garbage + frame(self.MESSAGES[2])]))
        with pytest.raises(ValueError, match="unknown PPX type tag"):
            transport.receive()
        assert isinstance(transport.receive(), ObserveResult)

    def test_send_writes_header_and_body_in_one_call(self):
        calls = []

        class Recording:
            def gettimeout(self):
                return None

            def sendall(self, data):
                calls.append(bytes(data))

        transport = SocketTransport(Recording())
        for message in self.MESSAGES:
            transport.send(message)
        assert calls == [frame(m) for m in self.MESSAGES]
        assert transport.bytes_sent == sum(map(len, calls))


class TestSocketTimeouts:
    def test_receive_timeout_does_not_stick(self):
        """A deadline given to one receive must not govern a later receive()."""
        left, right = socket.socketpair()
        transport, peer = SocketTransport(left), SocketTransport(right)
        try:
            with pytest.raises(socket.timeout):
                transport.receive(timeout=0.05)
            sender = threading.Timer(0.25, peer.send, args=(ObserveResult(),))
            sender.start()
            assert isinstance(transport.receive(), ObserveResult)  # blocks well past 0.05 s
            sender.join(timeout=5.0)
            assert left.gettimeout() is None
            with pytest.raises(socket.timeout):
                transport.receive(timeout=0.05)  # and a deadline can be set again
        finally:
            transport.close()
            peer.close()

    def test_unchanged_timeout_is_applied_once(self):
        applied = []

        class Counting(ScriptedSocket):
            def settimeout(self, value):
                applied.append(value)

        frames = [frame(ObserveResult())] * 4
        transport = SocketTransport(Counting(frames))
        for timeout in (2.0, 2.0, None, None):
            transport.receive(timeout=timeout)
        assert applied == [2.0, None]

    def test_bytes_received_before_a_timeout_are_kept(self):
        left, right = socket.socketpair()
        transport = SocketTransport(left)
        data = frame(SampleResult(value=1.5))
        try:
            right.sendall(data[:7])
            with pytest.raises(socket.timeout):
                transport.receive(timeout=0.05)
            right.sendall(data[7:])
            assert transport.receive(timeout=2.0) == SampleResult(value=1.5)
        finally:
            transport.close()
            right.close()


class TestControllerTimeouts:
    """A simulator that never responds must raise TimeoutError, not block."""

    def test_handshake_timeout_raises_clear_timeout_error(self):
        from repro.ppx.server import SimulatorController

        ppl_side, _sim_side = make_queue_pair()  # simulator never sends anything
        controller = SimulatorController(ppl_side)
        with pytest.raises(TimeoutError, match="Handshake"):
            controller.accept_handshake(timeout=0.05)

    def test_run_timeout_when_simulator_goes_silent_mid_run(self):
        from repro.ppl.state import ExecutionState, PriorController
        from repro.ppx.server import SimulatorController

        ppl_side, sim_side = make_queue_pair()

        def silent_simulator():
            sim_side.send(Handshake(system_name="stuck-sim", model_name="stuck"))
            sim_side.receive(timeout=5.0)  # HandshakeResult
            sim_side.receive(timeout=5.0)  # consume Run, then never answer

        thread = threading.Thread(target=silent_simulator, daemon=True)
        thread.start()
        controller = SimulatorController(ppl_side)
        with pytest.raises(TimeoutError, match="waiting for the next message of its Run"):
            controller.run_trace(ExecutionState(PriorController()), timeout=0.2)
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_remote_model_propagates_run_timeout(self):
        from repro.ppl.model import RemoteModel

        ppl_side, sim_side = make_queue_pair()

        def one_draw_then_silence():
            sim_side.send(Handshake(system_name="stuck-sim", model_name="stuck"))
            sim_side.receive(timeout=5.0)  # HandshakeResult
            sim_side.receive(timeout=5.0)  # Run
            sim_side.send(
                SampleRequest(
                    address="addr_a", distribution=Uniform(0.0, 1.0).to_dict(), control=True
                )
            )
            sim_side.receive(timeout=5.0)  # SampleResult answered by the controller
            # ... and then the simulator hangs forever.

        thread = threading.Thread(target=one_draw_then_silence, daemon=True)
        thread.start()
        remote = RemoteModel(ppl_side, run_timeout=0.2)
        with pytest.raises(TimeoutError, match="did not respond"):
            remote.get_trace()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
