import hashlib
import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mpclr import FixedPointParams, TransportError
from mpclr.engine import Session
from mpclr.errors import FrameError
from mpclr.randomness import OnDemandSource
from mpclr.sharing import Role
from mpclr.transport import (
    FRAME_HEADER,
    FRAME_MAGIC,
    MAX_PAYLOAD,
    Frame,
    HandshakeInfo,
    MSG_CONTROL,
    MSG_OPEN,
    MSG_RANDOMNESS,
    decode_frame,
    encode_frame,
    memory_channel_pair,
    perform_handshake,
    tcp_accept,
    tcp_connect,
    tcp_listen,
)

P64 = FixedPointParams()


class TestFrames:
    def test_round_trip_three_words(self):
        payload = np.arange(3, dtype=np.uint64).tobytes()
        frame = Frame(MSG_OPEN, payload)
        assert decode_frame(encode_frame(frame)) == frame

    def test_header_is_thirteen_bytes(self):
        assert FRAME_HEADER.size == 13
        frame = Frame(MSG_OPEN, np.zeros(1024, dtype=np.uint64).tobytes())
        assert len(encode_frame(frame)) == 13 + 8192 == 8205

    def test_bad_magic(self):
        data = b"XXXX" + encode_frame(Frame(MSG_CONTROL, b""))[4:]
        with pytest.raises(FrameError, match="magic"):
            decode_frame(data)

    def test_empty_control_frame(self):
        frame = Frame(MSG_CONTROL, b"")
        assert decode_frame(encode_frame(frame)) == frame

    def test_unknown_type(self):
        with pytest.raises(FrameError):
            encode_frame(Frame(99, b""))

    def test_truncated_payload_rejected(self):
        data = encode_frame(Frame(MSG_OPEN, b"abcdefgh"))
        with pytest.raises(FrameError):
            decode_frame(data[:-1])


class TestMemoryChannel:
    def test_echo(self):
        a, b = memory_channel_pair()
        a.send_frame(Frame(MSG_CONTROL, b"ping"))
        assert b.recv_frame().payload == b"ping"
        b.send_frame(Frame(MSG_CONTROL, b"pong"))
        assert a.recv_frame().payload == b"pong"

    def test_close_kills_peer_recv(self):
        a, b = memory_channel_pair()
        a.close()
        with pytest.raises(TransportError):
            b.recv_frame()

    def test_recv_timeout(self):
        a, _ = memory_channel_pair(timeout=0.05)
        with pytest.raises(TransportError, match="timed out"):
            a.recv_frame()


def _tcp_pair():
    server = tcp_listen("127.0.0.1", 0)
    port = server.getsockname()[1]
    result = {}

    def accept():
        result["srv"] = tcp_accept(server, timeout=10.0)

    thread = threading.Thread(target=accept)
    thread.start()
    client = tcp_connect("127.0.0.1", port, timeout=10.0)
    thread.join()
    server.close()
    return result["srv"], client


class TestTcpChannel:
    def test_echo(self):
        a, b = _tcp_pair()
        try:
            a.send_frame(Frame(MSG_OPEN, b"12345678"))
            assert b.recv_frame().payload == b"12345678"
        finally:
            a.close()
            b.close()

    def test_peer_close_mid_stream(self):
        a, b = _tcp_pair()
        a.close()
        with pytest.raises(TransportError):
            b.recv_frame()
        b.close()

    def test_peer_close_mid_frame(self):
        server = tcp_listen("127.0.0.1", 0)
        raw = socket.create_connection(server.getsockname(), timeout=10.0)
        channel = tcp_accept(server, timeout=10.0)
        try:
            raw.sendall(FRAME_HEADER.pack(FRAME_MAGIC, MSG_OPEN, 100) + bytes(10))
            raw.close()
            with pytest.raises(TransportError, match="mid-frame"):
                channel.recv_frame()
        finally:
            channel.close()
            server.close()

    def test_large_frame_is_received_into_one_buffer(self):
        # the payload is received into one buffer of its size, not grown chunk by chunk
        payload = np.frombuffer(np.random.default_rng(5).bytes(32 << 20), dtype=np.uint8)
        data = encode_frame(Frame(MSG_RANDOMNESS, payload))
        a, b = _tcp_pair()
        sender = threading.Thread(target=a.send_bytes, args=(data,))
        tracemalloc.start()
        try:
            sender.start()
            frame = b.recv_frame()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            sender.join()
            a.close()
            b.close()
        assert frame.msg_type == MSG_RANDOMNESS and frame.payload.readonly
        assert np.array_equal(np.frombuffer(frame.payload, dtype=np.uint8), payload)
        assert peak <= 1.05 * payload.nbytes, peak / payload.nbytes

    def test_bytes_payload_is_sent_uncopied(self):
        # a bytes-like payload goes out after its header as the buffer it
        # is, so the sender allocates nothing near its size; a frame of an
        # unknown type is refused before any byte is sent
        payload = np.frombuffer(np.random.default_rng(6).bytes(32 << 20), dtype=np.uint8)
        frame = Frame(MSG_RANDOMNESS, payload)
        server = tcp_listen("127.0.0.1", 0)
        raw = socket.create_connection(server.getsockname(), timeout=10.0)
        channel = tcp_accept(server, timeout=10.0)
        chunk = memoryview(bytearray(1 << 16))
        digest = hashlib.sha256()
        received = []

        def read():
            while count := raw.recv_into(chunk):
                digest.update(chunk[:count])
                received.append(count)

        reader = threading.Thread(target=read)
        reader.start()
        tracemalloc.start()
        try:
            with pytest.raises(FrameError, match="unknown message type 99"):
                channel.send_frame(Frame(99, payload))
            sent = channel.send_frame(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            channel.close()
            reader.join(timeout=30.0)
            raw.close()
            server.close()
        assert not reader.is_alive()
        data = encode_frame(frame)
        assert sent == len(data) == sum(received)
        assert digest.digest() == hashlib.sha256(data).digest()
        assert peak <= 0.05 * payload.nbytes, peak / payload.nbytes

    @pytest.mark.parametrize("header, match", [
        (FRAME_HEADER.pack(b"XXXX", MSG_CONTROL, 0), "magic"),
        (FRAME_HEADER.pack(FRAME_MAGIC, 99, 0), "message type"),
        (FRAME_HEADER.pack(FRAME_MAGIC, 3, 0), "message type 3"),
        (FRAME_HEADER.pack(FRAME_MAGIC, 2, 0), "message type 2"),
        (FRAME_HEADER.pack(FRAME_MAGIC, MSG_OPEN, MAX_PAYLOAD + 1), "exceeds limit"),
    ])
    def test_bad_header_from_a_raw_socket(self, header, match):
        server = tcp_listen("127.0.0.1", 0)
        raw = socket.create_connection(server.getsockname(), timeout=10.0)
        channel = tcp_accept(server, timeout=10.0)
        try:
            raw.sendall(header)
            with pytest.raises(FrameError, match=match):
                channel.recv_frame()
        finally:
            channel.close()
            raw.close()
            server.close()

    def test_connect_refused(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError):
            tcp_connect("127.0.0.1", port, retry_window=0.2)


class TestHandshake:
    def _info(self, **kw):
        base = dict(role="A", ring_bits=64, frac_bits=12, int_bits=15, lr_encoded=4,
                    n_iter=10, rows=10, cols=5, seed_commitment=77)
        base.update(kw)
        return HandshakeInfo(**base)

    def test_matching(self):
        a, b = memory_channel_pair()
        out = {}

        def alice():
            out["peer"] = perform_handshake(a, self._info(role="A"))

        t = threading.Thread(target=alice)
        t.start()
        peer_b = perform_handshake(b, self._info(role="B"))
        t.join()
        assert out["peer"].role == "B"
        assert peer_b.role == "A"

    def test_ring_width_mismatch_aborts(self):
        a, b = memory_channel_pair()
        t = threading.Thread(target=lambda: pytest.raises(TransportError,
                                                          perform_handshake, a, self._info()))
        t.start()
        with pytest.raises(TransportError, match="ring_bits"):
            perform_handshake(b, self._info(role="B", ring_bits=32))
        t.join()

    def test_protocol_version_mismatch_aborts(self):
        a, b = memory_channel_pair()
        t = threading.Thread(target=lambda: pytest.raises(TransportError,
                                                          perform_handshake, a, self._info()))
        t.start()
        # a peer of the previous protocol version is refused
        with pytest.raises(TransportError, match="version: ours 12, peer 13"):
            perform_handshake(b, self._info(role="B", version=12))
        t.join()

    def test_wildcard_dims_allowed(self):
        a, b = memory_channel_pair()
        out = {}

        def ti():
            out["peer"] = perform_handshake(a, self._info(role="TI", rows=0, cols=0))

        t = threading.Thread(target=ti)
        t.start()
        perform_handshake(b, self._info(role="B"))
        t.join()
        assert out["peer"].rows == 10

    @pytest.mark.parametrize("field,value", [("lr_encoded", 40), ("n_iter", 0)])
    def test_learning_rate_and_iterations_always_compared(self, field, value):
        # zero iterations is a count like any other, not a wildcard
        a, b = memory_channel_pair()
        errors = []

        def ti():
            try:
                perform_handshake(a, self._info(role="TI", rows=0, cols=0))
            except TransportError as exc:
                errors.append(exc)

        t = threading.Thread(target=ti)
        t.start()
        with pytest.raises(TransportError, match=field):
            perform_handshake(b, self._info(role="B", **{field: value}))
        t.join()
        assert len(errors) == 1 and field in str(errors[0])

    def test_round_trip_of_every_field(self):
        info = self._info(lr_encoded=(1 << 64) - 5, n_iter=223, seed_commitment=(1 << 63) + 1)
        assert HandshakeInfo.unpack(info.pack()) == info


class TestRunPair:
    def test_one_deadline_for_both_threads(self):
        from mpclr.local import run_pair

        release = threading.Event()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                run_pair(release.wait, release.wait, timeout=0.5)
            assert time.monotonic() - start < 0.8
        finally:
            release.set()

    @staticmethod
    def _fail(message):
        def party(_sess):
            raise ValueError(message)
        return party

    def test_failure_before_the_first_exchange_fails_the_peer_fast(self):
        from mpclr.local import local_session_pair, run_sessions

        sess_a, sess_b = local_session_pair(P64)
        start = time.monotonic()
        # Bob receives first, so he is blocked on Alice's first frame
        with pytest.raises(ValueError, match="alice failed"):
            run_sessions(sess_a, sess_b, self._fail("alice failed"),
                         lambda s: s.open(ring=[np.zeros(3, P64.dtype)]), timeout=10.0)
        assert time.monotonic() - start < 2.0

    def test_the_earliest_failure_is_raised_not_the_peers_closed_channel(self):
        from mpclr.local import local_session_pair, run_sessions

        sess_a, sess_b = local_session_pair(P64)
        peer_errors = []

        def alice(sess):
            try:
                sess.open(ring=[np.zeros(3, P64.dtype)])
            except TransportError as exc:
                peer_errors.append(exc)
                raise

        start = time.monotonic()
        with pytest.raises(ValueError, match="bob failed"):
            run_sessions(sess_a, sess_b, alice, self._fail("bob failed"), timeout=10.0)
        assert time.monotonic() - start < 2.0
        assert [str(e) for e in peer_errors] == ["peer closed the channel"]


class TestTranscriptCounters:
    def test_exchange_counts_bytes_and_rounds(self):
        from mpclr.local import local_session_pair, run_pair

        sess_a, sess_b = local_session_pair(P64, seed=0)
        payload = np.arange(1024, dtype=np.uint64)

        def party(sess):
            sess.open(ring=[payload.astype(P64.dtype)])
            return sess.transcript

        ta, tb = run_pair(lambda: party(sess_a), lambda: party(sess_b))
        assert ta.rounds == tb.rounds == 1
        assert ta.bytes_sent == tb.bytes_sent == 8205

    def test_local_and_tcp_transcripts_identical(self):
        """Identical seeds over either channel flavor give identical frame
        streams, hence identical digests."""
        from mpclr.engine import batch_mul
        from mpclr.local import run_pair

        def drive(channels):
            ch_a, ch_b = channels
            sess_a = Session(Role.ALICE, ch_a, OnDemandSource(4, Role.ALICE, P64), P64)
            sess_b = Session(Role.BOB, ch_b, OnDemandSource(4, Role.BOB, P64), P64)
            xs = np.arange(9, dtype=P64.dtype)

            def party(sess):
                batch_mul(sess, xs, xs)
                return sess.transcript.summary()

            return run_pair(lambda: party(sess_a), lambda: party(sess_b))

        mem = drive(memory_channel_pair())
        tcp_a, tcp_b = _tcp_pair()
        try:
            tcp = drive((tcp_a, tcp_b))
        finally:
            tcp_a.close()
            tcp_b.close()
        assert mem[0]["sent_digest"] == tcp[0]["sent_digest"]
        assert mem[1]["sent_digest"] == tcp[1]["sent_digest"]
        assert mem[0]["bytes_sent"] == tcp[0]["bytes_sent"]
