"""Bit-exact message framing and the two channel flavors.

Every message is one frame: 4-byte magic, 1-byte message type, 8-byte
little-endian payload length, payload.  An opening (type MSG_OPEN) carries
its ring values as unsigned 64-bit little-endian words, then each bit matrix
as its rows of LSB-first packed words, each row padded to a whole word.  The
same byte stream is produced whether the parties talk over TCP or over the
in-process channel used by local mode and tests.  A dead peer kills the session; there is no retry logic.
"""

from __future__ import annotations

import queue
import socket
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FrameError, TransportError

FRAME_MAGIC = b"MPC1"
FRAME_HEADER = struct.Struct("<4sBQ")
MAX_PAYLOAD = 1 << 30

MSG_OPEN = 1
# types 2 and 3 are unassigned: a frame of either type is rejected like any
# unknown one
MSG_CONTROL = 4
MSG_RANDOMNESS = 5

_VALID_TYPES = {MSG_OPEN, MSG_CONTROL, MSG_RANDOMNESS}

PROTOCOL_VERSION = 13


@dataclass(frozen=True)
class Frame:
    """One message.  The payload is any bytes-like object, or, for an
    opening being sent, a list of numpy arrays of unsigned integers, which
    go out as their elements in order, one 64-bit word each.  A received
    frame's payload is a read-only memoryview."""

    msg_type: int
    payload: bytes | memoryview | list


def _header(msg_type: int, length: int) -> bytes:
    """The header of a frame of `msg_type` whose payload is `length` bytes;
    raises FrameError for an unknown type or a payload over the limit."""
    if msg_type not in _VALID_TYPES:
        raise FrameError(f"unknown message type {msg_type}")
    if length > MAX_PAYLOAD:
        raise FrameError(f"payload of {length} bytes exceeds limit {MAX_PAYLOAD}")
    return FRAME_HEADER.pack(FRAME_MAGIC, msg_type, length)


def encode_frame(frame: Frame) -> memoryview:
    """The frame's bytes, header then payload, as one buffer that the
    payload is copied into once.  The header takes the last 13 bytes of two
    leading words, so the payload starts 64-bit aligned."""
    payload = frame.payload
    arrays = isinstance(payload, list)
    length = 8 * sum(a.size for a in payload) if arrays else memoryview(payload).nbytes
    header = _header(frame.msg_type, length)
    buf = np.empty(2 + -(-length // 8), dtype=np.uint64)
    data = buf.view(np.uint8)[16 - FRAME_HEADER.size:16 + length]
    data[:FRAME_HEADER.size] = np.frombuffer(header, dtype=np.uint8)
    if arrays:
        off = 2
        for a in payload:
            buf[off:off + a.size] = a.reshape(-1)
            off += a.size
    else:
        data[FRAME_HEADER.size:] = np.frombuffer(payload, dtype=np.uint8)
    return memoryview(data)


def _parse_header(data) -> tuple:
    """(message type, payload length) of the frame header that `data` starts with."""
    if len(data) < FRAME_HEADER.size:
        raise FrameError("truncated frame header")
    magic, msg_type, length = FRAME_HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if msg_type not in _VALID_TYPES:
        raise FrameError(f"unknown message type {msg_type}")
    if length > MAX_PAYLOAD:
        raise FrameError(f"advertised payload length {length} exceeds limit")
    return msg_type, length


def decode_frame(data) -> Frame:
    """The frame that the bytes-like `data` holds; its payload is a view into `data`."""
    msg_type, length = _parse_header(data)
    payload = memoryview(data).toreadonly()[FRAME_HEADER.size:FRAME_HEADER.size + length]
    if len(payload) != length:
        raise FrameError(f"frame payload truncated: expected {length}, got {len(payload)}")
    return Frame(msg_type, payload)


class Channel:
    """Blocking, ordered, bidirectional frame transport."""

    def send_frame(self, frame: Frame) -> int:
        """Send one frame; returns the number of bytes put on the wire."""
        data = encode_frame(frame)
        self.send_bytes(data)
        return len(data)

    def send_bytes(self, data):
        """Send pre-encoded frame bytes (see encode_frame)."""
        raise NotImplementedError

    def recv_frame(self) -> Frame:
        raise NotImplementedError

    def close(self):
        raise NotImplementedError


class MemoryChannel(Channel):
    """One endpoint of an in-process duplex pair; byte-compatible with TCP."""

    _CLOSED = object()

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue, timeout: float = 120.0):
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout
        self._open = True

    def send_bytes(self, data: bytes):
        if not self._open:
            raise TransportError("channel is closed")
        self._outbox.put(data)

    def recv_frame(self) -> Frame:
        try:
            data = self._inbox.get(timeout=self._timeout)
        except queue.Empty:
            raise TransportError("timed out waiting for peer") from None
        if data is self._CLOSED:
            raise TransportError("peer closed the channel")
        return decode_frame(data)

    def close(self):
        if self._open:
            self._open = False
            self._outbox.put(self._CLOSED)


def memory_channel_pair(timeout: float = 120.0):
    q_ab: queue.Queue = queue.Queue()
    q_ba: queue.Queue = queue.Queue()
    return MemoryChannel(q_ba, q_ab, timeout), MemoryChannel(q_ab, q_ba, timeout)


class TcpChannel(Channel):
    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send_frame(self, frame: Frame) -> int:
        """Send one frame; a bytes-like payload, such as a dealt randomness
        stream, goes out after its header as the buffer it is, uncopied."""
        if isinstance(frame.payload, list):
            return super().send_frame(frame)
        payload = memoryview(frame.payload).cast("B")
        self.send_bytes(_header(frame.msg_type, len(payload)))
        self.send_bytes(payload)
        return FRAME_HEADER.size + len(payload)

    def send_bytes(self, data: bytes):
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def _recv_exact(self, n: int) -> memoryview:
        """The next `n` bytes, received straight into one buffer of that size."""
        buf = memoryview(np.empty(n, dtype=np.uint8))
        got = 0
        while got < n:
            try:
                count = self._sock.recv_into(buf[got:])
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not count:
                raise TransportError("peer closed the connection mid-frame")
            got += count
        return buf.toreadonly()

    def recv_frame(self) -> Frame:
        msg_type, length = _parse_header(self._recv_exact(FRAME_HEADER.size))
        return Frame(msg_type, self._recv_exact(length))

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_listen(host: str, port: int) -> socket.socket:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        srv.bind((host, port))
    except OSError as exc:
        raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc
    srv.listen(2)  # a party accepts at most its peer and the trusted initializer
    return srv


def tcp_accept(server: socket.socket, timeout: float = 120.0) -> TcpChannel:
    server.settimeout(timeout)
    try:
        sock, _ = server.accept()
    except (socket.timeout, OSError) as exc:
        raise TransportError(f"accept failed: {exc}") from exc
    sock.settimeout(timeout)
    return TcpChannel(sock)


def tcp_connect(host: str, port: int, timeout: float = 120.0,
                retry_window: float = 10.0) -> TcpChannel:
    """Connect to a peer, retrying briefly so process start order is free."""
    import time

    deadline = time.monotonic() + retry_window
    while True:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect((host, port))
            return TcpChannel(sock)
        except OSError as exc:
            sock.close()
            if time.monotonic() >= deadline:
                raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
            time.sleep(0.05)


# ---------------------------------------------------------------------------
# Session handshake
# ---------------------------------------------------------------------------

_HANDSHAKE = struct.Struct("<BBHHHQQQQQ")
_ROLE_CODES = {"TI": 0, "A": 1, "B": 2}
_ROLE_NAMES = {v: k for k, v in _ROLE_CODES.items()}


@dataclass(frozen=True)
class HandshakeInfo:
    """Parameters pinned before any share traffic flows."""

    role: str                  # "TI", "A" or "B"
    ring_bits: int
    frac_bits: int
    int_bits: int
    lr_encoded: int            # the learning rate as its fixed-point ring element
    n_iter: int                # training iterations; 0 is a valid count
    rows: int = 0
    cols: int = 0
    seed_commitment: int = 0   # randomness session id; 0 = not yet known
    version: int = PROTOCOL_VERSION

    def pack(self) -> bytes:
        return _HANDSHAKE.pack(
            self.version, _ROLE_CODES[self.role], self.ring_bits, self.frac_bits,
            self.int_bits, self.lr_encoded, self.n_iter, self.rows, self.cols,
            self.seed_commitment,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "HandshakeInfo":
        if len(data) != _HANDSHAKE.size:
            raise FrameError(f"handshake payload has {len(data)} bytes, expected {_HANDSHAKE.size}")
        version, role, ring, frac, intb, lr, n_iter, rows, cols, commit = _HANDSHAKE.unpack(data)
        return cls(_ROLE_NAMES.get(role, "?"), ring, frac, intb, lr, n_iter, rows, cols, commit,
                   version)


def perform_handshake(channel: Channel, own: HandshakeInfo) -> HandshakeInfo:
    """Exchange handshakes and abort on any parameter disagreement.

    Precision, learning rate and iteration count are always compared: every
    role knows them.  Dataset dims and seed commitment are compared only when
    both sides claim them (zero means "not known yet", e.g. a trusted
    initializer that learns the dataset shape from the data processors).
    """
    channel.send_frame(Frame(MSG_CONTROL, own.pack()))
    reply = channel.recv_frame()
    if reply.msg_type != MSG_CONTROL:
        raise TransportError(f"expected a handshake frame, got message type {reply.msg_type}")
    peer = HandshakeInfo.unpack(reply.payload)
    mismatches = []
    for name in ("version", "ring_bits", "frac_bits", "int_bits", "lr_encoded", "n_iter"):
        if getattr(own, name) != getattr(peer, name):
            mismatches.append(f"{name}: ours {getattr(own, name)}, peer {getattr(peer, name)}")
    for name in ("rows", "cols", "seed_commitment"):
        ours, theirs = getattr(own, name), getattr(peer, name)
        if ours and theirs and ours != theirs:
            mismatches.append(f"{name}: ours {ours}, peer {theirs}")
    if mismatches:
        raise TransportError("handshake parameter mismatch: " + "; ".join(mismatches))
    return peer
