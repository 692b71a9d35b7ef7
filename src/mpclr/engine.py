"""Round-based two-party protocol engine.

Each secure operation is one synchronized exchange: both parties mask their
operands with pre-distributed triple components, swap the masked differences
in a single frame per direction, and finish locally.  Role A sends first and
role B receives first, which keeps TCP deadlock-free without a writer thread;
the transcript counters and frame bytes are identical on both sides either
way.  All ring arithmetic wraps on the machine word matching the ring width.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolError
from .fixedpoint import FixedPointParams, exact_truncate, truncate_share_local
from .randomness import (
    MATMUL_MASK,
    MATMUL_REUSE,
    MATMUL_REUSE_T,
    TAG_CONVERSION,
    TAG_SCALAR,
    MatmulDims,
    RandomnessSource,
)
from .sharing import Role, pack_bits_to_words, random_ring_array, unpack_words_to_bits
from .transport import (
    MSG_OPEN_BITS,
    MSG_OPEN_RING,
    MSG_RESHARE,
    Channel,
    Frame,
    encode_frame,
)


@dataclass
class Transcript:
    """Per-session cost counters; equal on both parties at session end."""

    rounds: int = 0
    bytes_sent: int = 0
    ring_mults: int = 0
    bit_mults: int = 0
    mask_bits_sent: int = 0
    capture_opens: bool = False
    opened_words: list = field(default_factory=list)
    _digest: "hashlib._Hash" = field(default_factory=lambda: hashlib.sha256(), repr=False)

    def record_send(self, frame_bytes: bytes):
        self.bytes_sent += len(frame_bytes)
        self._digest.update(frame_bytes)

    def sent_digest(self) -> str:
        return self._digest.hexdigest()

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "bytes_sent": self.bytes_sent,
            "ring_mults": self.ring_mults,
            "bit_mults": self.bit_mults,
            "mask_bits_sent": self.mask_bits_sent,
            "sent_digest": self.sent_digest(),
        }


class Session:
    """One party's live protocol state: role, channel, randomness, counters."""

    def __init__(self, role: Role, channel: Channel, randomness: RandomnessSource,
                 params: FixedPointParams, rng: np.random.Generator | None = None,
                 trunc_oracle=None):
        self.role = role
        self.channel = channel
        self.randomness = randomness
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.transcript = Transcript()
        self.trunc_oracle = trunc_oracle

    @property
    def is_alice(self) -> bool:
        return self.role is Role.ALICE

    # -- round primitive -----------------------------------------------------

    def exchange(self, msg_type: int, payload: bytes) -> bytes:
        """One protocol round: both parties send one frame and receive one."""
        data = encode_frame(Frame(msg_type, payload))
        if self.is_alice:
            self.channel.send_bytes(data)
            reply = self.channel.recv_frame()
        else:
            reply = self.channel.recv_frame()
            self.channel.send_bytes(data)
        if reply.msg_type != msg_type:
            raise ProtocolError(
                f"round desync: sent message type {msg_type}, peer sent {reply.msg_type}"
            )
        self.transcript.rounds += 1
        self.transcript.record_send(data)
        return reply.payload

    # -- ring helpers ----------------------------------------------------------

    def _to_words(self, *arrays) -> bytes:
        return b"".join(np.ascontiguousarray(a, dtype=self.params.dtype)
                        .astype(np.uint64).tobytes() for a in arrays)

    def _from_words(self, payload: bytes, *shapes):
        words = np.frombuffer(payload, dtype=np.uint64)
        out = []
        off = 0
        for shape in shapes:
            n = int(np.prod(shape)) if shape else 1
            out.append(words[off:off + n].reshape(shape).astype(self.params.dtype))
            off += n
        if off != len(words):
            raise ProtocolError(f"ring payload has {len(words)} words, expected {off}")
        return out

    def open_ring(self, *arrays):
        """Open one or more masked ring tensors in a single round."""
        payload = self._to_words(*arrays)
        reply = self.exchange(MSG_OPEN_RING, payload)
        peers = self._from_words(reply, *(a.shape for a in arrays))
        opened = [a + p for a, p in zip(arrays, peers)]
        if self.transcript.capture_opens:
            for arr in opened:
                self.transcript.opened_words.extend(int(x) for x in np.ravel(arr))
        return opened if len(opened) > 1 else opened[0]

    def open_bit_strings(self, strings_and_lengths) -> list:
        """Open masked bit strings (packed LSB-first) in a single round."""
        payload = b"".join(
            pack_bits_to_words(bits, n).tobytes() for bits, n in strings_and_lengths
        )
        reply = self.exchange(MSG_OPEN_BITS, payload)
        out = []
        off = 0
        for bits, n in strings_and_lengths:
            nwords = max(1, (n + 63) // 64)
            words = np.frombuffer(reply[off * 8:(off + nwords) * 8], dtype=np.uint64)
            if len(words) != nwords:
                raise ProtocolError("bit payload shorter than expected")
            out.append(bits ^ unpack_words_to_bits(words, n))
            off += nwords
        return out

    def truncate(self, values: np.ndarray) -> np.ndarray:
        """Scale a shared tensor down by the fractional scale (local rule)."""
        if self.trunc_oracle is not None:
            return self.trunc_oracle.truncate(values, self.role, self.params)
        return truncate_share_local(values, self.role, self.params)


# ---------------------------------------------------------------------------
# Beaver multiplication: scalar, elementwise batch, matrix, inner product
# ---------------------------------------------------------------------------


class MaskedMatrix:
    """A shared n x m matrix X that is masked once and multiplied many times.

    The dealer deals one fixed mask U for X.  The first product over X opens
    D = X - U in the same round as that product's own operand; every later
    product opens only its vector operand, masked by a fresh V whose record
    carries W = U·V or Uᵀ·V.  This is the reuse of masked data of SecureML
    (Mohassel and Zhang, IEEE S&P 2017).  After the opening a party keeps D
    and `left`, its share of U plus D on Alice's side, so each product costs
    two local matrix-vector products.
    """

    def __init__(self, share: np.ndarray):
        if np.ndim(share) != 2:
            raise ProtocolError(f"masked operand must be a matrix, got shape {np.shape(share)}")
        self.share = share
        self.shape = share.shape
        self.d = None
        self.left = None


def _masked_product(sess: Session, x: MaskedMatrix, y: np.ndarray, transpose: bool):
    """X·y, or Xᵀ·y with `transpose`, for a shared column y; one round."""
    n, m = x.shape
    y = np.asarray(y, dtype=sess.params.dtype)
    rows = n if transpose else m
    if y.shape != (rows, 1):
        raise ProtocolError(f"masked product dimension mismatch: X {x.shape}, operand {y.shape}")
    first = x.d is None
    if first:
        u, _, _ = sess.randomness.take_matmul_triple(MatmulDims(n, m, 0, MATMUL_MASK))
    kind = MATMUL_REUSE_T if transpose else MATMUL_REUSE
    _, v, w = sess.randomness.take_matmul_triple(MatmulDims(n, m, 1, kind))
    if first:
        d, e = sess.open_ring(np.asarray(x.share, dtype=sess.params.dtype) - u, y - v)
        x.d, x.left, x.share = d, (u + d if sess.is_alice else u), None
    else:
        e = sess.open_ring(y - v)
    if transpose:
        # for integer dtypes numpy runs this einsum several times faster than x.left.T @ e
        z = w[:, 0] + np.einsum("ij,i->j", x.left, e[:, 0]) + np.einsum("ij,i->j", x.d, v[:, 0])
    else:
        z = w + x.left @ e + x.d @ v
    sess.transcript.ring_mults += n * m
    return z


def batch_mul(sess: Session, xs, ys: np.ndarray, tag: int = TAG_SCALAR) -> np.ndarray:
    """Elementwise product of two shared vectors; one round for any length.

    Against a MaskedMatrix X (n x m) and a shared n-vector ys, it computes the
    n·m products X[i, j]·ys[i] and returns them summed over the samples i:
    the m-vector Xᵀ·ys, still in one round.
    """
    if isinstance(xs, MaskedMatrix):
        return _masked_product(sess, xs, np.reshape(ys, (-1, 1)), transpose=True)
    xs = np.asarray(xs, dtype=sess.params.dtype)
    ys = np.asarray(ys, dtype=sess.params.dtype)
    if xs.shape != ys.shape:
        raise ProtocolError(f"batch length mismatch: {xs.shape} vs {ys.shape}")
    n = xs.size
    u, v, w = sess.randomness.take_ring_triples(n, tag)
    u = u.reshape(xs.shape)
    v = v.reshape(xs.shape)
    w = w.reshape(xs.shape)
    d, e = sess.open_ring(xs - u, ys - v)
    z = w + e * u + d * v
    if sess.is_alice:
        z = z + d * e
    sess.transcript.ring_mults += n
    return z


def mul(sess: Session, x: int, y: int) -> int:
    """Scalar secure multiplication (batch of one)."""
    out = batch_mul(sess, np.array([x]), np.array([y]))
    return int(out[0])


def matmul(sess: Session, x, y: np.ndarray) -> np.ndarray:
    """Matrix product of shared matrices in one round.

    `x` may be a MaskedMatrix, with `y` one column; its first product also
    opens X - U.  Aborts before touching randomness when the operand
    dimensions disagree.
    """
    if isinstance(x, MaskedMatrix):
        return _masked_product(sess, x, y, transpose=False)
    x = np.asarray(x, dtype=sess.params.dtype)
    y = np.asarray(y, dtype=sess.params.dtype)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[0]:
        raise ProtocolError(f"matmul dimension mismatch: {x.shape} x {y.shape}")
    dims = (x.shape[0], x.shape[1], y.shape[1])
    u, v, w = sess.randomness.take_matmul_triple(dims)
    d, e = sess.open_ring(x - u, y - v)
    z = w + u @ e + d @ v
    if sess.is_alice:
        z = z + d @ e
    sess.transcript.ring_mults += dims[0] * dims[1] * dims[2]
    return z


def inner_product(sess: Session, ws: np.ndarray, xs: np.ndarray) -> int:
    """Dot product of two shared vectors; the result keeps doubled fractional
    bits, truncation is the caller's decision."""
    ws = np.asarray(ws, dtype=sess.params.dtype)
    xs = np.asarray(xs, dtype=sess.params.dtype)
    if ws.shape != xs.shape or ws.ndim != 1:
        raise ProtocolError(f"inner product length mismatch: {ws.shape} vs {xs.shape}")
    out = matmul(sess, ws.reshape(1, -1), xs.reshape(-1, 1))
    return int(out[0, 0])


def batch_bit_mul(sess: Session, xs: int, ys: int, nbits: int) -> int:
    """Bitwise AND of two packed Z_2 share strings; one round per call."""
    u, v, w = sess.randomness.take_bit_triples(nbits)
    d = xs ^ u
    e = ys ^ v
    d_open, e_open = sess.open_bit_strings([(d, nbits), (e, nbits)])
    z = w ^ (e_open & u) ^ (d_open & v)
    if sess.is_alice:
        z ^= d_open & e_open
    sess.transcript.bit_mults += nbits
    return z


def reshare_bits_to_ring(sess: Session, bits: int, n: int):
    """Re-share each of this party's n bits as additive ring sharings.

    Returns (alice_bit_shares, bob_bit_shares): this party's share of the
    ring sharing of Alice's bit vector and of Bob's bit vector.
    """
    raw = (bits & ((1 << n) - 1)).to_bytes((n + 7) // 8, "little")
    own = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n,
                        bitorder="little").astype(sess.params.dtype)
    keep = random_ring_array(sess.rng, sess.params, (n,))
    send = own - keep
    reply = sess.exchange(MSG_RESHARE, sess._to_words(send))
    (recv,) = sess._from_words(reply, (n,))
    if sess.is_alice:
        return keep, recv
    return recv, keep


def convert_bits_to_ring(sess: Session, bits: int, n: int) -> np.ndarray:
    """Z_2 -> Z_{2^ring} share conversion for n packed bits (two rounds)."""
    a_sh, b_sh = reshare_bits_to_ring(sess, bits, n)
    y = batch_mul(sess, a_sh, b_sh, tag=TAG_CONVERSION)
    two = sess.params.dtype(2)
    return a_sh + b_sh - two * y


# ---------------------------------------------------------------------------
# Exact-truncation oracle (test hook)
# ---------------------------------------------------------------------------


class ExactTruncationOracle:
    """Replaces the local truncation rule with the exact floored quotient.

    Only usable when both parties run in one process (local mode / tests):
    the two sessions rendezvous here, the secret is reconstructed, truncated
    exactly and re-split with split randomness derived from the call index so
    results do not depend on thread arrival order.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._lock = threading.Lock()
        self._calls = {}
        self._indices = {Role.ALICE: 0, Role.BOB: 0}

    def truncate(self, values: np.ndarray, role: Role, params: FixedPointParams) -> np.ndarray:
        values = np.asarray(values, dtype=params.dtype)
        with self._lock:
            idx = self._indices[role]
            self._indices[role] += 1
            slot = self._calls.setdefault(idx, {"event": threading.Event()})
            slot[role] = values
            both = Role.ALICE in slot and Role.BOB in slot
            if both:
                total = slot[Role.ALICE] + slot[Role.BOB]
                exact = exact_truncate(total, params)
                rng = np.random.default_rng(
                    np.random.SeedSequence([self._seed & (2 ** 64 - 1), idx])
                )
                ra = random_ring_array(rng, params, exact.shape)
                slot["out"] = {Role.ALICE: ra, Role.BOB: exact - ra}
                slot["event"].set()
        slot["event"].wait(timeout=60.0)
        if "out" not in slot:
            raise ProtocolError("exact-truncation oracle: peer never arrived")
        return slot["out"][role]
