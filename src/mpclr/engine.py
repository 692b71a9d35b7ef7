"""Round-based two-party protocol engine.

Each secure operation is one synchronized exchange: both parties mask their
operands with pre-distributed triple components, swap the masked differences
in a single frame per direction, and finish locally.  In Z_2 one exchange
also ANDs up to four inputs at once (`and_gates`), against dealt shares of
every subset product of the input masks, and one Z_2 -> ring conversion
(`convert_bits_to_ring`) can also return a converted row times a shared
ring vector, a Beaver product whose operands open in the conversion's
frame.  `Session.open` is the one opening: ring words and bit matrices, as
the padded word rows they are held in, travel in the same frame type, and
one call may carry both; its operands are copied once, into the frame, and
the peer's words are read where they arrived (`Frame.payload` of a received
frame is a read-only memoryview).  Role A sends first and role B receives
first, which keeps TCP deadlock-free without a writer thread; the transcript
counters and frame bytes are identical on both sides either way.  All ring
arithmetic wraps on the machine word matching the ring width.
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
    MatmulDims,
    MaterializedSource,
)
from .sharing import (
    Role,
    random_ring_array,
    unpack_rows,
)
from .transport import MSG_OPEN, Channel, Frame, encode_frame


@dataclass
class Transcript:
    """Per-session cost counters; equal on both parties at session end."""

    rounds: int = 0
    bytes_sent: int = 0
    ring_mults: int = 0
    bit_mults: int = 0
    mask_bits_sent: int = 0
    _digest: "hashlib._Hash" = field(default_factory=lambda: hashlib.sha256(), repr=False)

    def record_send(self, frame_bytes):
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

    def __init__(self, role: Role, channel: Channel, randomness: MaterializedSource,
                 params: FixedPointParams, trunc_oracle=None):
        self.role = role
        self.channel = channel
        self.randomness = randomness
        self.params = params
        self.transcript = Transcript()
        self.trunc_oracle = trunc_oracle

    @property
    def is_alice(self) -> bool:
        return self.role is Role.ALICE

    # -- round primitive -----------------------------------------------------

    def exchange(self, msg_type: int, payload) -> memoryview:
        """One protocol round: both parties send one frame and receive one.

        `payload` is as in `Frame`; the reply's payload is a read-only view
        into the peer's frame."""
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
        if len(reply.payload) % 8:
            raise ProtocolError(f"payload of {len(reply.payload)} bytes is not whole 64-bit words")
        self.transcript.rounds += 1
        self.transcript.record_send(data)
        return reply.payload

    # -- openings ---------------------------------------------------------------

    def open(self, ring=(), bits=()) -> list:
        """Open masked ring tensors and masked matrices of packed bit rows in
        a single round; returns the opened tensors, then the matrices.

        The frame carries each tensor, then each matrix, as its elements in
        order, one 64-bit word each: a bit matrix goes out as the padded
        word rows it is held in.
        """
        ring = [np.asarray(a, dtype=self.params.dtype) for a in ring]
        bits = [np.asarray(m, dtype=np.uint64) for m in bits]
        words = np.frombuffer(self.exchange(MSG_OPEN, ring + bits), dtype=np.uint64)
        expected = sum(a.size for a in ring + bits)
        if len(words) != expected:
            raise ProtocolError(f"opening has {len(words)} words, expected {expected}")
        out = []
        off = 0
        for a in ring:
            out.append(a + words[off:off + a.size].reshape(a.shape).astype(a.dtype, copy=False))
            off += a.size
        for m in bits:
            out.append(m ^ words[off:off + m.size].reshape(m.shape))
            off += m.size
        return out

    def truncate(self, values: np.ndarray) -> np.ndarray:
        """Scale a shared tensor down by the fractional scale (local rule)."""
        if self.trunc_oracle is not None:
            return self.trunc_oracle.truncate(values, self.role, self.params)
        return truncate_share_local(values, self.role, self.params)


# ---------------------------------------------------------------------------
# Beaver multiplication: scalar, elementwise batch, masked matrix
# ---------------------------------------------------------------------------


class MaskedMatrix:
    """A shared n x m matrix X that is masked once and multiplied many times.

    The dealer deals one fixed mask U for X.  The first product over X opens
    D = X - U in the same round as that product's own operand; every later
    product opens only its vector operand, masked by a fresh V whose record
    carries W = U·V or Uᵀ·V.  This is the reuse of masked data of SecureML
    (Mohassel and Zhang, IEEE S&P 2017).  After the opening a party keeps D
    and `u`, its share of U, so each product costs two local matrix-vector
    products: X·y = W + U·e + D·(V + e), where e = y - V is opened, and
    Alice adds the public e to her share of V.
    """

    def __init__(self, share: np.ndarray):
        if np.ndim(share) != 2:
            raise ProtocolError(f"masked operand must be a matrix, got shape {np.shape(share)}")
        self.share = share
        self.shape = share.shape
        self.d = None
        self.u = None


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
        d, e = sess.open(ring=[np.asarray(x.share, dtype=sess.params.dtype) - u, y - v])
        x.d, x.u, x.share = d, u, None
    else:
        [e] = sess.open(ring=[y - v])
    v = v + e if sess.is_alice else v
    # for integer dtypes numpy runs these einsums faster than x.u @ e or x.u.T @ e
    if transpose:
        z = w[:, 0] + np.einsum("ij,i->j", x.u, e[:, 0]) + np.einsum("ij,i->j", x.d, v[:, 0])
    else:
        z = w + np.einsum("ij,jk->ik", x.u, e) + np.einsum("ij,jk->ik", x.d, v)
    sess.transcript.ring_mults += n * m
    return z


def batch_mul(sess: Session, xs, ys: np.ndarray) -> np.ndarray:
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
    u, v, w = sess.randomness.take_ring_triples(n)
    u = u.reshape(xs.shape)
    v = v.reshape(xs.shape)
    w = w.reshape(xs.shape)
    d, e = sess.open(ring=[xs - u, ys - v])
    z = w + e * u + d * v
    if sess.is_alice:
        z = z + d * e
    sess.transcript.ring_mults += n
    return z


def mul(sess: Session, x: int, y: int) -> int:
    """Scalar secure multiplication (batch of one)."""
    out = batch_mul(sess, np.array([x]), np.array([y]))
    return int(out[0])


def matmul(sess: Session, x: MaskedMatrix, y: np.ndarray) -> np.ndarray:
    """X·y for a MaskedMatrix X and a shared column y in one round; the first
    product over X also opens X - U.  Any other operand, or operand
    dimensions that disagree, abort before any randomness is taken."""
    if not isinstance(x, MaskedMatrix):
        raise ProtocolError(f"matmul takes a MaskedMatrix, got {type(x).__name__}")
    return _masked_product(sess, x, y, transpose=False)


def and_gates(sess: Session, gates, batch: int) -> list:
    """Bitwise ANDs of Z_2-shared matrices of packed `batch`-bit rows, every
    gate in one round; returns each gate's output matrix.

    A gate (xs, rs) ANDs its k input matrices xs against rs, one uint64
    array of 2^k - 1 matrices of their shape as a take or a prefix block
    hands it over, matrix S - 1 the shares of r_S, the AND of the masks r_i
    with bit i set in S (see `randomness.subset_products`).  The parties
    open every m_i = x_i XOR r_i (`mask_gate_inputs`), and then x_0 ...
    x_{k-1} is local (`finish_and_gates`): the XOR over all S of r_S AND
    the m_i outside S, where r_0 is 1 on Alice's side and 0 on Bob's (Ohata
    and Nuida, FC 2020).  The frame carries each gate's masked inputs in
    order; k = 2 is the Beaver triple u, v, w.  A round that opens other
    matrices too opens the masked inputs in its own frame and finishes the
    gates after it.
    """
    return finish_and_gates(sess, gates, sess.open(bits=mask_gate_inputs(gates)), batch)


def mask_gate_inputs(gates) -> list:
    """The masked inputs m_i = x_i XOR r_i of every gate, in order: what
    `and_gates` opens."""
    return [x ^ rs[(1 << i) - 1] for xs, rs in gates for i, x in enumerate(xs)]


def finish_and_gates(sess: Session, gates, opened, batch: int) -> list:
    """Each gate's output matrix, local from the opened `mask_gate_inputs`."""
    opened = iter(opened)
    out = []
    for xs, rs in gates:
        m = [next(opened) for _ in xs]
        # Input by input from the last, g[U] sums the terms of every S that
        # agrees with U on the inputs still to go: g[U] = g[U + {j}] XOR m_j g[U].
        half = 1 << (len(m) - 1)
        g = rs[half - 1:].copy()
        g[1:] ^= m[-1] & rs[:half - 1]
        if sess.is_alice:
            g[0] ^= m[-1]
        for j in reversed(range(len(m) - 1)):
            g = g[1 << j:] ^ (m[j] & g[:1 << j])
        sess.transcript.bit_mults += (len(m) - 1) * len(g[0]) * batch
        out.append(g[0])
    return out


def convert_bits_to_ring(sess: Session, rows, batch: int, factor=None) -> np.ndarray:
    """Z_2 -> Z_{2^ring} share conversion of packed `batch`-bit rows in one
    round; returns the ring shares row after row.

    Each bit b takes one daBit, a random bit r that the dealer shares both
    in Z_2 and in the ring.  The parties open the rows c = b XOR r, and
    b = c + (1 - 2c)·r is local, with the public c added on Alice's side.

    With `factor`, a shared ring vector of `batch` elements, row 0 comes back
    as b·factor, still in one round.  The daBit r is dealt before the round,
    so its Beaver product with the factor opens r - u and factor - v in the
    frame of c, against one ring triple per element, and b·factor =
    c·factor + (1 - 2c)·(r·factor) is local.
    """
    dtype = sess.params.dtype
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint64))
    r_ring, r_bits = sess.randomness.take_dabits(len(rows) * batch, len(rows))
    ring = []
    if factor is not None:
        factor = np.asarray(factor, dtype=dtype)
        u, v, w = sess.randomness.take_ring_triples(batch)
        ring = [r_ring[:batch] - u, factor - v]
    *masked, c = sess.open(ring=ring, bits=[rows ^ r_bits])
    c = unpack_rows(c, batch).reshape(-1).astype(dtype)
    flip = dtype(1) - dtype(2) * c
    out = flip * r_ring
    if sess.is_alice:
        out += c
    if factor is None:
        return out
    d, e = masked
    r_factor = w + e * u + d * v
    if sess.is_alice:
        r_factor += d * e
    out[:batch] = c[:batch] * factor + flip[:batch] * r_factor
    sess.transcript.ring_mults += batch
    return out


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
