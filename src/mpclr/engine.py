"""Round-based two-party protocol engine.

Each secure operation is one synchronized exchange: both parties mask their
operands with pre-distributed triple components, swap the masked differences
in a single frame per direction, and finish locally.  In Z_2 one exchange
also ANDs up to four inputs at once (`and_gates`), against dealt shares of
every subset product of the input masks, and one Z_2 -> ring conversion
(`convert_bits_to_ring`) can also return a converted row times a shared
ring vector, a product against the row's own daBits whose one masked
operand opens in the conversion's frame.  `Session.open` is the one
opening of shared values: ring words and bit matrices, as the padded word
rows they are held in, travel in the same frame type, and one call may
carry both.  Each operand is a (value, mask) pair, masked straight into the
frame as value - mask in the ring or value XOR mask in Z_2, so no caller
builds a masked copy; a party reads its own masked words back from its
frame and the peer's where they arrived (`Frame.payload` of a received
frame is a read-only memoryview).  `Session.swap` is the same round without
the sum: it opens a value that its sender masked with a mask only it holds.
Role A sends first and role B receives first, which keeps TCP
deadlock-free without a writer thread; the transcript counters and frame
bytes are identical on both sides either way.  All ring arithmetic wraps
on the machine word matching the ring width.
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
from .transport import FRAME_HEADER, MSG_OPEN, Channel, Frame, encode_frame


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

    def exchange(self, msg_type: int, payload) -> tuple:
        """One protocol round: both parties send one frame and receive one.

        `payload` is as in `Frame`.  Returns the payload of the frame sent,
        which the peer may be reading where it lies and so must not be
        written, and the reply's payload, a read-only view into the peer's
        frame."""
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
        return data[FRAME_HEADER.size:], reply.payload

    # -- openings ---------------------------------------------------------------

    def _masked_round(self, ring, bits) -> tuple:
        """Send every (value, mask) pair of `ring`, then of `bits`, masked
        straight into one frame, in a single round.  Returns the masked
        operands (op, value, mask) as the frame took them, this party's
        masked words, read back from its frame, and the peer's."""
        operands = []
        for op, pairs, dtype in ((np.subtract, ring, self.params.dtype),
                                 (np.bitwise_xor, bits, np.uint64)):
            for value, mask in pairs:
                value, mask = np.asarray(value, dtype), np.asarray(mask, dtype)
                if value.shape != mask.shape:
                    raise ProtocolError(
                        f"mask of shape {mask.shape} for an operand of shape {value.shape}")
                operands.append((op, value, mask))
        sent, reply = self.exchange(MSG_OPEN, operands)
        ours, theirs = (np.frombuffer(p, dtype=np.uint64) for p in (sent, reply))
        if len(theirs) != len(ours):
            raise ProtocolError(f"opening has {len(theirs)} words, expected {len(ours)}")
        return operands, ours, theirs

    def swap(self, ring=(), bits=()) -> list:
        """Send every (value, mask) pair masked, as `open` does, in a single
        round, and return the peer's masked operands in 64-bit words.  Alone
        it opens values masked by masks that only their sender holds: the
        receiver's word is the sender's masked value itself."""
        operands, _, theirs = self._masked_round(ring, bits)
        return list(_cut(theirs, operands))

    def open(self, ring=(), bits=()) -> list:
        """Open shared ring tensors and matrices of packed bit rows in a
        single round; returns the opened tensors, then the matrices.

        Each operand is a (value, mask) pair of this party's shares, masked
        into the frame as value - mask in the ring, and value XOR mask for a
        bit matrix; a plain share opens against a zero mask.  The frame
        carries each tensor, then each matrix, as its elements in order, one
        64-bit word each: a bit matrix goes out as the padded word rows it
        is held in.  A mask whose shape differs from its value's raises
        ProtocolError before anything is sent.  The opened values are new
        arrays: the sum, or XOR, of this party's masked words and the peer's.
        """
        operands, ours, theirs = self._masked_round(ring, bits)
        n = len(ring)
        k = sum(value.size for _, value, _ in operands[:n])
        # every tensor, then every matrix, in one pass each
        return (list(_cut(np.add(ours[:k], theirs[:k], dtype=self.params.dtype), operands[:n]))
                + list(_cut(ours[k:] ^ theirs[k:], operands[n:])))

    def truncate(self, values: np.ndarray) -> np.ndarray:
        """Scale a shared tensor down by the fractional scale (local rule)."""
        if self.trunc_oracle is not None:
            return self.trunc_oracle.truncate(values, self.role, self.params)
        return truncate_share_local(values, self.role, self.params)


def _cut(words: np.ndarray, operands):
    """The `words` of each masked operand (op, value, mask) in turn, as a
    view of value's shape."""
    off = 0
    for _, value, _ in operands:
        yield words[off:off + value.size].reshape(value.shape)
        off += value.size


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

    At the first product a party holds, beside its share of X, three
    matrices of X's size: `u`, its frame, into which its share of X is
    masked as it is written, and D, a new array, because the peer may
    still be reading the frame.  The frame is freed after the round.
    """

    def __init__(self, share: np.ndarray):
        if np.ndim(share) != 2:
            raise ProtocolError(f"masked operand must be a matrix, got shape {np.shape(share)}")
        self.share = share
        self.shape = share.shape
        self.d = None
        self.u = None


def _piecewise(op, values: np.ndarray, pieces, out: np.ndarray) -> np.ndarray:
    """op(values, part) into `out`, where a take hands the flat `part` out
    as its two pieces (see `MaterializedSource._take`): each piece with its
    slice of the flat `values`, into its slice of the flat `out`."""
    cut = len(pieces[0])
    op(values[:cut], pieces[0], out=out[:cut])
    op(values[cut:], pieces[1], out=out[cut:])
    return out


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
        d, e = sess.open(ring=[(x.share, u), (y, v)])
        x.d, x.u, x.share = d, u, None
    else:
        [e] = sess.open(ring=[(y, v)])
    v = v + e if sess.is_alice else v
    # for integer dtypes numpy runs these einsums faster than x.u @ e or x.u.T @ e
    if transpose:
        z = np.einsum("ij,i->j", x.u, e[:, 0]) + np.einsum("ij,i->j", x.d, v[:, 0])
    else:
        z = np.einsum("ij,jk->ik", x.u, e) + np.einsum("ij,jk->ik", x.d, v)
    flat = z.reshape(-1)  # W's pieces are added where z lies
    _piecewise(np.add, flat, w, flat)
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
    d, e = sess.open(ring=[(xs, u), (ys, v)])
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
    """The pairs (x_i, r_i) of every gate's inputs and their masks, in
    order: what `and_gates` opens as the masked inputs m_i = x_i XOR r_i."""
    return [(x, rs[(1 << i) - 1]) for xs, rs in gates for i, x in enumerate(xs)]


def finish_and_gates(sess: Session, gates, opened, batch: int) -> list:
    """Each gate's output matrix, local from the masked inputs m_i =
    x_i XOR r_i of every gate, in `mask_gate_inputs` order: opened, or
    computed from values already opened where a mask is derived from
    theirs."""
    opened = iter(opened)
    out = []
    for xs, rs in gates:
        m = [next(opened) for _ in xs]
        # Input by input from the last, g[U] sums the terms of every S that
        # agrees with U on the inputs still to go: g[U] = g[U + {j}] XOR m_j g[U].
        half = 1 << (len(m) - 1)
        g = np.empty_like(rs[half - 1:])
        np.bitwise_and(m[-1], rs[:half - 1], out=g[1:])
        g[1:] ^= rs[half:]
        if sess.is_alice:  # r_0 is 1 on her side
            np.bitwise_xor(rs[half - 1], m[-1], out=g[0])
        else:
            g[0] = rs[half - 1]
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
    as b·factor, still in one round.  The daBit r is a dealt secret, so
    nothing needs to hide it: the dealer deals row 0's daBits with a ring
    mask v and shares of rho = r·v (Rotaru and Wood, INDOCRYPT 2019).  The
    frame of c opens e = factor - v alone, r·factor = e·r + rho is local,
    and so is b·factor = c·factor + (1 - 2c)·(r·factor).  The ring shares
    of r and rho are read as the two pieces a take hands them out in.
    """
    dtype = sess.params.dtype
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint64))
    r_ring, r_bits, v, rho = sess.randomness.take_dabits(len(rows), batch, factor is not None)
    ring = []
    if factor is not None:
        factor = np.asarray(factor, dtype=dtype)
        ring = [(factor, v)]
    *masked, c = sess.open(ring=ring, bits=[(rows, r_bits)])
    c = unpack_rows(c, batch).reshape(-1).astype(dtype)
    flip = dtype(1) - dtype(2) * c
    out = _piecewise(np.multiply, flip, r_ring, np.empty_like(flip))  # (1 - 2c)·r
    if factor is not None:
        # c·factor + (1 - 2c)·(e·r + rho), the (1 - 2c)·r read from out
        [e] = masked
        head = c[:batch] * factor + e * out[:batch]
        head += _piecewise(np.multiply, flip[:batch], rho, np.empty(batch, dtype))
    if sess.is_alice:
        out += c
    if factor is None:
        return out
    out[:batch] = head
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
