import tracemalloc

import numpy as np
import pytest

from mpclr import (
    ExactTruncationOracle,
    FixedPointParams,
    ProtocolError,
    RandomnessUnderflowError,
    Role,
    local_session_pair,
    run_sessions,
)
from mpclr.engine import MaskedMatrix, and_gates, batch_mul, convert_bits_to_ring, matmul, mul
from mpclr.fixedpoint import exact_truncate
from mpclr.randomness import MaterializedSource, TrustedDealer, TAG_SCALAR
from mpclr.transport import FRAME_HEADER, MSG_OPEN
from mpclr.sharing import (
    pack_rows,
    random_ring_array,
    split,
    split_array,
    unpack_rows,
    word_count,
)

from helpers import forced_scalar_source, protocol_pair

P8 = FixedPointParams(frac_bits=2, int_bits=2, ring_bits=8)
P16 = FixedPointParams(frac_bits=4, int_bits=3, ring_bits=16)
P64 = FixedPointParams()


def open_ints(a, b, params):
    return (int(a) + int(b)) % params.modulus


class TestScalarMul:
    def test_protocol_algebra_with_forced_triple(self):
        """x=3, y=5 against the triple (U=2, V=7, W=14): the masked openings
        are D=1 and E=y-V (negative, wrapping), and the result opens to 15."""
        sources = forced_scalar_source(P8, 2, 7, 14)
        xa, xb = split(3, P8, np.random.default_rng(0))
        ya, yb = split(5, P8, np.random.default_rng(1))
        ra, rb, sa, _ = protocol_pair(
            P8, lambda s: mul(s, xa.value, ya.value), lambda s: mul(s, xb.value, yb.value),
            sources=sources,
        )
        assert open_ints(ra, rb, P8) == 15
        assert sa.transcript.rounds == 1
        assert sa.transcript.ring_mults == 1

    def test_zero_annihilates(self):
        rng = np.random.default_rng(3)
        for y in (0, 1, 77, 255):
            xa, xb = split(0, P8, rng)
            ya, yb = split(y, P8, rng)
            ra, rb, *_ = protocol_pair(
                P8, lambda s: mul(s, xa.value, ya.value), lambda s: mul(s, xb.value, yb.value),
                seed=y,
            )
            assert open_ints(ra, rb, P8) == 0

    def test_exhaustive_full_ring_batched(self):
        """All 65536 operand pairs of the smallest ring in one batched call."""
        xs, ys = np.meshgrid(np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8))
        xs, ys = xs.ravel(), ys.ravel()
        rng = np.random.default_rng(11)
        xa, xb = split_array(xs, P8, rng)
        ya, yb = split_array(ys, P8, rng)
        ra, rb, sa, _ = protocol_pair(
            P8,
            lambda s: batch_mul(s, xa.values, ya.values),
            lambda s: batch_mul(s, xb.values, yb.values),
        )
        assert np.array_equal(ra + rb, xs * ys)
        assert sa.transcript.rounds == 1
        assert sa.transcript.ring_mults == 65536

    def test_random_wide_ring(self):
        rng = np.random.default_rng(13)
        xs = np.frombuffer(rng.bytes(8 * 10_000), dtype=np.uint64)
        ys = np.frombuffer(rng.bytes(8 * 10_000), dtype=np.uint64)
        xa, xb = split_array(xs, P64, rng)
        ya, yb = split_array(ys, P64, rng)
        ra, rb, *_ = protocol_pair(
            P64,
            lambda s: batch_mul(s, xa.values, ya.values),
            lambda s: batch_mul(s, xb.values, yb.values),
        )
        assert np.array_equal(ra + rb, xs * ys)


class TestMatmul:
    """Products against a MaskedMatrix; a many-column operand runs as one
    product per column, all against the one mask."""

    @staticmethod
    def columns(params, x, y, seed=0):
        rng = np.random.default_rng(seed)
        xa, xb = split_array(x, params, rng)
        ya, yb = split_array(y, params, rng)

        def side(xs, ys):
            def body(sess):
                mx = MaskedMatrix(xs.values)
                return np.hstack([matmul(sess, mx, ys.values[:, [k]])
                                  for k in range(ys.values.shape[1])])
            return body

        ra, rb, sa, _ = protocol_pair(params, side(xa, ya), side(xb, yb), seed=seed)
        return ra + rb, sa

    def test_identity(self):
        rng = np.random.default_rng(5)
        y = np.frombuffer(rng.bytes(32), dtype=np.uint64).reshape(2, 2).astype(P8.dtype)
        out, _ = self.columns(P8, np.eye(2, dtype=P8.dtype), y, seed=5)
        assert np.array_equal(out, y)

    def test_row_times_column(self):
        x = np.array([[1, 2]], dtype=P8.dtype)
        y = np.array([[4], [5]], dtype=P8.dtype)
        out, sa = self.columns(P8, x, y, seed=6)
        assert int(out[0, 0]) == 14
        assert sa.transcript.rounds == 1

    def test_dimension_mismatch_aborts(self):
        x = np.zeros((2, 2), dtype=P8.dtype)
        y = np.zeros((3, 1), dtype=P8.dtype)
        with pytest.raises(ProtocolError, match="dimension"):
            protocol_pair(P8, lambda s: matmul(s, MaskedMatrix(x), y),
                          lambda s: matmul(s, MaskedMatrix(x), y))

    def test_plain_operand_refused_before_randomness(self):
        empty = (MaterializedSource(P8), MaterializedSource(P8))
        x = np.zeros((1, 2), dtype=P8.dtype)
        y = np.zeros((2, 1), dtype=P8.dtype)
        with pytest.raises(ProtocolError, match="MaskedMatrix"):
            protocol_pair(P8, lambda s: matmul(s, x, y), lambda s: matmul(s, x, y),
                          sources=empty)

    def test_random_against_plain(self):
        rng = np.random.default_rng(8)
        x = np.frombuffer(rng.bytes(8 * 12), dtype=np.uint64).reshape(3, 4)
        y = np.frombuffer(rng.bytes(8 * 8), dtype=np.uint64).reshape(4, 2)
        out, sa = self.columns(P64, x, y, seed=8)
        assert np.array_equal(out, x @ y)
        assert sa.transcript.ring_mults == 3 * 4 * 2


class TestMaskedMatrix:
    @pytest.mark.parametrize("params", [P8, P64], ids=["ring8", "ring64"])
    def test_products_reuse_one_opening(self, params):
        """X·y1, Xᵀ·g and X·y2 against one mask: exact products, one round
        each, and only the first round carries X - U."""
        rng = np.random.default_rng(17)
        n, m = 4, 3

        def ring(*shape):
            raw = np.frombuffer(rng.bytes(8 * int(np.prod(shape))), dtype=np.uint64)
            return raw.astype(params.dtype).reshape(shape)

        x, y1, g, y2 = ring(n, m), ring(m, 1), ring(n), ring(m, 1)
        shares = [split_array(v, params, rng) for v in (x, y1, g, y2)]

        def side(idx):
            def body(sess):
                xs, a, b, c = (pair[idx].values for pair in shares)
                mx = MaskedMatrix(xs)
                out, sent = [], []
                for op, operand in ((matmul, a), (batch_mul, b), (matmul, c)):
                    before = sess.transcript.bytes_sent
                    out.append(op(sess, mx, operand))
                    sent.append(sess.transcript.bytes_sent - before)
                return out, sent
            return body

        (oa, sent_a), (ob, sent_b), sa, sb = protocol_pair(params, side(0), side(1), seed=5)
        assert np.array_equal(oa[0] + ob[0], x @ y1)
        assert np.array_equal(oa[1] + ob[1], x.T @ g)
        assert np.array_equal(oa[2] + ob[2], x @ y2)
        word, head = 8, FRAME_HEADER.size
        assert sent_a == sent_b == [head + word * (n * m + m), head + word * n, head + word * m]
        assert sa.transcript.rounds == sb.transcript.rounds == 3
        assert sa.transcript.ring_mults == 3 * n * m

    @pytest.mark.parametrize("params", [P16, P64], ids=["ring16", "ring64"])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 3), (225, 300)])
    def test_einsum_products_equal_matmul(self, params, shape):
        # the products and the dealer's W = U·V and Uᵀ·V run through einsum,
        # which wraps around the ring like @ does
        rng = np.random.default_rng(shape[1])
        n, m = shape
        u = random_ring_array(rng, params, (n, m))
        e, g = random_ring_array(rng, params, (m, 1)), random_ring_array(rng, params, (n, 1))
        forward, backward = np.einsum("ij,jk->ik", u, e), np.einsum("ij,ik->jk", u, g)
        assert forward.dtype == backward.dtype == params.dtype
        assert np.array_equal(forward, u @ e)
        assert np.array_equal(backward, u.T @ g)
        assert np.array_equal(np.einsum("ij,i->j", u, g[:, 0]), (u.T @ g)[:, 0])

    def test_dimension_mismatch_aborts_before_randomness(self):
        empty = (MaterializedSource(P8), MaterializedSource(P8))
        x = np.zeros((4, 3), dtype=P8.dtype)
        with pytest.raises(ProtocolError, match="dimension"):
            protocol_pair(P8, lambda s: matmul(s, MaskedMatrix(x), np.zeros((4, 1), P8.dtype)),
                          lambda s: matmul(s, MaskedMatrix(x), np.zeros((4, 1), P8.dtype)),
                          sources=empty)
        with pytest.raises(ProtocolError, match="dimension"):
            protocol_pair(P8, lambda s: batch_mul(s, MaskedMatrix(x), np.zeros(3, P8.dtype)),
                          lambda s: batch_mul(s, MaskedMatrix(x), np.zeros(3, P8.dtype)),
                          sources=empty)


class TestInnerProduct:
    """Inner products are the product of a masked (1, k) row by a (k, 1) column."""

    @staticmethod
    def dot(w, x, seed=0):
        out, sa = TestMatmul.columns(P64, np.reshape(w, (1, -1)).astype(P64.dtype),
                                     np.reshape(x, (-1, 1)).astype(P64.dtype), seed=seed)
        return int(out[0, 0]), sa

    def test_known_vectors(self):
        got, sa = self.dot([1, 2, 3], [4, 5, 6], seed=9)
        assert got == 32
        assert sa.transcript.rounds == 1
        assert sa.transcript.ring_mults == 3

    def test_zero_vector(self):
        assert self.dot(np.zeros(5), np.arange(5), seed=10)[0] == 0

    def test_length_one_equals_mul(self):
        rng = np.random.default_rng(12)
        xa, xb = split(9, P64, rng)
        ya, yb = split(31, P64, rng)
        m_a, m_b, *_ = protocol_pair(
            P64, lambda s: mul(s, xa.value, ya.value), lambda s: mul(s, xb.value, yb.value)
        )
        assert self.dot([9], [31], seed=12)[0] == open_ints(m_a, m_b, P64) == 9 * 31

    def test_length_mismatch(self):
        row, col = np.zeros((1, 2), dtype=P64.dtype), np.zeros((3, 1), dtype=P64.dtype)
        with pytest.raises(ProtocolError):
            protocol_pair(P64, lambda s: matmul(s, MaskedMatrix(row), col),
                          lambda s: matmul(s, MaskedMatrix(row), col))


class TestBatching:
    def test_batch_of_one_equals_mul(self):
        rng = np.random.default_rng(14)
        xa, xb = split(7, P8, rng)
        ya, yb = split(9, P8, rng)
        ra, rb, *_ = protocol_pair(
            P8,
            lambda s: batch_mul(s, np.array([xa.value], dtype=P8.dtype),
                                np.array([ya.value], dtype=P8.dtype)),
            lambda s: batch_mul(s, np.array([xb.value], dtype=P8.dtype),
                                np.array([yb.value], dtype=P8.dtype)),
        )
        assert open_ints(ra[0], rb[0], P8) == 63

    def test_rounds_independent_of_batch_size(self):
        rng = np.random.default_rng(15)
        for n in (1, 2048):
            xs = np.frombuffer(rng.bytes(8 * n), dtype=np.uint64)
            xa, xb = split_array(xs, P64, rng)
            _, _, sa, sb = protocol_pair(
                P64,
                lambda s: batch_mul(s, xa.values, xa.values),
                lambda s: batch_mul(s, xb.values, xb.values),
            )
            assert sa.transcript.rounds == sb.transcript.rounds == 1


class TestAndGate:
    @pytest.mark.parametrize("batch", [1, 63, 64, 65])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_exhaustive_inputs(self, k, batch):
        """Element j of run p holds input pattern p + j (mod 2^k), so every
        pattern meets every bit position; the shares are split at random."""
        rng = np.random.default_rng(100 * k + batch)
        for p in range(1 << k):
            patterns = (p + np.arange(batch)) % (1 << k)
            secret = pack_rows((patterns >> np.arange(k)[:, None] & 1).astype(np.uint8))
            share_b = pack_rows(rng.integers(0, 2, (k, batch), dtype=np.uint8))

            def gate(xs):
                def body(s):
                    rs = s.randomness.take_bit_triples(batch, k, rows=1)
                    return and_gates(s, [(xs[:, None], rs)], batch)[0]
                return body

            ra, rb, sa, _ = protocol_pair(P8, gate(secret ^ share_b), gate(share_b), seed=p)
            expect = (patterns == (1 << k) - 1).astype(np.uint8)
            assert unpack_rows(ra ^ rb, batch)[0].tolist() == expect.tolist()
            assert sa.transcript.rounds == 1
            assert sa.transcript.bytes_sent == FRAME_HEADER.size + 8 * k * word_count(batch)
            assert sa.transcript.bit_mults == (k - 1) * batch

    def test_gates_of_mixed_inputs_share_one_round(self):
        # a 4-input gate over two rows and a 2-input gate over one row
        batch = 5
        rng = np.random.default_rng(8)
        xs4 = pack_rows(rng.integers(0, 2, (8, batch), dtype=np.uint8)).reshape(4, 2, 1)
        xs2 = pack_rows(rng.integers(0, 2, (2, batch), dtype=np.uint8)).reshape(2, 1, 1)

        def side(alice):
            def body(s):
                rs4 = s.randomness.take_bit_triples(2 * batch, 4, rows=2)
                rs2 = s.randomness.take_bit_triples(batch, 2, rows=1)
                zero = np.zeros_like
                return and_gates(s, [(xs4 if alice else zero(xs4), rs4),
                                     (xs2 if alice else zero(xs2), rs2)], batch)
            return body

        ra, rb, sa, _ = protocol_pair(P8, side(True), side(False))
        assert np.array_equal(ra[0] ^ rb[0], np.bitwise_and.reduce(xs4, axis=0))
        assert np.array_equal(ra[1] ^ rb[1], xs2[0] & xs2[1])
        assert sa.transcript.rounds == 1
        assert sa.transcript.bit_mults == (3 * 2 + 1) * batch


class TestConversionWithFactor:
    @pytest.mark.parametrize("batch", [1, 63, 64, 65])
    @pytest.mark.parametrize("params", [P16, P64], ids=["ring16", "ring64"])
    @pytest.mark.parametrize("bit_a,bit_b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_row_0_comes_back_times_the_factor(self, bit_a, bit_b, params, batch):
        """Row 0 holds the shares bit_a and bit_b in every position and row 1
        random bits; the factor is 0, 1, -1 and 2^(ring - 1) in every
        position, then random values."""
        rng = np.random.default_rng(1000 * params.ring_bits + 10 * batch + 2 * bit_a + bit_b)
        row1 = rng.integers(0, 2, batch, dtype=np.uint8)
        share1 = rng.integers(0, 2, batch, dtype=np.uint8)
        rows_a = pack_rows(np.stack([np.full(batch, bit_a, np.uint8), share1]))
        rows_b = pack_rows(np.stack([np.full(batch, bit_b, np.uint8), share1 ^ row1]))
        edges = [0, 1, params.modulus - 1, params.modulus // 2]
        factors = [np.full(batch, f, dtype=params.dtype) for f in edges]
        factors.append(random_ring_array(rng, params, batch))
        for seed, factor in enumerate(factors):
            fa, fb = split_array(factor, params, rng)
            ra, rb, sa, sb = protocol_pair(
                params,
                lambda s: convert_bits_to_ring(s, rows_a, batch, fa.values),
                lambda s: convert_bits_to_ring(s, rows_b, batch, fb.values),
                seed=seed,
            )
            opened = ra + rb
            assert np.array_equal(opened[:batch], (bit_a ^ bit_b) * factor)
            assert np.array_equal(opened[batch:], row1.astype(params.dtype))
            for sess in (sa, sb):
                assert sess.transcript.rounds == 1
                assert (sess.transcript.ring_mults, sess.transcript.bit_mults) == (batch, 0)
            # the masked r - u and factor - v, then both rows of c
            assert sa.transcript.bytes_sent == (FRAME_HEADER.size
                                                + 8 * (2 * batch + 2 * word_count(batch)))

    def test_without_factor_sends_a_plain_conversions_frames(self):
        # digests of a conversion of two 65-bit rows before the factor existed,
        # moved since only by the daBits' new values of protocol version 12
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2, (2, 65), dtype=np.uint8)
        share = rng.integers(0, 2, (2, 65), dtype=np.uint8)
        rows_a, rows_b = pack_rows(share), pack_rows(bits ^ share)
        ra, rb, sa, sb = protocol_pair(P64, lambda s: convert_bits_to_ring(s, rows_a, 65),
                                       lambda s: convert_bits_to_ring(s, rows_b, 65), seed=8)
        assert np.array_equal(ra + rb, bits.reshape(-1).astype(P64.dtype))
        assert (sa.transcript.rounds, sa.transcript.ring_mults) == (1, 0)
        assert sa.transcript.bytes_sent == 45
        assert sa.transcript.sent_digest() == (
            "2c7980c301d2f2a3492349e47f7a3c9f2da51bdc0f9c9f600ea7783bd84aeb80")
        assert sb.transcript.sent_digest() == (
            "02d7b5d70c457aa80953044dd8927f7c5788cfec4e95d0c1d07f3975c1f84a99")


class TestBitOpenings:
    def test_longer_reply_rejected(self):
        # the peer answers a one-word opening with four words, with one word
        # and three bytes, or with nothing; a mixed opening of two ring words
        # and a 65-bit row (two words) with three words, five, or four and a half
        ring = lambda s: s.open(ring=[np.zeros(1, dtype=P8.dtype)])
        bits = lambda s: s.open(bits=[np.zeros((1, 1), dtype=np.uint64)])
        mixed = lambda s: s.open(ring=[np.zeros(2, dtype=P8.dtype)],
                                 bits=[np.zeros((1, 2), dtype=np.uint64)])
        for opening, reply, error in [
            (bits, bytes(32), "opening has 4 words, expected 1"),
            (bits, bytes(11), "11 bytes is not whole 64-bit words"),
            (ring, bytes(11), "11 bytes is not whole 64-bit words"),
            (ring, b"", "opening has 0 words, expected 1"),
            (mixed, bytes(24), "opening has 3 words, expected 4"),
            (mixed, bytes(40), "opening has 5 words, expected 4"),
            (mixed, bytes(36), "36 bytes is not whole 64-bit words"),
        ]:
            with pytest.raises(ProtocolError, match=error):
                protocol_pair(P8, opening, lambda s: s.exchange(MSG_OPEN, reply))

    def test_one_round_carries_ring_words_and_bit_rows(self):
        # ring tensors of two shapes and two bit matrices at batch 65, whose
        # rows each end in a partial word
        rng = np.random.default_rng(19)
        batch = 65
        vec = np.frombuffer(rng.bytes(8 * 3), dtype=np.uint64)
        mat = np.frombuffer(rng.bytes(8 * 6), dtype=np.uint64).reshape(2, 3)
        bit_a = pack_rows(rng.integers(0, 2, (3, batch), dtype=np.uint8))
        bit_b = pack_rows(rng.integers(0, 2, (1, batch), dtype=np.uint8))
        ring_shares = [split_array(v, P64, rng) for v in (vec, mat)]
        bit_masks = [pack_rows(rng.integers(0, 2, (len(m), batch), dtype=np.uint8))
                     for m in (bit_a, bit_b)]

        def side(idx):
            ring = [pair[idx].values for pair in ring_shares]
            bits = bit_masks if idx else [m ^ r for m, r in zip((bit_a, bit_b), bit_masks)]
            return lambda s: s.open(ring=ring, bits=bits)

        ra, rb, sa, _ = protocol_pair(P64, side(0), side(1))
        for got in (ra, rb):
            assert len(got) == 4
            assert np.array_equal(got[0], vec) and np.array_equal(got[1], mat)
            assert np.array_equal(got[2], bit_a) and np.array_equal(got[3], bit_b)
        assert sa.transcript.rounds == 1
        # 3 + 6 ring words, then 3 rows of 65 bits in 2 words each and one in 2
        assert sa.transcript.bytes_sent == FRAME_HEADER.size + 8 * (9 + 6 + 2)


class TestOpeningMemory:
    def test_each_party_copies_its_payload_once(self):
        # each party allocates its frame and its opened matrix and reads the
        # peer's words where they arrived, so the two peak at four payloads
        shape = (1024, 2048)
        payload = 8 * shape[0] * shape[1]  # 16 MB
        rng = np.random.default_rng(3)
        xa, xb = (np.frombuffer(rng.bytes(payload), dtype=np.uint64).reshape(shape)
                  for _ in range(2))
        sess_a, sess_b = local_session_pair(P64, seed=0)
        tracemalloc.start()
        try:
            ra, rb = run_sessions(sess_a, sess_b, lambda s: s.open(ring=[xa])[0],
                                  lambda s: s.open(ring=[xb])[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ra, xa + xb) and np.array_equal(rb, ra)
        assert peak <= 4.1 * payload, f"allocations peaked at {peak / payload:.2f}x the payload"


class TestRandomnessDiscipline:
    def test_exhaustion_is_fatal(self):
        dealer = TrustedDealer(1, P8)
        src_a, src_b = dealer.generate([(TAG_SCALAR, 1)])
        xa = np.array([1, 2], dtype=P8.dtype)
        with pytest.raises(RandomnessUnderflowError):
            protocol_pair(P8, lambda s: batch_mul(s, xa, xa), lambda s: batch_mul(s, xa, xa),
                          sources=(src_a, src_b))

    def test_empty_source(self):
        src = MaterializedSource(P8)
        with pytest.raises(RandomnessUnderflowError):
            src.take_bit_triples(1)


class TestExactTruncationOracle:
    def test_reconstructs_exact_quotient(self):
        oracle = ExactTruncationOracle(seed=3)
        rng = np.random.default_rng(16)
        secret = np.array([12345, (-777) % P64.modulus], dtype=P64.dtype)
        sa, sb = split_array(secret, P64, rng)
        from mpclr.local import run_pair

        ra, rb = run_pair(
            lambda: oracle.truncate(sa.values, Role.ALICE, P64),
            lambda: oracle.truncate(sb.values, Role.BOB, P64),
        )
        assert np.array_equal(ra + rb, exact_truncate(secret, P64))
