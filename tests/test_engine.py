import numpy as np
import pytest

from mpclr import (
    ExactTruncationOracle,
    FixedPointParams,
    ProtocolError,
    RandomnessUnderflowError,
    Role,
)
from mpclr.engine import MaskedMatrix, batch_bit_mul, batch_mul, inner_product, matmul, mul
from mpclr.fixedpoint import exact_truncate
from mpclr.randomness import MaterializedSource, TrustedDealer, TAG_SCALAR
from mpclr.transport import FRAME_HEADER
from mpclr.sharing import split, split_array

from helpers import forced_scalar_source, protocol_pair

P8 = FixedPointParams(frac_bits=2, int_bits=2, ring_bits=8)
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
    def test_identity(self):
        rng = np.random.default_rng(5)
        y = np.frombuffer(rng.bytes(32), dtype=np.uint64).reshape(2, 2).astype(P8.dtype)
        eye = np.eye(2, dtype=P8.dtype)
        xa, xb = split_array(eye, P8, rng)
        ya, yb = split_array(y, P8, rng)
        ra, rb, *_ = protocol_pair(
            P8, lambda s: matmul(s, xa.values, ya.values), lambda s: matmul(s, xb.values, yb.values)
        )
        assert np.array_equal(ra + rb, y)

    def test_row_times_column(self):
        rng = np.random.default_rng(6)
        x = np.array([[1, 2]], dtype=P8.dtype)
        y = np.array([[4], [5]], dtype=P8.dtype)
        xa, xb = split_array(x, P8, rng)
        ya, yb = split_array(y, P8, rng)
        ra, rb, sa, _ = protocol_pair(
            P8, lambda s: matmul(s, xa.values, ya.values), lambda s: matmul(s, xb.values, yb.values)
        )
        assert open_ints(ra[0, 0], rb[0, 0], P8) == 14
        assert sa.transcript.rounds == 1

    def test_dimension_mismatch_aborts(self):
        x = np.zeros((2, 2), dtype=P8.dtype)
        y = np.zeros((3, 1), dtype=P8.dtype)
        with pytest.raises(ProtocolError, match="dimension"):
            protocol_pair(P8, lambda s: matmul(s, x, y), lambda s: matmul(s, x, y))

    def test_random_against_plain(self):
        rng = np.random.default_rng(8)
        x = np.frombuffer(rng.bytes(8 * 12), dtype=np.uint64).reshape(3, 4)
        y = np.frombuffer(rng.bytes(8 * 8), dtype=np.uint64).reshape(4, 2)
        xa, xb = split_array(x, P64, rng)
        ya, yb = split_array(y, P64, rng)
        ra, rb, sa, _ = protocol_pair(
            P64, lambda s: matmul(s, xa.values, ya.values), lambda s: matmul(s, xb.values, yb.values)
        )
        assert np.array_equal(ra + rb, x @ y)
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
    def test_known_vectors(self):
        rng = np.random.default_rng(9)
        w = np.array([1, 2, 3], dtype=P64.dtype)
        x = np.array([4, 5, 6], dtype=P64.dtype)
        wa, wb = split_array(w, P64, rng)
        xa, xb = split_array(x, P64, rng)
        ra, rb, sa, _ = protocol_pair(
            P64,
            lambda s: inner_product(s, wa.values, xa.values),
            lambda s: inner_product(s, wb.values, xb.values),
        )
        assert open_ints(ra, rb, P64) == 32
        assert sa.transcript.rounds == 1
        assert sa.transcript.ring_mults == 3

    def test_zero_vector(self):
        rng = np.random.default_rng(10)
        w = np.zeros(5, dtype=P64.dtype)
        x = np.arange(5, dtype=P64.dtype)
        wa, wb = split_array(w, P64, rng)
        xa, xb = split_array(x, P64, rng)
        ra, rb, *_ = protocol_pair(
            P64,
            lambda s: inner_product(s, wa.values, xa.values),
            lambda s: inner_product(s, wb.values, xb.values),
        )
        assert open_ints(ra, rb, P64) == 0

    def test_length_one_equals_mul(self):
        rng = np.random.default_rng(12)
        xa, xb = split(9, P64, rng)
        ya, yb = split(31, P64, rng)
        ip_a, ip_b, *_ = protocol_pair(
            P64,
            lambda s: inner_product(s, np.array([xa.value], dtype=P64.dtype),
                                    np.array([ya.value], dtype=P64.dtype)),
            lambda s: inner_product(s, np.array([xb.value], dtype=P64.dtype),
                                    np.array([yb.value], dtype=P64.dtype)),
        )
        m_a, m_b, *_ = protocol_pair(
            P64, lambda s: mul(s, xa.value, ya.value), lambda s: mul(s, xb.value, yb.value)
        )
        assert open_ints(ip_a, ip_b, P64) == open_ints(m_a, m_b, P64) == 9 * 31

    def test_length_mismatch(self):
        with pytest.raises(ProtocolError):
            protocol_pair(
                P64,
                lambda s: inner_product(s, np.zeros(2, dtype=P64.dtype), np.zeros(3, dtype=P64.dtype)),
                lambda s: inner_product(s, np.zeros(2, dtype=P64.dtype), np.zeros(3, dtype=P64.dtype)),
            )


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

    def test_bit_batch_is_bitwise_and(self):
        # secrets 1010 and 1100 -> 1000
        ra, rb, sa, _ = protocol_pair(
            P8,
            lambda s: batch_bit_mul(s, 0b1010, 0b1100, 4),
            lambda s: batch_bit_mul(s, 0b0000, 0b0000, 4),
        )
        assert (ra ^ rb) == 0b1000
        assert sa.transcript.bit_mults == 4

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
