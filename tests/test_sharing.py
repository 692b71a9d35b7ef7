import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpclr import FixedPointParams, ProtocolError, Role
from mpclr.errors import FormatError
from mpclr.sharing import (
    pack_rows,
    random_ring_array,
    read_share_file,
    split,
    split_array,
    unpack_rows,
    write_share_file,
)

from helpers import ForcedBytesRng, protocol_pair

P8 = FixedPointParams(frac_bits=2, int_bits=2, ring_bits=8)
P64 = FixedPointParams(frac_bits=12, int_bits=15, ring_bits=64)


def open_ring(a, b, params=P8):
    """Open the ring shares a and b through one `Session.open` round."""
    def side(share):
        share = np.atleast_1d(np.asarray(share, dtype=params.dtype))
        return lambda s: s.open(ring=[(share, np.zeros_like(share))])

    [ra], [rb], *_ = protocol_pair(params, side(a), side(b))
    assert ra == rb
    return int(ra[0])


class TestSplitOpen:
    def test_split_forced_randomness(self):
        sa, sb = split(5, P8, ForcedBytesRng(3))
        assert (sa.value, sb.value) == (3, 2)
        assert (sa.role, sb.role) == (Role.ALICE, Role.BOB)

    def test_split_zero_with_zero_mask(self):
        sa, sb = split(0, P8, ForcedBytesRng(0))
        assert (sa.value, sb.value) == (0, 0)

    def test_open(self):
        assert open_ring(3, 2) == 5

    def test_open_wraparound(self):
        assert open_ring(255, 1) == 0

    def test_open_zero_share(self):
        assert open_ring(0, 77) == 77

    def test_share_marginal_is_uniform(self):
        """Splitting a fixed secret 10^4 times leaves one share uniform."""
        rng = np.random.default_rng(5)
        counts = np.zeros(256, dtype=np.int64)
        for _ in range(100):
            sa, _ = split_array(np.ones(100, dtype=P8.dtype), P8, rng)
            counts += np.bincount(sa.values, minlength=256)
        total = counts.sum()
        expected = total / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 255 dof: mean 255, sigma ~22.6; 330 is past the p=0.001 quantile
        assert chi2 < 330, chi2


class TestAffine:
    """Local affine maps on ring-array shares open to the same map of the
    secrets: the ring dtype wraps modulo 2^ring_bits, and only role A adds a
    public constant."""

    def test_addition(self):
        rng = np.random.default_rng(1)
        xa, xb = split_array([3], P8, rng)
        ya, yb = split_array([4], P8, rng)
        assert open_ring(xa.values + ya.values, xb.values + yb.values) == 7

    def test_subtraction(self):
        rng = np.random.default_rng(2)
        xa, xb = split_array([3], P8, rng)
        ya, yb = split_array([4], P8, rng)
        assert open_ring(xa.values - ya.values, xb.values - yb.values) == P8.modulus - 1

    def test_constant_add_only_alice(self):
        rng = np.random.default_rng(3)
        xa, xb = split_array([0], P8, rng)
        assert open_ring(xa.values + P8.dtype(5), xb.values) == 5

    @given(
        st.integers(min_value=0, max_value=2 ** 64 - 1),
        st.integers(min_value=0, max_value=2 ** 64 - 1),
        st.integers(min_value=0, max_value=2 ** 64 - 1),
        st.integers(min_value=0, max_value=2 ** 32),
    )
    @settings(max_examples=200)
    def test_affine_homomorphism(self, x, y, c, c0):
        rng = np.random.default_rng(x % 7919)
        xa, xb = split_array([x], P64, rng)
        ya, yb = split_array([y], P64, rng)
        ring_c, ring_c0 = P64.dtype(c), P64.dtype(c0)
        ra = ring_c0 + ring_c * xa.values + ya.values
        rb = ring_c * xb.values + yb.values
        assert int((ra + rb)[0]) == (c0 + c * x + y) % P64.modulus


class TestBits:
    def test_split_open_bits(self):
        rng = np.random.default_rng(0)
        for bits in (0b0, 0b1011, (1 << 64) - 1, 0b1 << 127):
            row = np.frombuffer(bits.to_bytes(16, "little"), dtype=np.uint64).reshape(1, 2)
            mask = rng.integers(0, 1 << 64, (1, 2), dtype=np.uint64)
            ra, rb, *_ = protocol_pair(
                P8,
                lambda s: s.open(bits=[(mask, np.zeros_like(mask))])[0],
                lambda s: s.open(bits=[(row, mask)])[0],
            )
            assert np.array_equal(ra, row) and np.array_equal(rb, row)

    def test_bit_at_is_lsb_first(self):
        rows = np.array([[0b1010]], dtype=np.uint64)
        assert unpack_rows(rows, 4).tolist() == [[0, 1, 0, 1]]

    def test_word_packing_round_trip(self):
        rng = np.random.default_rng(4)
        for n in (1, 63, 64, 65, 130):
            bits = rng.integers(0, 2, (1, n), dtype=np.uint8)
            words = pack_rows(bits)
            assert words.dtype == np.uint64 and words.shape == (1, -(-n // 64))
            assert np.array_equal(unpack_rows(words, n), bits)

    def test_length_mismatch(self):
        # a 64-bit row is one word and a 65-bit row two, so each side's
        # reply has the wrong length
        with pytest.raises(ProtocolError):
            protocol_pair(
                P8,
                lambda s: s.open(bits=[(np.zeros((1, 1), dtype=np.uint64),) * 2]),
                lambda s: s.open(bits=[(np.zeros((1, 2), dtype=np.uint64),) * 2]),
            )


class TestDraws:
    @pytest.mark.parametrize("ring_bits", [8, 16, 32, 64])
    def test_ring_array_equals_bytes_draw(self, ring_bits):
        params = FixedPointParams(frac_bits=2, int_bits=2, ring_bits=ring_bits)
        rng, ref = np.random.default_rng(ring_bits), np.random.default_rng(ring_bits)
        for shape in [(3,), (), (2, 5), (7,)]:
            n = int(np.prod(shape))
            want = np.frombuffer(ref.bytes(n * params.dtype().itemsize), dtype=params.dtype)
            got = random_ring_array(rng, params, shape)
            assert got.dtype == params.dtype and got.shape == shape
            assert np.array_equal(got.reshape(-1), want)


class TestShareFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.shr"
        values = np.arange(12, dtype=P64.dtype).reshape(3, 4) * P64.dtype(9973)
        write_share_file(path, values, P64)
        got, params = read_share_file(path)
        assert params == P64
        assert np.array_equal(got, values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.shr"
        write_share_file(path, np.zeros((1, 2), dtype=P64.dtype), P64)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="magic"):
            read_share_file(path)

    def test_invalid_precision(self, tmp_path):
        path = tmp_path / "m.shr"
        write_share_file(path, np.zeros((1, 2), dtype=P64.dtype), P64)
        raw = bytearray(path.read_bytes())
        raw[6:8] = (0).to_bytes(2, "little")  # frac_bits, after magic and ring width
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="m.shr: invalid precision"):
            read_share_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.shr"
        write_share_file(path, np.zeros((2, 2), dtype=P64.dtype), P64)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_share_file(path)
