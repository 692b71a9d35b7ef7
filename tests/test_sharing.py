import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpclr import FixedPointParams, ProtocolError, RingShare, Role
from mpclr.errors import FormatError
from mpclr.sharing import (
    BitVectorShare,
    affine_combine,
    int_to_words,
    open_bits,
    open_shares,
    read_share_file,
    split,
    split_array,
    split_bits,
    words_to_int,
    write_share_file,
)

from helpers import ForcedBytesRng

P8 = FixedPointParams(frac_bits=2, int_bits=2, ring_bits=8)
P64 = FixedPointParams(frac_bits=12, int_bits=15, ring_bits=64)


class TestSplitOpen:
    def test_split_forced_randomness(self):
        sa, sb = split(5, P8, ForcedBytesRng(3))
        assert (sa.value, sb.value) == (3, 2)
        assert (sa.role, sb.role) == (Role.ALICE, Role.BOB)

    def test_split_zero_with_zero_mask(self):
        sa, sb = split(0, P8, ForcedBytesRng(0))
        assert (sa.value, sb.value) == (0, 0)

    def test_open(self):
        assert open_shares(RingShare(3, Role.ALICE), RingShare(2, Role.BOB), P8) == 5

    def test_open_wraparound(self):
        assert open_shares(RingShare(255, Role.ALICE), RingShare(1, Role.BOB), P8) == 0

    def test_open_zero_share(self):
        assert open_shares(RingShare(0, Role.ALICE), RingShare(77, Role.BOB), P8) == 77

    def test_open_role_mismatch(self):
        with pytest.raises(ProtocolError):
            open_shares(RingShare(1, Role.ALICE), RingShare(2, Role.ALICE), P8)

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
    def _shared(self, x, rng):
        return split(x, P8, rng)

    def test_addition(self):
        rng = np.random.default_rng(1)
        xa, xb = self._shared(3, rng)
        ya, yb = self._shared(4, rng)
        ra = affine_combine(0, [(1, xa), (1, ya)], P8)
        rb = affine_combine(0, [(1, xb), (1, yb)], P8)
        assert open_shares(ra, rb, P8) == 7

    def test_subtraction(self):
        rng = np.random.default_rng(2)
        xa, xb = self._shared(3, rng)
        ya, yb = self._shared(4, rng)
        minus_one = P8.modulus - 1
        ra = affine_combine(0, [(1, xa), (minus_one, ya)], P8)
        rb = affine_combine(0, [(1, xb), (minus_one, yb)], P8)
        assert open_shares(ra, rb, P8) == P8.modulus - 1

    def test_constant_add_only_alice(self):
        ra = affine_combine(5, [(1, RingShare(0, Role.ALICE))], P8)
        rb = affine_combine(5, [(1, RingShare(0, Role.BOB))], P8)
        assert ra.value == 5 and rb.value == 0
        assert open_shares(ra, rb, P8) == 5

    def test_mixed_roles_rejected(self):
        with pytest.raises(ProtocolError):
            affine_combine(0, [(1, RingShare(1, Role.ALICE)), (1, RingShare(2, Role.BOB))], P8)

    @given(
        st.integers(min_value=0, max_value=2 ** 64 - 1),
        st.integers(min_value=0, max_value=2 ** 64 - 1),
        st.integers(min_value=0, max_value=2 ** 64 - 1),
        st.integers(min_value=0, max_value=2 ** 32),
    )
    @settings(max_examples=200)
    def test_affine_homomorphism(self, x, y, c, c0):
        rng = np.random.default_rng(x % 7919)
        xa, xb = split(x, P64, rng)
        ya, yb = split(y, P64, rng)
        ra = affine_combine(c0, [(c, xa), (1, ya)], P64)
        rb = affine_combine(c0, [(c, xb), (1, yb)], P64)
        assert open_shares(ra, rb, P64) == (c0 + c * x + y) % P64.modulus


class TestBits:
    def test_split_open_bits(self):
        rng = np.random.default_rng(0)
        for bits in (0b0, 0b1011, (1 << 64) - 1, 0b1 << 127):
            ba, bb = split_bits(bits, 128, rng)
            assert open_bits(ba, bb) == bits

    def test_bit_at_is_lsb_first(self):
        share = BitVectorShare(0b1010, 4, Role.ALICE)
        assert [share.bit_at(i) for i in (1, 2, 3, 4)] == [0, 1, 0, 1]

    def test_word_packing_round_trip(self):
        for n in (1, 63, 64, 65, 130):
            bits = (0xDEADBEEFCAFEF00D * 0x9E3779B9) & ((1 << n) - 1)
            words = int_to_words(bits, n)
            assert words.dtype == np.uint64 and len(words) == -(-n // 64)
            assert words_to_int(words, n) == bits

    def test_length_mismatch(self):
        with pytest.raises(ProtocolError):
            open_bits(BitVectorShare(0, 4, Role.ALICE), BitVectorShare(0, 5, Role.BOB))


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

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.shr"
        write_share_file(path, np.zeros((2, 2), dtype=P64.dtype), P64)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_share_file(path)
