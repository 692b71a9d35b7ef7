import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpclr import FixedPointParams, RangeError, Role, decode, encode
from mpclr.fixedpoint import (
    decode_array,
    encode_array,
    exact_truncate,
    to_signed,
    truncate_share_local,
)

P64 = FixedPointParams(frac_bits=12, int_bits=15, ring_bits=64)
P16 = FixedPointParams(frac_bits=4, int_bits=3, ring_bits=16)


def truncation_ring(lam: int, frac_bits: int):
    """Bare ring view for exercising the truncation rule at (a, lambda)
    combinations the training params type would reject."""
    import types

    from mpclr.fixedpoint import RING_DTYPES, SIGNED_DTYPES

    return types.SimpleNamespace(
        frac_bits=frac_bits,
        ring_bits=lam,
        modulus=1 << lam,
        mask=(1 << lam) - 1,
        dtype=RING_DTYPES[lam],
        signed_dtype=SIGNED_DTYPES[lam],
    )


class TestEncodeDecode:
    def test_zero(self):
        assert encode(0.0, P64) == 0
        assert decode(0, P64) == 0.0

    def test_one(self):
        assert encode(1.0, P64) == 4096

    def test_negative_half(self):
        assert encode(-0.5, P64) == 2 ** 64 - 2048
        assert decode(2 ** 64 - 2048, P64) == -0.5

    def test_decode_one(self):
        assert decode(4096, P64) == 1.0

    def test_floor_on_magnitude(self):
        # flooring applies to |x|, matching the two's-complement formula
        assert encode(0.30005, P16) == 4            # floor(16*0.30005) = 4
        assert encode(-0.30005, P16) == 2 ** 16 - 4

    def test_out_of_range(self):
        with pytest.raises(RangeError, match=r"2\^15"):
            encode(40000.0, P64)
        with pytest.raises(RangeError):
            encode(-8.0, P16)
        with pytest.raises(RangeError, match="nan"):
            encode_array([0.0, float("nan")], P16)

    def test_array_matches_scalar(self):
        xs = [0.0, 1.0, -0.5, 3.25, -2.75]
        enc = encode_array(xs, P16)
        assert [int(v) for v in enc] == [encode(x, P16) for x in xs]
        assert decode_array(enc, P16).tolist() == xs

    @given(st.integers(min_value=-(2 ** 7) + 1, max_value=2 ** 7 - 1))
    @settings(max_examples=300)
    def test_round_trip_on_grid(self, k):
        x = k / P16.scale  # every representable grid point: |x| < 2^int_bits
        assert decode(encode(x, P16), P16) == x

    @given(
        st.integers(min_value=-(2 ** 6) + 1, max_value=2 ** 6 - 1),
        st.integers(min_value=-(2 ** 6) + 1, max_value=2 ** 6 - 1),
    )
    @settings(max_examples=300)
    def test_encode_homomorphism(self, ka, kb):
        x, y = ka / P16.scale, kb / P16.scale
        lhs = (encode(x, P16) + encode(y, P16)) % P16.modulus
        assert lhs == encode(x + y, P16)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FixedPointParams(frac_bits=12, int_bits=15, ring_bits=32)  # < 2(a+b)
        with pytest.raises(ValueError):
            FixedPointParams(frac_bits=12, int_bits=15, ring_bits=48)  # not a word
        with pytest.raises(ValueError):
            FixedPointParams(frac_bits=0, int_bits=2, ring_bits=8)
        with pytest.raises(ValueError):
            FixedPointParams(frac_bits=31, int_bits=31, ring_bits=64)  # a+b+2 > lambda


def open_truncated(share_a, share_b, params):
    ta = truncate_share_local(share_a, Role.ALICE, params)
    tb = truncate_share_local(share_b, Role.BOB, params)
    return (int(ta) + int(tb)) % params.modulus


class TestTruncation:
    def test_known_split(self):
        # z = 48 split as (z + r, -r) with small mask r = 100
        params = P16
        z, r = 48, 100
        share_a = (z + r) % params.modulus
        share_b = (params.modulus - r) % params.modulus
        assert open_truncated(share_a, share_b, params) == 3

    def test_zero_bob_share_is_exact(self):
        assert open_truncated(48, 0, P16) == 3

    def test_exact_truncate_signed(self):
        assert exact_truncate(48, P16) == 3
        neg = (-48) % P16.modulus
        assert to_signed(exact_truncate(neg, P16), P16) == -3
        arr = np.array([48, (-48) % P16.modulus], dtype=P16.dtype)
        out = exact_truncate(arr, P16).view(P16.signed_dtype)
        assert out.tolist() == [3, -3]

    def test_closeness_exhaustive_small_ring(self):
        """Exhaustive secrets of magnitude < 2^(a+2) with 100 random splits:
        within 1 ulp whenever the hidden mask avoids the ring boundary, and
        the boundary (wrap) frequency sits within 3 sigma of 2^(a+1-lambda)."""
        params = P16
        a = params.frac_bits
        rng = np.random.default_rng(99)
        splits = 100
        secrets = np.arange(-(1 << (a + 2)), 1 << (a + 2), dtype=np.int64)
        wraps = 0
        total = 0
        for z in secrets:
            zr = int(z) % params.modulus
            ra = rng.integers(0, params.modulus, size=splits, dtype=np.uint64).astype(params.dtype)
            sa = ra
            sb = (params.dtype(zr) - ra).astype(params.dtype)
            ta = truncate_share_local(sa, Role.ALICE, params)
            tb = truncate_share_local(sb, Role.BOB, params)
            got = (ta + tb).view(params.signed_dtype).astype(np.int64)
            exact = int(z) >> a
            # a wrap happened iff the implicit mask 2^lambda - s_b is within |z| of the boundary
            mask_vals = (params.modulus - sb.astype(np.int64)) % params.modulus
            if z >= 0:
                wrapped = mask_vals > params.modulus - int(z) - 1
            else:
                wrapped = mask_vals < -int(z)
            ok = np.abs(got - exact) <= 1
            assert np.all(ok | wrapped), f"non-wrap trial off by more than 1 ulp at z={z}"
            wraps += int(wrapped.sum())
            total += splits
        rate = wraps / total
        expected = 2.0 ** (a + 1 - params.ring_bits)
        sigma = (expected * (1 - expected) / total) ** 0.5
        assert abs(rate - expected) <= 3 * sigma, (rate, expected)

    def test_failure_statistics(self):
        """10^5 trials at lambda=16, a=8: |error| <= 1 except in a fraction of
        trials within 3 sigma of 2^-7."""
        # a=8 at lambda=16 is outside the 2(a+b) headroom the params type
        # enforces for training, but the local rule only depends on (a, lambda)
        params = truncation_ring(lam=16, frac_bits=8)
        trials = 100_000
        rng = np.random.default_rng(7)
        z = rng.integers(-(1 << 10), 1 << 10, size=trials, dtype=np.int64)
        ra = rng.integers(0, params.modulus, size=trials, dtype=np.uint64).astype(params.dtype)
        sb = (np.asarray(z % params.modulus, dtype=np.uint64).astype(params.dtype) - ra)
        ta = truncate_share_local(ra, Role.ALICE, params)
        tb = truncate_share_local(sb, Role.BOB, params)
        got = (ta + tb).view(params.signed_dtype).astype(np.int64)
        failures = np.abs(got - (z >> params.frac_bits)) > 1
        rate = failures.mean()
        expected = 2.0 ** (params.frac_bits + 1 - 16)
        sigma = (expected * (1 - expected) / trials) ** 0.5
        assert abs(rate - expected) <= 3 * sigma, (rate, expected)
