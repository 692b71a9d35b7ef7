"""Fixed-point encoding of reals into the ring Z_{2^lambda}.

A real x is stored as an unsigned ring element with `frac_bits` fractional
bits, `int_bits` integer bits and two's complement for negatives:

    encode(x) = floor(2^frac_bits * x)            if x >= 0
    encode(x) = 2^ring_bits - floor(2^frac_bits * |x|)   otherwise

Truncation divides a shared value by 2^frac_bits; each party applies a purely
local rule to its own share, which reconstructs to the exact quotient up to
one unit in the last place except with probability ~2^(frac_bits+1-ring_bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError

# Ring widths map 1:1 onto machine words so arithmetic wraps for free.
RING_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}
SIGNED_DTYPES = {8: np.int8, 16: np.int16, 32: np.int32, 64: np.int64}


@dataclass(frozen=True)
class FixedPointParams:
    """Precision configuration shared by every protocol in a session.

    frac_bits: number of fractional bits (the scale is 2**frac_bits)
    int_bits:  number of integer bits; representable magnitudes are < 2**int_bits
    ring_bits: total ring width; the modulus is 2**ring_bits
    """

    frac_bits: int = 12
    int_bits: int = 15
    ring_bits: int = 64

    def __post_init__(self):
        if self.ring_bits not in RING_DTYPES:
            raise ValueError(f"ring_bits must be one of {sorted(RING_DTYPES)}, got {self.ring_bits}")
        if self.frac_bits < 1 or self.int_bits < 1:
            raise ValueError("frac_bits and int_bits must both be >= 1")
        if self.ring_bits < 2 * (self.frac_bits + self.int_bits):
            raise ValueError(
                f"ring_bits must be at least 2*(frac_bits+int_bits)="
                f"{2 * (self.frac_bits + self.int_bits)}, got {self.ring_bits}"
            )

    @property
    def modulus(self) -> int:
        return 1 << self.ring_bits

    @property
    def mask(self) -> int:
        return (1 << self.ring_bits) - 1

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def dtype(self):
        return RING_DTYPES[self.ring_bits]

    @property
    def signed_dtype(self):
        return SIGNED_DTYPES[self.ring_bits]

    @property
    def ulp(self) -> float:
        """Grid step of the fixed-point representation."""
        return 2.0 ** -self.frac_bits


def encode(x: float, params: FixedPointParams) -> int:
    """Encode one real into a ring element, flooring the magnitude."""
    if not abs(x) < (1 << params.int_bits):
        raise RangeError(
            f"value {x!r} out of range: |x| must be < 2^{params.int_bits} = {1 << params.int_bits}"
        )
    mag = math.floor(params.scale * abs(x))
    if x < 0:
        return (params.modulus - mag) & params.mask
    return mag


def encode_array(xs, params: FixedPointParams) -> np.ndarray:
    """Vector form of :func:`encode`; returns the ring's unsigned dtype."""
    xs = np.asarray(xs, dtype=np.float64)
    bad = ~(np.abs(xs) < (1 << params.int_bits))
    if bad.any():
        idx = int(np.argmax(bad))
        raise RangeError(
            f"value {xs.flat[idx]!r} out of range: |x| must be < 2^{params.int_bits}"
        )
    mags = np.floor(params.scale * np.abs(xs)).astype(np.int64)
    signed = np.where(xs < 0, -mags, mags)
    return signed.astype(params.signed_dtype).view(params.dtype)


def to_signed(v, params: FixedPointParams):
    """Reinterpret ring element(s) as two's-complement signed integers."""
    if isinstance(v, np.ndarray):
        return v.view(params.signed_dtype)
    v &= params.mask
    if v >= params.modulus // 2:
        return v - params.modulus
    return v


def decode(v: int, params: FixedPointParams) -> float:
    """Decode a ring element back to a real; the top bit carries the sign."""
    return to_signed(int(v), params) / params.scale


def decode_array(vs: np.ndarray, params: FixedPointParams) -> np.ndarray:
    return to_signed(np.asarray(vs, dtype=params.dtype), params).astype(np.float64) / params.scale


def truncate_share_local(share, role, params: FixedPointParams):
    """Locally truncate one party's share by the fractional scale.

    Role A floors its share; role B negates, floors, and negates again
    (all modulo 2^ring_bits).  The reconstruction equals the floored secret
    up to 1 ulp except when the hidden mask straddles the ring boundary,
    which happens with probability about 2^(frac_bits+1-ring_bits).
    """
    a = params.frac_bits
    from .sharing import Role  # local import avoids a module cycle

    if isinstance(share, np.ndarray):
        share = share.astype(params.dtype, copy=False)
        if role is Role.ALICE:
            return share >> params.dtype(a)
        neg = np.negative(share)
        return np.negative(neg >> params.dtype(a))
    share = int(share) & params.mask
    if role is Role.ALICE:
        return share >> a
    neg = (params.modulus - share) & params.mask
    return (params.modulus - (neg >> a)) & params.mask


def exact_truncate(v, params: FixedPointParams):
    """Plaintext reference truncation: floor(signed(v) / 2^frac_bits) in the ring."""
    a = params.frac_bits
    if isinstance(v, np.ndarray):
        return (v.view(params.signed_dtype) >> params.signed_dtype(a)).view(params.dtype)
    s = to_signed(int(v), params)
    return (s >> a) & params.mask
