"""Additive secret sharing over Z_{2^lambda} and Z_2, plus the share-file format.

A secret x is held as two shares with x_A + x_B = x (mod 2^ring_bits); a bit
secret is the XOR of two bit shares.  Ring shares are numpy arrays of the
ring's unsigned dtype, whose arithmetic wraps modulo 2^ring_bits; bit shares
are packed uint64 word rows (see "Packed bit strings" below).  Addition,
subtraction, scaling by a public constant and adding a public constant are all
local; by convention role A is the party that absorbs public constants.
`RingShare` and `BitVectorShare` hold one value, for `split` and the `bitops`
single-value references.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FormatError
from .fixedpoint import FixedPointParams, RING_DTYPES

SHARE_MAGIC = b"SHR1"
_SHARE_HEADER = struct.Struct("<4sHHHQQ")


class Role(Enum):
    ALICE = "A"
    BOB = "B"


@dataclass(frozen=True)
class RingShare:
    value: int
    role: Role


@dataclass(frozen=True)
class BitVectorShare:
    """`n` bit shares packed LSB-first into one arbitrary-precision integer."""

    bits: int
    n: int
    role: Role


@dataclass
class VectorShare:
    """Share of a vector or matrix; `values` keeps the ring's unsigned dtype."""

    values: np.ndarray
    role: Role


def random_ring_array(rng: np.random.Generator, params: FixedPointParams, shape) -> np.ndarray:
    """Uniform ring elements drawn from a seeded generator; the same values
    as `np.frombuffer(rng.bytes(...))` over all of them, since
    `Generator.bytes(n)` is the little-endian bytes of ceil(n / 4) uint32
    draws cut to n."""
    dtype = params.dtype
    n = int(np.prod(shape)) if shape else 1
    words = rng.integers(0, 1 << 32, size=-(-n * np.dtype(dtype).itemsize // 4), dtype=np.uint32)
    return words.view(dtype)[:n].reshape(shape)


def split(x: int, params: FixedPointParams, rng: np.random.Generator):
    """Split one ring element into a uniform pair of additive shares."""
    r = int(random_ring_array(rng, params, ()) )
    return (
        RingShare(r & params.mask, Role.ALICE),
        RingShare((x - r) & params.mask, Role.BOB),
    )


def split_array(values: np.ndarray, params: FixedPointParams, rng: np.random.Generator):
    values = np.asarray(values, dtype=params.dtype)
    r = random_ring_array(rng, params, values.shape)
    return (
        VectorShare(r, Role.ALICE),
        VectorShare(values - r, Role.BOB),
    )


# ---------------------------------------------------------------------------
# Packed bit strings
#
# A bit string is a 1-d array of uint64 words, LSB first, padded with zero
# bits to a whole word.  A batch of bit strings of one length, such as every
# bit position of a batch of shared values, is a matrix with one such row per
# string, and frames and CRN1 files carry it as those word rows.  Contiguous
# strings live only inside the CRN1 records of the AND-triple pool, which is
# taken by count: a take hands its bits back as rows.
# ---------------------------------------------------------------------------


def word_count(nbits: int) -> int:
    """Words holding an `nbits`-bit string; an empty string still takes one."""
    return (nbits + 63) // 64 or 1


def tail_mask(nbits: int) -> np.uint64:
    """Mask of the bits an `nbits`-bit string uses in its last word."""
    return np.uint64((1 << (nbits - 1) % 64 + 1) - 1 if nbits else 0)


def ones_row(batch: int) -> np.ndarray:
    """The all-ones string of `batch` bits."""
    return pack_rows(np.ones((1, batch), dtype=np.uint8))[0]


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """(rows, batch) array of 0/1 bytes -> (rows, word_count(batch)) words."""
    rows, batch = bits.shape
    out = np.zeros((rows, 8 * word_count(batch)), dtype=np.uint8)
    out[:, :(batch + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view(np.uint64)


def unpack_rows(rows: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of `pack_rows`: the low `batch` bits of every row as 0/1 bytes."""
    raw = np.ascontiguousarray(rows, dtype=np.uint64).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=batch, bitorder="little")


def write_share_file(path, values: np.ndarray, params: FixedPointParams):
    """Write one party's share matrix: SHR1 header then row-major u64 words."""
    values = np.atleast_2d(np.asarray(values, dtype=params.dtype))
    rows, cols = values.shape
    header = _SHARE_HEADER.pack(
        SHARE_MAGIC, params.ring_bits, params.frac_bits, params.int_bits, rows, cols
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.astype(np.uint64).tobytes())


def read_input(path) -> bytes:
    """The bytes of the input file `path`; one that cannot be read is a
    FormatError that names it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None


def read_share_file(path):
    """Read a share file back as (values, params); verifies magic and size."""
    raw = read_input(path)
    if len(raw) < _SHARE_HEADER.size:
        raise FormatError(f"{path}: truncated share file header")
    magic, ring_bits, frac_bits, int_bits, rows, cols = _SHARE_HEADER.unpack_from(raw)
    if magic != SHARE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {SHARE_MAGIC!r}")
    if ring_bits not in RING_DTYPES:
        raise FormatError(f"{path}: unsupported ring width {ring_bits}")
    body = raw[_SHARE_HEADER.size:]
    expected = rows * cols * 8
    if len(body) != expected:
        raise FormatError(f"{path}: payload is {len(body)} bytes, expected {expected}")
    try:
        params = FixedPointParams(frac_bits=frac_bits, int_bits=int_bits, ring_bits=ring_bits)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid precision: {exc}") from None
    words = np.frombuffer(body, dtype=np.uint64).reshape(rows, cols)
    return words.astype(params.dtype), params
