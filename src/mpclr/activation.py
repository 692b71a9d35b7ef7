"""Secure evaluation of the clipped-ReLU activation over ring shares.

The activation rho(v) is 0 below -1/2, v + 1/2 in between, and 1 from 1/2 up.
Rather than running comparison protocols, the shifted value z' = z + 1/2 is
partially bit-decomposed.  Two bits follow from its fractional, integer and
sign bits, a + b + 1 of them: d = 1 iff 0 <= z' < 1, which the
decomposition's zero test gives without computing any sum bit, and e = 1
iff z' >= 1, from d and the sign bit.  Then rho = e * 2^a + d * z'.  The
decomposition with its zero test takes 5 rounds at the default 12/15
precision: its setup round opens each party's own bits and the AND of each
pair of them, and finishes the carry network's first layer from one-sided
products, and 4 network rounds follow.  One
more round converts both bits to ring shares and also returns the product
d * z', which runs against d's own daBits: the conversion's frame opens z'
masked once beside the two bit rows.  Inputs
must satisfy |decode(z)| < 2^(int_bits - 1) so the shifted value never
spills past the masked field.  `batch_activate` is the only secure entry
point; a single value is a batch of one.

`or_tree_slices` and `batch_mul` are imported but not called here: the
benchmark's tracer wraps `mpclr.activation.or_tree_slices` and
`mpclr.activation.batch_mul` by name.
"""

from __future__ import annotations

import numpy as np

from .bitops import decompose_batch_slices, or_tree_slices  # noqa: F401
from .engine import Session, batch_mul, convert_bits_to_ring  # noqa: F401
from .fixedpoint import FixedPointParams
from .sharing import ones_row


def clipped_relu(v):
    """Plain-float activation used by cleartext training and oracles."""
    return np.clip(np.asarray(v, dtype=np.float64) + 0.5, 0.0, 1.0)


def clipped_relu_fixed(z, params: FixedPointParams):
    """Fixed-point activation on ring element(s), exact on the value grid."""
    z = np.atleast_1d(np.asarray(z, dtype=params.dtype))
    s = z.view(params.signed_dtype)
    half = params.scale // 2
    shifted = (z + params.dtype(half)).astype(params.dtype)
    out = np.where(s < -half, params.dtype(0),
                   np.where(s >= half, params.dtype(params.scale), shifted))
    return out.astype(params.dtype)


def batch_activate(sess: Session, zs: np.ndarray) -> np.ndarray:
    """Elementwise activation over a shared vector; rounds are independent of
    the batch size."""
    params = sess.params
    zs = np.atleast_1d(np.asarray(zs, dtype=params.dtype))
    batch = zs.size
    a, b = params.frac_bits, params.int_bits
    width = a + b + 1

    shifted = zs + params.dtype(params.scale // 2) if sess.is_alice else zs

    # rows d, 1 iff 0 <= z' < 1 (the sign and integer bits all zero), and the
    # sign, from the low `width` bits alone
    bits = decompose_batch_slices(sess, shifted, width, zero_start=a)
    # e = pos AND NOT d = NOT sign XOR d, since d = 1 implies pos = 1
    bits[1] ^= bits[0]
    if sess.is_alice:
        bits[1] ^= ones_row(batch)

    # row 0 comes back as d·z', row 1 as e
    converted = convert_bits_to_ring(sess, bits, batch, shifted)
    return converted[batch:] * params.dtype(params.scale) + converted[:batch]
