"""Secure evaluation of the clipped-ReLU activation over ring shares.

The activation rho(v) is 0 below -1/2, v + 1/2 in between, and 1 from 1/2 up.
Rather than running comparison protocols, the shifted value z' = z + 1/2 is
partially bit-decomposed.  Two bits follow from its sign and integer-field
bits: d = 1 iff 0 <= z' < 1 (none of them set) and e = 1 iff z' >= 1.  Then
rho = e * 2^a + d * z', which costs one ring multiplication; both bits are
converted to ring shares in one round.
Inputs must satisfy |decode(z)| < 2^(int_bits - 1) so the shifted value
never spills past the masked field.  `batch_activate` is the only secure
entry point; a single value is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .bitops import decompose_batch_slices, or_tree_slices
from .engine import Session, batch_mul, convert_bits_to_ring
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
    width = a + b + 2

    shifted = zs + params.dtype(params.scale // 2) if sess.is_alice else zs.copy()
    masked = shifted & params.dtype(((1 << width) - 1) & params.mask)

    slices = decompose_batch_slices(sess, masked, width)

    # OR of the sign and integer bits: 1 unless 0 <= z' < 1
    outside = or_tree_slices(sess, slices[a:a + b + 1], batch)
    d_slice = outside ^ ones_row(batch) if sess.is_alice else outside
    # e = pos AND NOT d = pos XOR d, since d = 1 implies pos = 1; the flips cancel
    e_slice = slices[a + b] ^ outside

    converted = convert_bits_to_ring(sess, np.stack([d_slice, e_slice]), batch)
    d_vec, e_vec = converted[:batch], converted[batch:]
    return e_vec * params.dtype(params.scale) + batch_mul(sess, d_vec, shifted)
