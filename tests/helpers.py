"""Shared test utilities: protocol pair drivers and tiny fake generators."""

from __future__ import annotations

import numpy as np

from mpclr import FixedPointParams, local_session_pair, run_sessions
from mpclr.randomness import TAG_SCALAR, MaterializedSource


def protocol_pair(params: FixedPointParams, fn_a, fn_b, seed: int = 0,
                  sources=None, trunc_oracle=None):
    """Run a two-party closure pair over an in-memory channel.

    Returns (result_a, result_b, session_a, session_b); closures receive the
    session as their only argument.  Without `sources`, randomness is dealt
    on demand from `seed`.
    """
    src_a, src_b = sources or (None, None)
    sess_a, sess_b = local_session_pair(params, seed=seed, randomness_a=src_a,
                                        randomness_b=src_b, trunc_oracle=trunc_oracle)
    ra, rb = run_sessions(sess_a, sess_b, fn_a, fn_b)
    return ra, rb, sess_a, sess_b


def forced_scalar_source(params: FixedPointParams, u: int, v: int, w: int):
    """Sources whose next ring triple is exactly (u, v, w): Alice holds the
    values and Bob holds zeros, which is a valid additive sharing."""
    dt = params.dtype
    src_a = MaterializedSource(params)
    src_b = MaterializedSource(params)
    src_a.append(TAG_SCALAR, 1, np.array([[u], [v], [w]], dt))
    src_b.append(TAG_SCALAR, 1, np.zeros((3, 1), dt))
    return src_a, src_b


class ForcedBytesRng:
    """Stand-in for numpy Generator yielding preset little-endian integers."""

    def __init__(self, *values: int):
        self._values = list(values)

    def bytes(self, n: int) -> bytes:
        v = self._values.pop(0) if self._values else 0
        return int(v).to_bytes(n, "little")

    def integers(self, low, high, size, dtype):
        """uint32 words, the draw `Generator.bytes` cuts its bytes from,
        whose little-endian bytes are the next preset value."""
        assert (low, high, dtype) == (0, 1 << 32, np.uint32)
        return np.frombuffer(self.bytes(4 * int(np.prod(size))), dtype=np.uint32).reshape(size)


def separable_toy(n_samples: int = 20, n_features: int = 4, seed: int = 123):
    """Linearly separable toy data with a comfortable margin."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(0.0, 1.0, (n_samples, n_features))
    score = feats[:, 0] + (0.5 * feats[:, 1] if n_features > 1 else 0.0)
    labels = (score > 0).astype(int)
    return feats, labels
