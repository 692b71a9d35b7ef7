"""Shared test utilities: protocol pair drivers and tiny fake generators."""

from __future__ import annotations

import numpy as np

from mpclr import FixedPointParams, local_session_pair, run_sessions
from mpclr.randomness import (
    SEED_WORDS,
    TAG_BIT,
    TAG_CONVERSION,
    TAG_MATMUL,
    TAG_SCALAR,
    MaterializedSource,
)


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
    values and Bob holds zeros, which is a valid additive sharing.  A
    record's u and v expand from its seed, so each source is given the
    expanded masks of its record instead."""
    dt = params.dtype
    sources = MaterializedSource(params), MaterializedSource(params)
    for source, (u_share, v_share, w_share) in zip(sources, ((u, v, w), (0, 0, 0))):
        source.append(TAG_SCALAR, 1, (np.zeros(SEED_WORDS, np.uint64), np.array([w_share], dt)))
        source._expanded[0] = [np.array([[u_share], [v_share]], dt)]
    return sources


def whole_record(tag, meta, parts, params):
    """A record of written `parts`, as one take of all of it reads them: u,
    v and w of ring triples, the 15 strings of AND tuples (string S - 1
    holding r_S), the ring shares and the Z_2 string of daBits, or U, V and
    W of a matrix record."""
    source = MaterializedSource(params)
    source.append(tag, meta, parts)
    if tag == TAG_SCALAR:
        return source.take_ring_triples(meta)
    if tag == TAG_BIT:
        return (source.take_bit_triples(meta, 4)[:, 0],)
    if tag == TAG_CONVERSION:
        ring, bits = source.take_dabits(meta)
        return ring, bits[0]
    assert tag == TAG_MATMUL
    return source.take_matmul_triple(meta)


def dealt_parts(dealer, tag, meta):
    """Both parties' parts of the dealer's next record of `tag`, as one take
    of all of it reads them (see `whole_record`), not as it writes them."""
    return tuple(whole_record(tag, meta, parts, dealer.params)
                 for parts in dealer.block(tag, meta))


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
