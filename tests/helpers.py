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
    MatmulDims,
    MaterializedSource,
)
from mpclr.sharing import Role


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
    expanded masks of its record instead, kept as loading keeps an
    expansion until its record's first take; the seeded halves of a single
    triple's w are empty, so both parties write their share of it."""
    dt = params.dtype
    sources = MaterializedSource(params, Role.ALICE), MaterializedSource(params, Role.BOB)
    for source, (u_share, v_share, w_share) in zip(sources, ((u, v, w), (0, 0, 0))):
        source.append(TAG_SCALAR, 1, (np.zeros(SEED_WORDS, np.uint64), np.array([w_share], dt)))
        source._expanded[0] = ([np.array([[u_share], [v_share]], dt)], [np.zeros(0, dt)])
    return sources


def whole(pieces, shape=(-1,)):
    """A part that a take hands out as its two flat pieces, Alice's first,
    joined and of `shape`."""
    return np.concatenate(pieces).reshape(shape)


def take_dabits(source, rows, batch, factored=0):
    """`source.take_dabits`, with the ring shares and rho whole."""
    ring, bits, v, rho = source.take_dabits(rows, batch, factored)
    return whole(ring), bits, v, whole(rho)


def take_matmul_triple(source, dims):
    """`source.take_matmul_triple`, with W whole and of its shape."""
    dims = MatmulDims(*dims)
    u, v, w = source.take_matmul_triple(dims)
    return u, v, None if w is None else whole(w, dims.shapes()[2])


def take(source, tag, meta):
    """Consume one request's worth of randomness, whatever its tag."""
    if tag == TAG_SCALAR:
        return source.take_ring_triples(meta)
    if tag == TAG_CONVERSION:
        return take_dabits(source, *meta)
    if tag == TAG_BIT:
        return source.take_bit_triples(meta)
    if tag == TAG_MATMUL:
        return take_matmul_triple(source, meta)
    block = source.take_prefix_block(*meta)
    # a zero test's one-sided setup: the own operand rows' masks, then the
    # shares of the setup's products, whole
    setup = () if block.setup is None else (block.setup[0], whole(block.setup[1]))
    return (*setup, *block.gates, block.mask_p, block.mask_g, block.prod_pp, block.prod_pg)


def whole_record(tag, meta, parts, params, role):
    """A record of `role`'s written `parts`, as one take of all of it reads
    them: u, v and w of ring triples or of AND triples, the ring shares,
    the Z_2 rows, the ring masks v and the shares of rho = r·v of daBits,
    or U, V and W of a matrix record."""
    source = MaterializedSource(params, role)
    source.append(tag, meta, parts)
    if tag == TAG_SCALAR:
        return source.take_ring_triples(meta)
    if tag == TAG_BIT:
        return (source.take_bit_triples(meta)[:, 0],)
    if tag == TAG_CONVERSION:
        return take_dabits(source, *meta)
    assert tag == TAG_MATMUL
    return take_matmul_triple(source, meta)


def dealt_parts(dealer, tag, meta):
    """Both parties' parts of the dealer's next record of `tag`, as one take
    of all of it reads them (see `whole_record`), not as it writes them."""
    return tuple(whole_record(tag, meta, parts, dealer.params, role)
                 for role, parts in zip(Role, dealer.block(tag, meta)))


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
