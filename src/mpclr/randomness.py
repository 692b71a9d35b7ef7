"""Correlated randomness: generation by the trusted initializer, per-party
streams, and the on-disk randomness-file format.

All material is derived from one master seed through domain-separated child
seeds, one counter per consumer tag, so a dealer run is reproducible and the
two parties' files are always consistent.  Consumption is strict FIFO per tag:
both parties issue identical requests in identical order, which is what keeps
their shares aligned without negotiation.  A stream holds exactly the records
of its run's request plan, so a pooled take reads inside one record and never
gathers units from the next.

Every party stream is a MaterializedSource, a list of CRN1 records.  A dealt
or loaded stream lives in one CRN1 buffer: the dealer lays both parties'
buffers out from the request plan and deals each record straight into its
slots, `serialize_stream` returns that buffer as it is, and
`deserialize_stream` keeps every part as a read-only view into the bytes it
is given.  An OnDemandSource holds the same records, dealt one at a time as
they are taken.

Every record writes its pure masks, those whose shares are uniform in both
parties' hands, as one seed per party (`expand_seed`): the u and v of a
pool of ring triples, the four single masks of a pool of AND tuples, the Z_2
strings of a pool of daBits, the setup u and v and the node masks of a
prefix-network block, and the U or V of a matrix record.  It writes whole
only the shares of what depends on them: w = u·v, the subset products of
two or more masks, the daBits' ring shares, the setup w and the composition
products, and W.  A record keeps its seed and written parts; the masks its
seed stands for are expanded once and kept beside it, and a take joins them
with the written parts.  Loading expands every record before it returns, so
the expansion is part of setup; the streams a dealer returns expand a record
at its first take.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ProtocolError, RandomnessUnderflowError
from .fixedpoint import FixedPointParams
from .prefixnet import cached_plan
from .sharing import (
    Role,
    read_input,
    tail_mask,
    unpack_rows,
    word_count,
)
from .transport import PROTOCOL_VERSION

RANDOMNESS_MAGIC = b"CRN1"

TAG_SCALAR = 1      # pooled ring triples for elementwise multiplication
TAG_MATMUL = 2      # matrix masks and their products, one block per record
TAG_BIT = 3         # pooled AND tuples: dealt subset products of 4 random bits
TAG_PREFIXNET = 5   # per-decomposition mask schedule blocks
TAG_CONVERSION = 6  # pooled daBits for bit-to-ring conversion
# Tag 4 held the conversion's ring triples up to protocol version 4.  It stays
# unassigned, so a stream dealt for that conversion fails at load.

_TAG_NAMES = {
    TAG_SCALAR: "scalar-mul",
    TAG_MATMUL: "matmul",
    TAG_BIT: "bit-mul",
    TAG_CONVERSION: "conversion",
    TAG_PREFIXNET: "prefix-network",
}

# Kinds of TAG_MATMUL record; a CRN1 record keeps its kind in the high bits
# of the tag byte.  Kind 0 held a full matrix triple up to protocol version
# 5.  It stays unassigned, so a stream that holds one fails at load.
MATMUL_MASK = 1     # U alone: the fixed mask of a matrix X that is opened once as X - U
MATMUL_REUSE = 2    # V and W = U·V, against the last mask of the same shape
MATMUL_REUSE_T = 3  # V and W = Uᵀ·V, against the last mask of the same shape

_MATMUL_KINDS = (MATMUL_MASK, MATMUL_REUSE, MATMUL_REUSE_T)
_KIND_SHIFT = 4

_DOMAIN = 0x6D70636C  # derivation label separating dealer output from other rng users

SEED_WORDS = 2  # a seeded mask's part: one 128-bit seed, two words


class MatmulDims(NamedTuple):
    """Shape and kind of one TAG_MATMUL record.

    U is always i x j.  The mask record carries U alone (k = 0); the records
    that reuse it carry only a fresh V and its product W with U or Uᵀ.  U
    or V is written as the record's seed (see `part_shapes`); W is written
    whole.
    """

    i: int
    j: int
    k: int
    kind: int

    def shapes(self) -> tuple:
        """Shapes of (U, V, W) as a take hands them out, None for a part the
        record lacks."""
        i, j, k, kind = self
        return {
            MATMUL_MASK: ((i, j), None, None),
            MATMUL_REUSE: (None, (j, k), (i, k)),
            MATMUL_REUSE_T: (None, (i, k), (j, k)),
        }[kind]


@dataclass
class PrefixBlock:
    """One party's masks for a single batched bit decomposition.

    Every array field holds packed `batch`-bit rows: `setup` is the AND
    triple u, v, w = u AND v (see `subset_products`), a (3, and_triples,
    words) array with one row per bit position, then, for a zero-test plan,
    one for the test's final AND; the node masks have one row per masked
    node and the composition products one row per composition, in plan
    order.
    """

    width: int
    batch: int
    setup: np.ndarray
    mask_p: np.ndarray
    mask_g: np.ndarray
    prod_pp: np.ndarray
    prod_pg: np.ndarray


_POOLED = (TAG_SCALAR, TAG_CONVERSION, TAG_BIT)

# Inputs of a TAG_BIT tuple; a gate of fewer inputs reads its first strings.
BIT_TUPLE_INPUTS = 4
# The strings of a TAG_BIT tuple, string S - 1 holding r_S: the single masks
# r_i (S a power of two) expand from the seed, the other products are written.
_SINGLES = [(1 << i) - 1 for i in range(BIT_TUPLE_INPUTS)]
_PRODUCTS = [s for s in range((1 << BIT_TUPLE_INPUTS) - 1) if s not in _SINGLES]
_RING_MASKED = (TAG_SCALAR, TAG_MATMUL)  # tags whose masks are ring elements, not bits


def _meta(tag: int, meta):
    """A request's meta as records keep it: n for a pool, a MatmulDims for
    matmul, (width, batch, zero_start) for prefix-network, where a request
    of (width, batch) is the full decomposition, zero_start 0."""
    if tag == TAG_MATMUL:
        return MatmulDims(*meta)
    if tag == TAG_PREFIXNET:
        return (*meta, 0)[:3]
    return meta


def _units(tag: int, meta) -> int:
    """Units a record holds: n for a pool of n triples, one block otherwise."""
    return meta if tag in _POOLED else 1


@dataclass
class _Cursor:
    """Read position over the records of one tag: the index in `records` of
    the record being read, or after the last one used up, and the units of
    that record already taken."""

    index: int = 0
    offset: int = 0


def _read_rows(words: np.ndarray, start: int, nrows: int, nbits: int) -> np.ndarray:
    """Copy of the `nrows` strings of `nbits` bits laid end to end from bit
    `start` on of the packed string `words`, or of every string in its
    leading axes, as a (..., nrows, word_count(nbits)) matrix of rows with
    the tail bits zero.

    A row that starts inside a word funnel-shifts each output word from two
    input words; the word past the last one holding a bit read may be absent.
    """
    count = word_count(nbits)
    out = np.empty((*words.shape[:-1], nrows, count), dtype=np.uint64)
    for row in range(nrows):
        first, shift = divmod(start + row * nbits, 64)
        out[..., row, :] = words[..., first:first + count]
        if shift:
            out[..., row, :] >>= np.uint64(shift)
            high = words[..., first + 1:first + count + 1] << np.uint64(64 - shift)
            out[..., row, :high.shape[-1]] |= high
    out[..., -1] &= tail_mask(nbits)
    return out


def subset_products(masks: np.ndarray) -> np.ndarray:
    """The 2^k - 1 subset products of k masks of packed rows, given as one
    (k, ...) array: entry S - 1 holds r_S, the AND of the masks r_i with bit
    i set in S.  Those of two masks u and v are the AND triple u, v, u AND v."""
    prods = np.empty(((1 << len(masks)) - 1,) + masks.shape[1:], dtype=np.uint64)
    for i, mask in enumerate(masks):
        bit = 1 << i
        prods[bit - 1] = mask
        prods[bit:2 * bit - 1] = prods[:bit - 1] & mask
    return prods


def expand_seed(seed, count: int) -> np.ndarray:
    """`count` words of a party's pure masks from its seed of SEED_WORDS
    words, low word first: the output of a PCG64 seeded with it.  The
    generator is seeded through its own SeedSequence, so two seeds'
    expansions share no generator state.  Every seed, the dealer's and the
    parties', expands here."""
    return np.random.PCG64(int(seed[0]) | int(seed[1]) << 64).random_raw(count)


def _row_bits(tag: int, meta) -> int:
    """Bits in each packed row of a bit record: its batch, or its n."""
    return meta[1] if tag == TAG_PREFIXNET else meta


def mask_shapes(tag: int, meta) -> tuple:
    """Shapes of the pure masks that a record's seed expands to, in the order
    the seed's words fill them: ring elements for a scalar or matmul record,
    packed rows of `_row_bits` bits for the others."""
    if tag == TAG_MATMUL:
        u, v, _ = meta.shapes()
        return (u or v,)
    if tag == TAG_SCALAR:
        return ((2, meta),)  # u, then v
    if tag == TAG_BIT:
        return ((BIT_TUPLE_INPUTS, word_count(meta)),)  # the single masks r_i
    if tag == TAG_CONVERSION:
        return ((word_count(meta),),)  # the Z_2 shares of r
    if tag == TAG_PREFIXNET:
        width, batch, zero_start = meta
        plan = cached_plan(width, zero_start)
        nodes = (len(plan.masked_nodes), word_count(batch))
        # the setup and final ANDs' u and v, then p and g
        return (2, plan.and_triples, word_count(batch)), nodes, nodes
    raise ValueError(f"unknown randomness tag {tag}")


def _cut(words: np.ndarray, shapes, params: FixedPointParams, nbits=None) -> list:
    """Uniform `words` cut into arrays of `shapes`: ring elements, cast down
    on a ring narrower than 64 bits, or with `nbits` packed rows of that
    many bits, their tail bits zeroed."""
    if nbits is None:
        words = words.astype(params.dtype, copy=False)
    else:
        words.reshape(-1, word_count(nbits))[:, -1] &= tail_mask(nbits)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(words, ends[:-1]), shapes)]


def expand_masks(seed, tag: int, meta, params: FixedPointParams) -> list:
    """A party's pure masks of a record, in the shapes of `mask_shapes`,
    from its seed."""
    shapes = mask_shapes(tag, meta)
    words = expand_seed(seed, sum(math.prod(shape) for shape in shapes))
    return _cut(words, shapes, params, None if tag in _RING_MASKED else _row_bits(tag, meta))


class TrustedDealer:
    """Generates both parties' correlated randomness from one master seed."""

    def __init__(self, master_seed: int, params: FixedPointParams):
        self.params = params
        self.master_seed = int(master_seed)
        self.session_id = session_id_from_seed(master_seed)
        self._counters = {}
        self._masks = {}  # (i, j) -> the plaintext mask U last dealt at that shape

    def _rng(self, tag: int) -> np.random.Generator:
        ctr = self._counters.get(tag, 0)
        self._counters[tag] = ctr + 1
        seq = np.random.SeedSequence([_DOMAIN, self.master_seed & (2 ** 64 - 1), tag, ctr])
        return np.random.default_rng(seq)

    def _products(self, tag: int, meta, masks) -> list:
        """The plaintext values of a record that depend on its masks, those
        written as shares after its seed (see `part_shapes`)."""
        if tag == TAG_SCALAR:
            (uv,) = masks
            return [uv[0] * uv[1]]
        if tag == TAG_BIT:
            return [subset_products(masks[0])[_PRODUCTS]]
        if tag == TAG_CONVERSION:
            (r,) = masks
            return [unpack_rows(r[None], meta)[0].astype(self.params.dtype)]
        if tag == TAG_PREFIXNET:
            (u, v), p, g = masks
            plan = cached_plan(meta[0], meta[2])
            # The higher-position run is the left factor of the matrix product,
            # so the cross product couples its propagate mask with the lower
            # run's generate mask.
            hi, lo = plan.comp_hi, plan.comp_lo
            return [u & v, p[hi] & p[lo], p[hi] & g[lo]]
        (mask,) = masks
        i, j, _, kind = meta
        if kind == MATMUL_MASK:
            self._masks[(i, j)] = mask
            return []
        u = self._masks.get((i, j))
        if u is None:
            raise ProtocolError(f"no {i}x{j} mask dealt before the record {meta}")
        # numpy runs einsum faster than @ on integer dtypes
        return [np.einsum("ij,jk->ik" if kind == MATMUL_REUSE else "ij,ik->jk", u, mask)]

    def block(self, tag: int, meta):
        """Both parties' parts of the next CRN1 record of `tag`, as
        `part_shapes` lists them; `meta` is as in `generate`.  The record's
        generator draws both parties' seeds, then Alice's shares of what
        depends on the masks, each mask the sum, or for bits the XOR, of the
        two parties' expansions of it; Bob's shares are the rest.  Alice's
        are the generator's raw words, cut like masks (see `_cut`)."""
        meta = _meta(tag, meta)
        rng = self._rng(tag)
        seeds = rng.integers(0, 1 << 64, size=(2, SEED_WORDS), dtype=np.uint64)
        masks, other = (expand_masks(seed, tag, meta, self.params) for seed in seeds)
        for mask, more in zip(masks, other):  # Alice's expansion becomes the mask
            if tag in _RING_MASKED:
                mask += more
            else:
                mask ^= more
        values = self._products(tag, meta, masks)
        bits = tag in (TAG_BIT, TAG_PREFIXNET)  # whether the products are bit rows
        words = rng.bit_generator.random_raw(sum(value.size for value in values))
        alice = _cut(words, [value.shape for value in values], self.params,
                     _row_bits(tag, meta) if bits else None)
        bob = [value ^ share if bits else value - share for value, share in zip(values, alice)]
        return (seeds[0], *alice), (seeds[1], *bob)

    def generate(self, requests):
        """Deal both parties' streams for an explicit request list, each
        record straight into its slots of the two CRN1 buffers; every part
        of the streams returned is a view into its party's buffer.  Their
        seeds are expanded at a record's first take, not here: the dealer
        has just drawn those masks.

        Each request is (tag, meta): n for pools, MatmulDims for matmul,
        (width, batch) or (width, batch, zero_start) for prefix-network
        blocks.
        """
        plan = [(tag, _meta(tag, meta)) for tag, meta in requests]
        streams = [_new_stream(self.params, self.session_id, plan) for _ in range(2)]
        for index, (tag, meta) in enumerate(plan):
            for (_, slots), parts in zip(streams, self.block(tag, meta)):
                _fill(slots[index], parts)
        return tuple(_parse_stream(words, self.params) for words, _ in streams)


def session_id_from_seed(master_seed: int) -> int:
    seq = np.random.SeedSequence([_DOMAIN, int(master_seed) & (2 ** 64 - 1), 0xFF])
    return int(seq.generate_state(1, np.uint64)[0])


class MaterializedSource:
    """A party's stream of correlated randomness: dealer output, file
    contents, TI bytes, or records dealt as they are taken (OnDemandSource).

    The stream is `records`, its CRN1 records in order, each (tag, meta,
    parts) with `parts` the arrays that the record writes, in the order of
    `part_shapes`: this party's seed of the record's pure masks, then its
    shares of what depends on them.  `buffer` is the CRN1 bytes that a dealt
    or loaded stream's parts are read-only views into, None once a record is
    appended.  A take only moves a cursor over its tag's records, and reads
    inside one record: a pooled take that does not fit in what is left of
    its record underflows.  It reads the masks that the record's seed
    expands to, expanded once per record and kept read-only beside it, and
    the record's written parts, and hands the bits of a pool back as the
    rows its gate reads, not as the strings that the record holds them in.
    """

    def __init__(self, params: FixedPointParams, session_id: int = 0):
        self.params = params
        self.session_id = session_id
        self.records = []
        self.buffer = None
        self._cursors = {tag: _Cursor() for tag in _TAG_NAMES}
        self._expanded = {}  # record index -> the masks its seed expands to

    def append(self, tag: int, meta, parts):
        """Add one record; `meta` is n for a pool, a MatmulDims for matmul
        and (width, batch, zero_start) for prefix-network."""
        self.records.append((tag, meta, parts))
        self.buffer = None

    def check_plan(self, requests):
        """Raise FormatError, naming the first record that differs, unless
        the stream holds exactly the records of the request plan `requests`."""
        have = [(tag, meta) for tag, meta, _ in self.records]
        need = [(tag, _meta(tag, meta)) for tag, meta in requests]
        for index, (ours, needed) in enumerate(zip(have, need)):
            if ours != needed:
                raise FormatError(
                    f"randomness stream does not fit this run: record {index} is "
                    f"{_TAG_NAMES[ours[0]]} {ours[1]}, the run needs "
                    f"{_TAG_NAMES[needed[0]]} {needed[1]}")
        if len(have) != len(need):
            raise FormatError(f"randomness stream does not fit this run: it holds "
                              f"{len(have)} records, the run needs {len(need)}")

    def _take(self, tag: int, meta) -> tuple:
        """(masks, written, start) of the one record that a request of `tag`
        reads (see `_expand`): the next `meta` units of a pool, from unit
        `start` on, or the whole next record, which must have this meta.  A
        pooled take that does not fit in what is left of its record raises
        RandomnessUnderflowError, whatever a later record holds."""
        n = _units(tag, meta)
        cur = self._cursors[tag]
        while cur.index < len(self.records) and self.records[cur.index][0] != tag:
            cur.index += 1
        if cur.index == len(self.records):
            if n:
                raise RandomnessUnderflowError(
                    f"{_TAG_NAMES[tag]} randomness exhausted: requested {n}, have 0")
            # an empty take past the last record reads an empty one
            seed, *written = (np.zeros(*part) for part in part_shapes(tag, 0, self.params))
            return expand_masks(seed, tag, 0, self.params), written, 0
        _, rmeta, _ = self.records[cur.index]
        left = _units(tag, rmeta) - cur.offset
        if n > left:
            raise RandomnessUnderflowError(
                f"{_TAG_NAMES[tag]} randomness exhausted: requested {n}, have {left}")
        if tag not in _POOLED and rmeta != meta:
            raise ProtocolError(
                f"{_TAG_NAMES[tag]} record mismatch: stream has {rmeta}, requested {meta}")
        index, start = cur.index, cur.offset
        cur.offset += n
        if n == left:  # used up: the next take starts after it
            cur.index, cur.offset = cur.index + 1, 0
        return (*self._expand(index), start)

    def _expand(self, index: int) -> tuple:
        """(masks, written) of record `index`: the masks its seed expands to
        (see `mask_shapes`), expanded once and kept read-only beside the
        record, and the parts the record writes after its seed."""
        tag, meta, (seed, *written) = self.records[index]
        if index not in self._expanded:
            masks = expand_masks(seed, tag, meta, self.params)
            for mask in masks:
                mask.flags.writeable = False
            self._expanded[index] = masks
        return self._expanded[index], written

    def take_ring_triples(self, n):
        (uv,), (w,), start = self._take(TAG_SCALAR, n)
        return uv[0, start:start + n], uv[1, start:start + n], w[start:start + n]

    def take_matmul_triple(self, dims):
        """(U, V, W) parts of the next TAG_MATMUL record, None where the
        record's kind lacks a part; raises ProtocolError if its dims differ."""
        dims = _meta(TAG_MATMUL, dims)
        (mask,), written, _ = self._take(TAG_MATMUL, dims)
        return (mask, None, None) if dims.kind == MATMUL_MASK else (None, mask, *written)

    def take_bit_triples(self, n, k=2, rows=1):
        """Next `n` AND tuples, for gates of k inputs over `rows` rows of
        n / rows bits: the first 2^k - 1 shares of each, as a (2^k - 1,
        rows, word_count(n // rows)) array of packed rows, the `rs` of an
        `engine.and_gates` gate, row S - 1 holding r_S (see
        `subset_products`).  At k = 2 they are the triples u, v, w.  The
        name is that of the triple pool before it held tuples, kept because
        the benchmark's tracer wraps the method by name."""
        (masks,), (products,), start = self._take(TAG_BIT, n)
        out = np.empty(((1 << k) - 1, rows, word_count(n // rows)), np.uint64)
        # the strings below 2^k - 1 are the first k masks and 2^k - 1 - k products
        out[_SINGLES[:k]] = _read_rows(masks[:k], start, rows, n // rows)
        out[_PRODUCTS[:len(out) - k]] = _read_rows(products[:len(out) - k], start, rows, n // rows)
        return out

    def take_dabits(self, nbits, rows=1):
        """Next `nbits` daBits: the ring shares, one word per bit, and the
        Z_2 shares as a (rows, word_count(nbits // rows)) matrix of packed
        rows."""
        (bits,), (ring,), start = self._take(TAG_CONVERSION, nbits)
        return ring[start:start + nbits], _read_rows(bits, start, rows, nbits // rows)

    def take_prefix_block(self, width, batch, zero_start=0) -> PrefixBlock:
        (setup_uv, mask_p, mask_g), (setup_w, prod_pp, prod_pg), _ = self._take(
            TAG_PREFIXNET, (width, batch, zero_start))
        setup = np.concatenate([setup_uv, setup_w[None]])
        return PrefixBlock(width, batch, setup, mask_p, mask_g, prod_pp, prod_pg)


class OnDemandSource(MaterializedSource):
    """A stream dealt as it is taken, from the master seed.

    Before each take, the record that a TrustedDealer deals for exactly that
    request is appended, and the take then reads it like any other.  Both
    parties build one with the same seed and keep their own half of each
    record, so the two streams stay consistent without any communication.
    The records stay in memory; meant for tests and `mpclr bench`.
    """

    def __init__(self, master_seed: int, role: Role, params: FixedPointParams):
        self._dealer = TrustedDealer(master_seed, params)
        super().__init__(params, self._dealer.session_id)
        self.role = role

    def _take(self, tag, meta):
        a, b = self._dealer.block(tag, meta)
        self.append(tag, meta, a if self.role is Role.ALICE else b)
        return super()._take(tag, meta)


# ---------------------------------------------------------------------------
# Serialization: CRN1 randomness files
# ---------------------------------------------------------------------------

# A stream is a file header, then per record a header of three words and
# its parts, each a run of little-endian u64 words, so every part starts on a
# word boundary.  A record header's first word holds the tag byte (tag, and
# a matmul record's kind above _KIND_SHIFT) in its top 8 bits, above m0.
_FILE_HEADER = struct.Struct("<4sHHQQ")  # magic, protocol version, ring width, session id, records
_VERSION = struct.Struct("<4sH")         # the fields that identify a stream of any version
_HEADER_WORDS = 3                        # tag byte << _TAG_SHIFT | m0, m1, m2
_TAG_SHIFT = 56


def part_shapes(tag: int, meta, params: FixedPointParams) -> tuple:
    """(shape, dtype) of each part that a record of `tag` and `meta` writes,
    in order: this party's seed of the record's pure masks (see
    `mask_shapes`), then its shares of what depends on them; every part is
    written as one u64 word per element.  Dealing lays a stream out by it
    and loading parses one by it."""
    ring, words = params.dtype, np.uint64
    seed = ((SEED_WORDS,), words)
    if tag == TAG_MATMUL:  # W, unless the record is U alone
        _, _, w = meta.shapes()
        return (seed,) if w is None else (seed, (w, ring))
    if tag in (TAG_SCALAR, TAG_CONVERSION):  # w = u·v, or the ring shares of r
        return seed, ((meta,), ring)
    if tag == TAG_BIT:  # the subset products of two or more masks
        return seed, ((len(_PRODUCTS), word_count(meta)), words)
    if tag == TAG_PREFIXNET:  # the setup and final ANDs' w, then pp and pg
        width, batch, zero_start = meta
        plan = cached_plan(width, zero_start)
        rows = (plan.and_triples, *[len(plan.compositions)] * 2)
        return (seed, *(((count, word_count(batch)), words) for count in rows))
    raise FormatError(f"randomness stream: unknown record tag {tag}")


def _size(shapes) -> int:
    """Words of a record's parts, from their `part_shapes`."""
    return sum(math.prod(shape) for shape, _ in shapes)


def _word_views(words: np.ndarray, pos: int, shapes) -> tuple:
    """Views of `words` from word `pos` on in the `shapes` of `part_shapes`,
    and the position after them."""
    if pos + _size(shapes) > len(words):
        raise FormatError("randomness stream: truncated record payload")
    views = []
    for shape, _ in shapes:
        size = math.prod(shape)
        views.append(words[pos:pos + size].reshape(shape))
        pos += size
    return views, pos


def _record_header(tag: int, meta) -> tuple:
    """The three header words of a record of `tag` and `meta`."""
    tag_byte, m = tag, (meta, 0, 0)
    if tag == TAG_MATMUL:
        tag_byte, m = tag | meta.kind << _KIND_SHIFT, meta[:3]
    elif tag == TAG_PREFIXNET:
        m = meta
    if not 0 <= m[0] < 1 << _TAG_SHIFT:
        raise ValueError(f"{_TAG_NAMES[tag]} record meta {m[0]} does not fit in "
                         f"{_TAG_SHIFT} bits")
    return (tag_byte << _TAG_SHIFT | m[0], *m[1:])


def _record_meta(header, params: FixedPointParams) -> tuple:
    """(tag, meta) of a record from its three header words."""
    first, m1, m2 = header
    tag_byte, m0 = first >> _TAG_SHIFT, first & ((1 << _TAG_SHIFT) - 1)
    tag, kind = tag_byte & ((1 << _KIND_SHIFT) - 1), tag_byte >> _KIND_SHIFT
    if kind not in (_MATMUL_KINDS if tag == TAG_MATMUL else (0,)):
        raise FormatError(f"randomness stream: unknown record kind {kind} of tag {tag}")
    if tag == TAG_MATMUL:
        return tag, MatmulDims(m0, m1, m2, kind)
    if tag == TAG_PREFIXNET:
        if not 2 <= m0 <= params.ring_bits:
            raise FormatError(f"randomness stream: prefix-network width {m0} outside "
                              f"2..{params.ring_bits}")
        if m2 and not 1 <= m2 < m0:
            raise FormatError(f"randomness stream: prefix-network zero-test start {m2} "
                              f"outside 1..{m0 - 1}")
        return tag, (m0, m1, m2)
    return tag, m0


def _new_stream(params: FixedPointParams, session_id: int, plan) -> tuple:
    """An unfilled CRN1 stream of the records that `plan` lists as (tag,
    meta): its buffer of words, allocated once with every header written,
    and the writable slots of each record's parts (see `_word_views`)."""
    headers = [_record_header(tag, meta) for tag, meta in plan]
    shapes = [part_shapes(tag, meta, params) for tag, meta in plan]
    pos = _FILE_HEADER.size // 8
    words = np.empty(pos + _HEADER_WORDS * len(plan) + sum(map(_size, shapes)), np.uint64)
    _FILE_HEADER.pack_into(words.view(np.uint8), 0, RANDOMNESS_MAGIC, PROTOCOL_VERSION,
                           params.ring_bits, session_id, len(plan))
    slots = []
    for header, parts in zip(headers, shapes):
        words[pos:pos + _HEADER_WORDS] = header
        views, pos = _word_views(words, pos + _HEADER_WORDS, parts)
        slots.append(views)
    return words, slots


def _fill(slots, parts):
    """Copy a record's parts into its slots (see `_new_stream`)."""
    for slot, part in zip(slots, parts, strict=True):
        slot[...] = part


def _aligned(data) -> memoryview:
    """`data` as read-only bytes that start on a word boundary: a view of
    it, or, if it starts off one, of one aligned copy."""
    view = memoryview(data).cast("B").toreadonly()
    if np.frombuffer(view, np.uint8).ctypes.data % 8:
        copy = np.empty(-(-len(view) // 8), np.uint64).view(np.uint8)[:len(view)]
        copy[...] = np.frombuffer(view, np.uint8)
        view = memoryview(copy).toreadonly()
    return view


def _read_only(words: np.ndarray, dtype) -> np.ndarray:
    """A loaded part: the view `words` itself, or its cast to a narrower
    ring's dtype, read-only either way."""
    part = words.astype(dtype, copy=False)
    part.flags.writeable = False
    return part


def serialize_stream(source: MaterializedSource) -> memoryview:
    """One party's stream, every record in order, taken or not, as
    read-only CRN1 bytes: the buffer that a dealt or loaded stream lives
    in, with no copy.  The records of a stream built by appending them, such
    as an OnDemandSource, are copied once into a new buffer."""
    if source.buffer is not None:
        return source.buffer
    words, slots = _new_stream(source.params, source.session_id,
                               [(tag, meta) for tag, meta, _ in source.records])
    for record_slots, (_, _, parts) in zip(slots, source.records):
        _fill(record_slots, parts)
    return memoryview(words).cast("B").toreadonly()


def deserialize_stream(data, params: FixedPointParams) -> MaterializedSource:
    """Load a stream from any bytes-like `data`, and expand every record's
    seed into the masks its takes read, so no take pays for an expansion.
    Every written part is a read-only view into `data`, so `data` must not
    change while the stream is in use; `data` that starts off a word
    boundary is first copied once into an aligned buffer, and the ring parts
    of a ring narrower than 64 bits are cast copies."""
    source = _parse_stream(data, params)
    for index in range(len(source.records)):
        source._expand(index)
    return source


def _parse_stream(data, params: FixedPointParams) -> MaterializedSource:
    """The stream in `data`, as `deserialize_stream` loads it, with no seed
    expanded yet."""
    view = _aligned(data)
    size = len(view)
    if size < _VERSION.size:
        raise FormatError("randomness stream: truncated header")
    magic, version = _VERSION.unpack_from(view)
    if magic != RANDOMNESS_MAGIC:
        raise FormatError(f"randomness stream: bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        # before version 8 the ring width followed the magic, so the version
        # read here may be a ring width: name neither
        raise FormatError(
            f"randomness stream dealt by another protocol version than this build's "
            f"{PROTOCOL_VERSION} (one dealt before version 8 has no version field); "
            f"deal it again")
    if size < _FILE_HEADER.size:
        raise FormatError("randomness stream: truncated header")
    _, _, ring_bits, session_id, nrecords = _FILE_HEADER.unpack_from(view)
    if ring_bits != params.ring_bits:
        raise FormatError(
            f"randomness stream generated for ring width {ring_bits}, session uses {params.ring_bits}"
        )
    source = MaterializedSource(params, session_id)
    words = np.frombuffer(view, np.uint64, size // 8)
    pos = _FILE_HEADER.size // 8
    for _ in range(nrecords):
        if pos + _HEADER_WORDS > len(words):
            raise FormatError("randomness stream: truncated record header")
        tag, meta = _record_meta(words[pos:pos + _HEADER_WORDS].tolist(), params)
        shapes = part_shapes(tag, meta, params)
        views, pos = _word_views(words, pos + _HEADER_WORDS, shapes)
        source.append(tag, meta, tuple(_read_only(array, dtype)
                                       for array, (_, dtype) in zip(views, shapes)))
    if 8 * pos != size:
        raise FormatError(f"randomness stream: {size - 8 * pos} bytes after the last record")
    source.buffer = view
    return source


def write_randomness_file(path, source: MaterializedSource):
    with open(path, "wb") as fh:
        fh.write(serialize_stream(source))


def read_randomness_file(path, params: FixedPointParams) -> MaterializedSource:
    return deserialize_stream(read_input(path), params)
