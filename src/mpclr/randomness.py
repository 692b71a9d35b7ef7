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

The pure masks of the products over X, the mask U and every fresh V, are
written as one seed per party (`expand_seed`), so a matmul record's size
does not grow with X.  A record keeps its seeds as its written parts; the
masks they stand for are expanded once and kept beside it.  Loading expands
every seed before it returns, so the expansion is part of setup; the
streams a dealer returns expand a record at its first take.
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
    random_bit_rows,
    random_bits,
    random_ring_array,
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
    and V are written as a seed each (see `part_shapes`); W is written whole.
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
    triple u, v, w of `make_bit_triple`, a (3, width, words) array with one
    row per bit position, the node masks have one row per masked node and
    the composition products one row per composition, in plan order.
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


def _meta(tag: int, meta):
    """A request's meta as records keep it: n for a pool, a MatmulDims for
    matmul, (width, batch) for prefix-network."""
    if tag == TAG_MATMUL:
        return MatmulDims(*meta)
    if tag == TAG_PREFIXNET:
        return tuple(meta)
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


def make_ring_triple(u_vals: np.ndarray, v_vals: np.ndarray, params: FixedPointParams,
                     rng: np.random.Generator):
    """Share elementwise multiplication triples with the given operand
    values.  Returns ((uA, vA, wA), (uB, vB, wB))."""
    u_vals = np.asarray(u_vals, dtype=params.dtype)
    v_vals = np.asarray(v_vals, dtype=params.dtype)
    w_vals = u_vals * v_vals
    parts = [_share_ring(vals, params, rng) for vals in (u_vals, v_vals, w_vals)]
    a = tuple(p[0] for p in parts)
    b = tuple(p[1] for p in parts)
    return a, b


def _share_ring(vals: np.ndarray, params: FixedPointParams, rng: np.random.Generator):
    """Split ring values into Alice's uniform share and Bob's remainder."""
    ra = random_ring_array(rng, params, vals.shape)
    return ra, vals - ra


def expand_seed(seed, params: FixedPointParams, shape) -> np.ndarray:
    """A party's share of a pure mask of `shape` from its seed of SEED_WORDS
    words, low word first: one PCG64 word per ring element, cast down on a
    ring narrower than 64 bits.  The generator is seeded through its own
    SeedSequence, so two seeds' expansions share no generator state."""
    bits = np.random.PCG64(int(seed[0]) | int(seed[1]) << 64)
    return bits.random_raw(math.prod(shape)).astype(params.dtype, copy=False).reshape(shape)


def _mask_share(seed, shape, params: FixedPointParams):
    """The read-only expansion of a seeded part, None for a part that is None."""
    if seed is None:
        return None
    share = expand_seed(seed, params, shape)
    share.flags.writeable = False
    return share


def make_bit_triple(nrows: int, nbits: int, rng: np.random.Generator, k: int = 2, masks=None):
    """Share `nrows` rows of `nbits` tuples for k-input Z_2 AND gates:
    Alice's and Bob's (2^k - 1, nrows, words) arrays of packed rows, row
    S - 1 holding r_S, the AND of the masks r_i with bit i set in S.  The
    k = 2 tuple is the triple u, v, w = u AND v.  Every row of the first
    mask is drawn, then of the next, then Alice's shares of all 2^k - 1
    products; `masks`, a (k, nrows, words) array, replaces the drawn ones."""
    if masks is None:
        masks = random_bit_rows(rng, k * nrows, nbits).reshape(k, nrows, -1)
    prods = np.empty(((1 << len(masks)) - 1,) + masks.shape[1:], dtype=np.uint64)
    for i, mask in enumerate(masks):
        bit = 1 << i
        prods[bit - 1] = mask
        prods[bit:2 * bit - 1] = prods[:bit - 1] & mask
    alice = random_bit_rows(rng, len(prods) * nrows, nbits).reshape(prods.shape)
    return alice, prods ^ alice


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

    def _seeded_mask(self, rng, shape) -> tuple:
        """A pure mask of `shape` and both parties' seeds of it: one seed per
        party drawn from `rng`, the mask the sum of their expansions."""
        seeds = rng.integers(0, 1 << 64, size=(2, SEED_WORDS), dtype=np.uint64)
        mask = expand_seed(seeds[0], self.params, shape)
        mask += expand_seed(seeds[1], self.params, shape)
        return mask, seeds

    def _matmul_parts(self, dims, rng):
        """Both parties' (U, V, W) parts of one TAG_MATMUL record, None for a
        part its kind lacks (see MatmulDims): U and V as each party's seed,
        W as its share."""
        dims = MatmulDims(*dims)
        i, j, k, kind = dims
        if kind == MATMUL_MASK:
            self._masks[(i, j)], seeds = self._seeded_mask(rng, (i, j))
            return (seeds[0], None, None), (seeds[1], None, None)
        u = self._masks.get((i, j))
        if u is None:
            raise ProtocolError(f"no {i}x{j} mask dealt before the record {dims}")
        _, v_shape, _ = dims.shapes()
        v, seeds = self._seeded_mask(rng, v_shape)
        w = u @ v if kind == MATMUL_REUSE else np.einsum("ij,ik->jk", u, v)
        wa, wb = _share_ring(w, self.params, rng)
        return (None, seeds[0], wa), (None, seeds[1], wb)

    def _prefix_parts(self, width: int, batch: int, rng):
        """Both parties' parts of one TAG_PREFIXNET record, five parts of
        packed `batch`-bit rows: the setup triple as one (3, width, words)
        array, then the node masks and the composition products."""
        plan = cached_plan(width)
        setup_a, setup_b = make_bit_triple(width, batch, rng)

        def draw_rows(per_row: int, nrows: int):
            rows = random_bit_rows(rng, per_row * nrows, batch).reshape(nrows, per_row, -1)
            return rows.transpose(1, 0, 2)

        # each masked node draws its p and g masks, then Alice's shares of them
        p_val, g_val, p_a, g_a = draw_rows(4, len(plan.masked_nodes))
        # The higher-position run is the left factor of the matrix product, so
        # the cross product couples its propagate mask with the lower run's
        # generate mask.
        pp_a, pg_a = draw_rows(2, len(plan.compositions))
        lo, hi = plan.comp_lo, plan.comp_hi
        pp_b = p_val[hi] & p_val[lo] ^ pp_a
        pg_b = p_val[hi] & g_val[lo] ^ pg_a
        return ((setup_a, p_a, g_a, pp_a, pg_a),
                (setup_b, p_val ^ p_a, g_val ^ g_a, pp_b, pg_b))

    def block(self, tag: int, meta):
        """Both parties' parts of the next CRN1 record of `tag`, one array
        per entry of `part_shapes`, None for a part its kind lacks; `meta`
        is as in `generate`."""
        rng = self._rng(tag)
        if tag == TAG_SCALAR:
            return make_ring_triple(random_ring_array(rng, self.params, (meta,)),
                                    random_ring_array(rng, self.params, (meta,)),
                                    self.params, rng)
        if tag == TAG_BIT:
            return tuple((half[:, 0],) for half in make_bit_triple(1, meta, rng, BIT_TUPLE_INPUTS))
        if tag == TAG_CONVERSION:
            # random bits r, shared in the ring one word each and in Z_2 as one string
            r = random_bits(rng, meta)
            ring = _share_ring(unpack_rows(r[None], meta)[0].astype(self.params.dtype),
                               self.params, rng)
            bits_a = random_bits(rng, meta)
            return (ring[0], bits_a), (ring[1], r ^ bits_a)
        if tag == TAG_MATMUL:
            return self._matmul_parts(meta, rng)
        if tag == TAG_PREFIXNET:
            return self._prefix_parts(*meta, rng)
        raise ValueError(f"unknown randomness tag {tag}")

    def generate(self, requests):
        """Deal both parties' streams for an explicit request list, each
        record straight into its slots of the two CRN1 buffers; every part
        of the streams returned is a view into its party's buffer.  Their
        seeds are expanded at a record's first take, not here: the dealer
        has just drawn those masks.

        Each request is (tag, meta): n for pools, MatmulDims for matmul,
        (width, batch) for prefix-network blocks.
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
    parts) with `parts` the arrays of `part_shapes` in the order they are
    written in: u, v and w of a pool of n ring triples, n words each, a
    (15, words) matrix of packed n-bit strings for a pool of n AND tuples
    (string S - 1 holding the subset product r_S, see `make_bit_triple`),
    the n ring shares and the n-bit string of Z_2 shares of a pool of n
    daBits, the (U, V, W) parts of a matmul record with None for a part its
    kind lacks and a seed for U and V, and the five parts of packed
    `batch`-bit rows of a prefix-network record, those of its PrefixBlock.
    `buffer` is the CRN1 bytes that a dealt or loaded stream's parts are
    read-only views into, None once a record is appended.  A take only
    moves a cursor over its tag's records, and reads inside one record: a
    pooled take that does not fit in what is left of its record underflows.
    It hands the bits of a pool back as the rows its gate reads, not as the
    string that the record holds them in, and a matmul record's U and V as
    the read-only masks their seeds expand to, expanded once per record.
    """

    def __init__(self, params: FixedPointParams, session_id: int = 0):
        self.params = params
        self.session_id = session_id
        self.records = []
        self.buffer = None
        self._cursors = {tag: _Cursor() for tag in _TAG_NAMES}
        self._expanded = {}  # record index -> a matmul record's parts, seeds expanded

    def append(self, tag: int, meta, parts):
        """Add one record; `meta` is n for a pool, a MatmulDims for matmul
        and (width, batch) for prefix-network."""
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
        """(parts, start) of the one record that a request of `tag` reads,
        its parts as `_expand` hands them out: the next `meta` units of a
        pool, from unit `start` on, or the whole next record, which must
        have this meta.  A pooled take that does not
        fit in what is left of its record raises RandomnessUnderflowError,
        whatever a later record holds."""
        n = _units(tag, meta)
        cur = self._cursors[tag]
        while cur.index < len(self.records) and self.records[cur.index][0] != tag:
            cur.index += 1
        if cur.index == len(self.records):
            if n:
                raise RandomnessUnderflowError(
                    f"{_TAG_NAMES[tag]} randomness exhausted: requested {n}, have 0")
            # an empty take past the last record reads an empty one
            return tuple(np.zeros(*part) for part in part_shapes(tag, 0, self.params)), 0
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
        return self._expand(index), start

    def _expand(self, index: int) -> tuple:
        """The parts of record `index` as a take hands them out: a matmul
        record's with its seeds expanded into read-only masks, once, and kept
        beside the record; any other record's as they are written."""
        tag, meta, parts = self.records[index]
        if tag != TAG_MATMUL:
            return parts
        if index not in self._expanded:
            (u, v, w), (u_shape, v_shape, _) = parts, meta.shapes()
            self._expanded[index] = (_mask_share(u, u_shape, self.params),
                                     _mask_share(v, v_shape, self.params), w)
        return self._expanded[index]

    def take_ring_triples(self, n):
        parts, start = self._take(TAG_SCALAR, n)
        return tuple(part[start:start + n] for part in parts)

    def take_matmul_triple(self, dims):
        """(U, V, W) parts of the next TAG_MATMUL record, None where the
        record's kind lacks a part; raises ProtocolError if its dims differ."""
        parts, _ = self._take(TAG_MATMUL, _meta(TAG_MATMUL, dims))
        return parts

    def take_bit_triples(self, n, k=2, rows=1):
        """Next `n` AND tuples, for gates of k inputs over `rows` rows of
        n / rows bits: the first 2^k - 1 shares of each, as a (2^k - 1,
        rows, word_count(n // rows)) array of packed rows, the `rs` of an
        `engine.and_gates` gate.  At k = 2 they are the triples u, v, w.
        The name is that of the triple pool before it held tuples, kept
        because the benchmark's tracer wraps the method by name."""
        (strings,), start = self._take(TAG_BIT, n)
        return _read_rows(strings[:(1 << k) - 1], start, rows, n // rows)

    def take_dabits(self, nbits, rows=1):
        """Next `nbits` daBits: the ring shares, one word per bit, and the
        Z_2 shares as a (rows, word_count(nbits // rows)) matrix of packed
        rows."""
        (ring, bits), start = self._take(TAG_CONVERSION, nbits)
        return ring[start:start + nbits], _read_rows(bits, start, rows, nbits // rows)

    def take_prefix_block(self, width, batch) -> PrefixBlock:
        parts, _ = self._take(TAG_PREFIXNET, (width, batch))
        return PrefixBlock(width, batch, *parts)


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
    """(shape, dtype) of each part of a record of `tag` and `meta`, in the
    order the record holds and writes them, None for a part a matmul kind
    lacks; every part is written as one u64 word per element.  Dealing lays
    a stream out by it and loading parses one by it."""
    ring, words = params.dtype, np.uint64
    if tag == TAG_MATMUL:  # U and V are pure masks, each written as a seed
        u, v, w = meta.shapes()
        seed = ((SEED_WORDS,), words)
        return (None if u is None else seed, None if v is None else seed,
                None if w is None else (w, ring))
    if tag == TAG_SCALAR:
        return (((meta,), ring),) * 3
    if tag == TAG_BIT:
        return ((((1 << BIT_TUPLE_INPUTS) - 1, word_count(meta)), words),)
    if tag == TAG_CONVERSION:
        return ((meta,), ring), ((word_count(meta),), words)
    if tag == TAG_PREFIXNET:
        width, batch = meta
        plan = cached_plan(width)
        nodes, comps = len(plan.masked_nodes), len(plan.compositions)
        return tuple(((*rows, word_count(batch)), words)  # the PrefixBlock's fields
                     for rows in ((3, width), (nodes,), (nodes,), (comps,), (comps,)))
    raise FormatError(f"randomness stream: unknown record tag {tag}")


def _size(shapes) -> int:
    """Words of a record's parts, from their `part_shapes`."""
    return sum(math.prod(part[0]) for part in shapes if part is not None)


def _word_views(words: np.ndarray, pos: int, shapes) -> tuple:
    """Views of `words` from word `pos` on in the `shapes` of `part_shapes`,
    None for a part that is None, and the position after them."""
    if pos + _size(shapes) > len(words):
        raise FormatError("randomness stream: truncated record payload")
    views = []
    for part in shapes:
        if part is None:
            views.append(None)
            continue
        size = math.prod(part[0])
        views.append(words[pos:pos + size].reshape(part[0]))
        pos += size
    return views, pos


def _record_header(tag: int, meta) -> tuple:
    """The three header words of a record of `tag` and `meta`."""
    tag_byte, m = tag, (meta, 0, 0)
    if tag == TAG_MATMUL:
        tag_byte, m = tag | meta.kind << _KIND_SHIFT, meta[:3]
    elif tag == TAG_PREFIXNET:
        m = (*meta, 0)
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
        return tag, (m0, m1)
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
    for slot, part in zip(slots, parts):
        if slot is not None:
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
    """Load a stream from any bytes-like `data`, and expand the seeds of
    every matmul record into the masks its takes hand out, so no take pays
    for an expansion.  Every written part is a read-only view into `data`,
    so `data` must not change while the stream is in use; `data` that starts
    off a word boundary, such as a TCP frame's payload, is first copied once
    into an aligned buffer, and the ring parts of a ring narrower than 64
    bits are cast copies."""
    source = _parse_stream(data, params)
    for index, (tag, _, _) in enumerate(source.records):
        if tag == TAG_MATMUL:
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
        source.append(tag, meta, tuple(None if part is None else _read_only(array, part[1])
                                       for array, part in zip(views, shapes)))
    if 8 * pos != size:
        raise FormatError(f"randomness stream: {size - 8 * pos} bytes after the last record")
    source.buffer = view
    return source


def write_randomness_file(path, source: MaterializedSource):
    with open(path, "wb") as fh:
        fh.write(serialize_stream(source))


def read_randomness_file(path, params: FixedPointParams) -> MaterializedSource:
    with open(path, "rb") as fh:
        return deserialize_stream(fh.read(), params)
