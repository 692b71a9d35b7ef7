"""Correlated randomness: generation by the trusted initializer, per-party
streams, and the on-disk randomness-file format.

All material is derived from one master seed through domain-separated child
seeds, one counter per consumer tag, so a dealer run is reproducible and the
two parties' files are always consistent.  Consumption is strict FIFO per tag:
both parties issue identical requests in identical order, which is what keeps
their shares aligned without negotiation.

Every party stream is a MaterializedSource, a list of CRN1 records: dealt up
front into a file or a TI frame, or, for an OnDemandSource, the same records
dealt one at a time as they are taken.
"""

from __future__ import annotations

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


class MatmulDims(NamedTuple):
    """Shape and kind of one TAG_MATMUL record.

    U is always i x j.  The mask record carries U alone (k = 0); the records
    that reuse it carry only a fresh V and its product W with U or Uᵀ.
    """

    i: int
    j: int
    k: int
    kind: int

    def shapes(self) -> tuple:
        """Shapes of (U, V, W) in the record, None for a part it lacks."""
        i, j, k, kind = self
        return {
            MATMUL_MASK: ((i, j), None, None),
            MATMUL_REUSE: (None, (j, k), (i, k)),
            MATMUL_REUSE_T: (None, (i, k), (j, k)),
        }[kind]


@dataclass
class PrefixBlock:
    """One party's masks for a single batched bit decomposition.

    Every field is a matrix of packed `batch`-bit rows: the setup triple has
    one row per bit position, the node masks one row per masked node and
    the composition products one row per composition, in plan order.
    """

    width: int
    batch: int
    setup_u: np.ndarray
    setup_v: np.ndarray
    setup_w: np.ndarray
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
    the record being read, the units of it already taken, and the units
    left in all of this tag's records."""

    index: int = 0
    offset: int = 0
    left: int = 0


def _read_bits(words: np.ndarray, start: int, nbits: int) -> np.ndarray:
    """Copy of the `nbits` bits from bit `start` on of the packed string
    `words`, or of every string in its rows.

    A start inside a word funnel-shifts each output word from two input
    words; the word past the last one holding a bit read may be absent.
    """
    first, shift = divmod(start, 64)
    count = word_count(nbits)
    out = words[..., first:first + count].copy()
    if shift:
        out >>= np.uint64(shift)
        high = words[..., first + 1:first + count + 1] << np.uint64(64 - shift)
        out[..., :high.shape[-1]] |= high
    out[..., -1] &= tail_mask(nbits)
    return out


def _write_bits(words: np.ndarray, start: int, src: np.ndarray):
    """OR the packed string `src`, or the strings in its rows, into those of
    `words`, from bit `start` on."""
    first, shift = divmod(start, 64)
    stop = first + src.shape[-1]
    if shift:
        words[..., first:stop] |= src << np.uint64(shift)
        words[..., first + 1:stop + 1] |= src >> np.uint64(64 - shift)
    else:
        words[..., first:stop] |= src


def _gather_bits(segments, nbits: int, rows: tuple, part) -> np.ndarray:
    """The `nbits` bits that `segments` (see MaterializedSource._take) cover
    of the packed strings `parts[part]` of their records, as one string per
    row; `rows` is the shape of those rows, () for a single string."""
    if len(segments) == 1:  # most takes lie within one record
        _, parts, start, count = segments[0]
        return _read_bits(parts[part], start, count)
    out = np.zeros(rows + (word_count(nbits) + 1,), dtype=np.uint64)
    pos = 0
    for _, parts, start, count in segments:
        _write_bits(out, pos, _read_bits(parts[part], start, count))
        pos += count
    return out[..., :-1]


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

    def _matmul_parts(self, dims, rng):
        """Both parties' (U, V, W) parts of one TAG_MATMUL record, None for a
        part its kind lacks (see MatmulDims)."""
        dims = MatmulDims(*dims)
        i, j, k, kind = dims
        if kind == MATMUL_MASK:
            u = random_ring_array(rng, self.params, (i, j))
            self._masks[(i, j)] = u
            ua, ub = _share_ring(u, self.params, rng)
            return (ua, None, None), (ub, None, None)
        u = self._masks.get((i, j))
        if u is None:
            raise ProtocolError(f"no {i}x{j} mask dealt before the record {dims}")
        _, v_shape, _ = dims.shapes()
        v = random_ring_array(rng, self.params, v_shape)
        w = u @ v if kind == MATMUL_REUSE else np.einsum("ij,ik->jk", u, v)
        (va, vb), (wa, wb) = _share_ring(v, self.params, rng), _share_ring(w, self.params, rng)
        return (None, va, wa), (None, vb, wb)

    def _prefix_parts(self, width: int, batch: int, rng):
        """Both parties' parts of one TAG_PREFIXNET record, seven matrices of
        packed `batch`-bit rows: the setup triple, one row per bit position,
        then the node masks and the composition products."""
        plan = cached_plan(width)
        setup_a, setup_b = make_bit_triple(width, batch, rng)

        def draw_rows(per_row: int, nrows: int):
            rows = random_bit_rows(rng, per_row * nrows, batch).reshape(nrows, per_row, -1)
            return [np.ascontiguousarray(rows[:, i]) for i in range(per_row)]

        # each masked node draws its p and g masks, then Alice's shares of them
        p_val, g_val, p_a, g_a = draw_rows(4, len(plan.masked_nodes))
        # The higher-position run is the left factor of the matrix product, so
        # the cross product couples its propagate mask with the lower run's
        # generate mask.
        pp_a, pg_a = draw_rows(2, len(plan.compositions))
        lo, hi = plan.comp_lo, plan.comp_hi
        pp_b = p_val[hi] & p_val[lo] ^ pp_a
        pg_b = p_val[hi] & g_val[lo] ^ pg_a
        return ((*setup_a, p_a, g_a, pp_a, pg_a),
                (*setup_b, p_val ^ p_a, g_val ^ g_a, pp_b, pg_b))

    def block(self, tag: int, meta):
        """Both parties' parts of the next CRN1 record of `tag`, in the layout
        they are written in (see MaterializedSource); `meta` is as in
        `generate`."""
        rng = self._rng(tag)
        if tag == TAG_SCALAR:
            # no names for u and v, so they are freed before the halves are copied
            halves = make_ring_triple(random_ring_array(rng, self.params, (meta,)),
                                      random_ring_array(rng, self.params, (meta,)),
                                      self.params, rng)
            return tuple(np.array(half) for half in halves)
        if tag == TAG_BIT:
            return tuple(half[:, 0] for half in make_bit_triple(1, meta, rng, BIT_TUPLE_INPUTS))
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
        """Materialize both parties' streams for an explicit request list.

        Each request is (tag, meta): n for pools, MatmulDims for matmul,
        (width, batch) for prefix-network blocks.
        """
        sa = MaterializedSource(self.params, self.session_id)
        sb = MaterializedSource(self.params, self.session_id)
        for tag, meta in requests:
            meta = _meta(tag, meta)
            a, b = self.block(tag, meta)
            sa.append(tag, meta, a)
            sb.append(tag, meta, b)
        return sa, sb


def session_id_from_seed(master_seed: int) -> int:
    seq = np.random.SeedSequence([_DOMAIN, int(master_seed) & (2 ** 64 - 1), 0xFF])
    return int(seq.generate_state(1, np.uint64)[0])


class MaterializedSource:
    """A party's stream of correlated randomness: dealer output, file
    contents, TI bytes, or records dealt as they are taken (OnDemandSource).

    The stream is `records`, its CRN1 records in order, each (tag, meta,
    parts) with `parts` in the layout they are written in: a (3, n) matrix
    of u, v, w for a pool of n ring triples, a (15, words) matrix of packed
    n-bit strings for a pool of n AND tuples (string S - 1 holding the
    subset product r_S, see `make_bit_triple`), the n ring shares and the
    n-bit string of Z_2 shares of a pool of n daBits, the (U, V, W) parts
    of a matmul record with None for a part its kind lacks, and the seven
    matrices of packed `batch`-bit rows of a prefix-network record, those
    of its PrefixBlock.  A take only moves a cursor over its tag's records;
    pooled takes may cross records.
    """

    def __init__(self, params: FixedPointParams, session_id: int = 0):
        self.params = params
        self.session_id = session_id
        self.records = []
        self._cursors = {tag: _Cursor() for tag in _TAG_NAMES}

    def append(self, tag: int, meta, parts):
        """Add one record; `meta` is n for a pool, a MatmulDims for matmul
        and (width, batch) for prefix-network."""
        self.records.append((tag, meta, parts))
        self._cursors[tag].left += _units(tag, meta)

    def _take(self, tag: int, meta) -> list:
        """(meta, parts, start, count) of every record that the units a
        request of `tag` needs come from, in order: the next `meta` units of
        a pool, or the next record, which must have this meta."""
        n = _units(tag, meta)
        cur = self._cursors[tag]
        if cur.left < n:
            raise RandomnessUnderflowError(
                f"{_TAG_NAMES[tag]} randomness exhausted: requested {n}, have {cur.left}"
            )
        cur.left -= n
        segments = []
        while n:
            rtag, rmeta, parts = self.records[cur.index]
            count = min(n, _units(tag, rmeta) - cur.offset) if rtag == tag else 0
            if count > 0:
                segments.append((rmeta, parts, cur.offset, count))
                cur.offset += count
                n -= count
            else:
                cur.index += 1
                cur.offset = 0
        if tag not in _POOLED and segments[0][0] != meta:
            raise ProtocolError(
                f"{_TAG_NAMES[tag]} record mismatch: stream has {segments[0][0]}, requested {meta}"
            )
        return segments

    def take_ring_triples(self, n):
        pieces = [parts[:, start:start + count]
                  for _, parts, start, count in self._take(TAG_SCALAR, n)]
        if len(pieces) == 1:  # views, as most takes lie within one record
            return tuple(pieces[0])
        return tuple(np.concatenate([np.empty((3, 0), self.params.dtype), *pieces], axis=1))

    def take_matmul_triple(self, dims):
        """(U, V, W) parts of the next TAG_MATMUL record, None where the
        record's kind lacks a part; raises ProtocolError if its dims differ."""
        [(_, parts, _, _)] = self._take(TAG_MATMUL, _meta(TAG_MATMUL, dims))
        return parts

    def take_bit_triples(self, n, k=2):
        """Next `n` AND tuples, for gates of k inputs: the first 2^k - 1
        strings of each, as a (2^k - 1, words) matrix of packed n-bit
        strings.  At k = 2 they are the triples u, v, w.  The name is that
        of the triple pool before it held tuples, kept because the
        benchmark's tracer wraps the method by name."""
        strings = (1 << k) - 1
        return _gather_bits(self._take(TAG_BIT, n), n, (strings,), slice(strings))

    def take_dabits(self, nbits):
        """Next `nbits` daBits: the ring shares, one word per bit, and the
        Z_2 shares as one packed string."""
        segments = self._take(TAG_CONVERSION, nbits)
        ring = [parts[0][start:start + count] for _, parts, start, count in segments]
        return (np.concatenate([np.empty(0, self.params.dtype), *ring]),
                _gather_bits(segments, nbits, (), 1))

    def take_prefix_block(self, width, batch) -> PrefixBlock:
        [(_, parts, _, _)] = self._take(TAG_PREFIXNET, (width, batch))
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

_FILE_HEADER = struct.Struct("<4sHHQI")  # magic, protocol version, ring width, session id, records
_RECORD_HEADER = struct.Struct("<BQQQ")


def _record_header(tag: int, meta) -> bytes:
    if tag == TAG_MATMUL:
        i, j, k, kind = meta
        return _RECORD_HEADER.pack(tag | kind << _KIND_SHIFT, i, j, k)
    if tag == TAG_PREFIXNET:
        return _RECORD_HEADER.pack(tag, *meta, 0)
    return _RECORD_HEADER.pack(tag, meta, 0, 0)


def serialize_stream(source: MaterializedSource) -> bytearray:
    """Serialize one party's stream, every record in order, taken or not,
    into one bytearray that each part is copied into once."""
    records = [(_record_header(tag, meta), [part for part in parts if part is not None])
               for tag, meta, parts in source.records]
    out = bytearray(_FILE_HEADER.size + sum(len(header) + sum(8 * part.size for part in parts)
                                            for header, parts in records))
    _FILE_HEADER.pack_into(out, 0, RANDOMNESS_MAGIC, PROTOCOL_VERSION, source.params.ring_bits,
                           source.session_id, len(records))
    off = _FILE_HEADER.size
    for header, parts in records:
        out[off:off + len(header)] = header
        off += len(header)
        for part in parts:
            np.frombuffer(out, np.uint64, part.size, off).reshape(part.shape)[...] = part
            off += 8 * part.size
    return out


def deserialize_stream(data, params: FixedPointParams) -> MaterializedSource:
    """Load a stream from any bytes-like `data`; every part is copied out of
    it into an aligned array of its own, wherever in `data` it lies."""
    if len(data) < _FILE_HEADER.size:
        raise FormatError("randomness stream: truncated header")
    magic, version, ring_bits, session_id, nrecords = _FILE_HEADER.unpack_from(data)
    if magic != RANDOMNESS_MAGIC:
        raise FormatError(f"randomness stream: bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise FormatError(f"randomness stream of protocol version {version}, "
                          f"this build reads version {PROTOCOL_VERSION}")
    if ring_bits != params.ring_bits:
        raise FormatError(
            f"randomness stream generated for ring width {ring_bits}, session uses {params.ring_bits}"
        )
    source = MaterializedSource(params, session_id)
    off = _FILE_HEADER.size
    size = len(data)

    def take(nbytes) -> int:
        nonlocal off
        if off + nbytes > size:
            raise FormatError("randomness stream: truncated record payload")
        off += nbytes
        return off - nbytes

    def take_words(rows, cols, dtype=np.uint64):
        words = np.frombuffer(data, np.uint64, rows * cols, take(8 * rows * cols))
        return words.reshape(rows, cols).astype(dtype)

    def take_ring(rows, cols):
        return take_words(rows, cols, params.dtype)

    for _ in range(nrecords):
        tag, m0, m1, m2 = _RECORD_HEADER.unpack_from(data, take(_RECORD_HEADER.size))
        tag, kind = tag & ((1 << _KIND_SHIFT) - 1), tag >> _KIND_SHIFT
        if kind not in (_MATMUL_KINDS if tag == TAG_MATMUL else (0,)):
            raise FormatError(f"randomness stream: unknown record kind {kind} of tag {tag}")
        if tag == TAG_SCALAR:
            source.append(tag, m0, take_ring(3, m0))
        elif tag == TAG_BIT:
            source.append(tag, m0, take_words((1 << BIT_TUPLE_INPUTS) - 1, word_count(m0)))
        elif tag == TAG_CONVERSION:
            source.append(tag, m0, (take_ring(1, m0)[0], take_words(1, word_count(m0))[0]))
        elif tag == TAG_MATMUL:
            dims = MatmulDims(m0, m1, m2, kind)
            source.append(tag, dims, tuple(None if shape is None else take_ring(*shape)
                                           for shape in dims.shapes()))
        elif tag == TAG_PREFIXNET:
            if not 2 <= m0 <= params.ring_bits:
                raise FormatError(f"randomness stream: prefix-network width {m0} outside "
                                  f"2..{params.ring_bits}")
            plan = cached_plan(m0)
            nodes, comps = len(plan.masked_nodes), len(plan.compositions)
            counts = (m0, m0, m0, nodes, nodes, comps, comps)  # the PrefixBlock's rows
            source.append(tag, (m0, m1), tuple(take_words(c, word_count(m1)) for c in counts))
        else:
            raise FormatError(f"randomness stream: unknown record tag {tag}")
    if off != size:
        raise FormatError(f"randomness stream: {size - off} bytes after the last record")
    return source


def write_randomness_file(path, source: MaterializedSource):
    with open(path, "wb") as fh:
        fh.write(serialize_stream(source))


def read_randomness_file(path, params: FixedPointParams) -> MaterializedSource:
    with open(path, "rb") as fh:
        return deserialize_stream(fh.read(), params)
