"""Correlated randomness: generation by the trusted initializer, per-party
streams, and the on-disk randomness-file format.

All material is derived from one master seed through domain-separated child
seeds, one counter per consumer tag, so a dealer run is reproducible and the
two parties' files are always consistent.  Consumption is strict FIFO per tag:
both parties issue identical requests in identical order, which is what keeps
their shares aligned without negotiation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from collections import deque
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ProtocolError, RandomnessUnderflowError
from .fixedpoint import FixedPointParams
from .prefixnet import cached_plan
from .sharing import (
    Role,
    random_bits,
    random_ring_array,
    rows_to_string,
    string_to_rows,
    tail_mask,
    word_count,
)

RANDOMNESS_MAGIC = b"CRN1"

TAG_SCALAR = 1      # pooled ring triples for elementwise multiplication
TAG_MATMUL = 2      # matrix triples, one block per multiplication
TAG_BIT = 3         # pooled bit triples for Z_2 multiplication
TAG_CONVERSION = 4  # pooled ring triples reserved for bit-to-ring conversion
TAG_PREFIXNET = 5   # per-decomposition mask schedule blocks

_TAG_NAMES = {
    TAG_SCALAR: "scalar-mul",
    TAG_MATMUL: "matmul",
    TAG_BIT: "bit-mul",
    TAG_CONVERSION: "conversion",
    TAG_PREFIXNET: "prefix-network",
}

# Kinds of TAG_MATMUL record; a CRN1 record keeps its kind in the high bits
# of the tag byte.
MATMUL_TRIPLE = 0   # U, V and W = U·V
MATMUL_MASK = 1     # U alone: the fixed mask of a matrix X that is opened once as X - U
MATMUL_REUSE = 2    # V and W = U·V, against the last mask of the same shape
MATMUL_REUSE_T = 3  # V and W = Uᵀ·V, against the last mask of the same shape

_KIND_SHIFT = 4

_DOMAIN = 0x6D70636C  # derivation label separating dealer output from other rng users


class MatmulDims(NamedTuple):
    """Shape and kind of one TAG_MATMUL record; a plain (i, j, k) is a triple.

    U is always i x j.  The mask record carries U alone (k = 0); the records
    that reuse it carry only a fresh V and its product W with U or Uᵀ.
    """

    i: int
    j: int
    k: int
    kind: int = MATMUL_TRIPLE

    def shapes(self) -> tuple:
        """Shapes of (U, V, W) in the record, None for a part it lacks."""
        i, j, k, kind = self
        return {
            MATMUL_TRIPLE: ((i, j), (j, k), (i, k)),
            MATMUL_MASK: ((i, j), None, None),
            MATMUL_REUSE: (None, (j, k), (i, k)),
            MATMUL_REUSE_T: (None, (i, k), (j, k)),
        }[kind]


@dataclass
class MatmulBlock:
    """One party's part of a TAG_MATMUL record; absent parts are None."""

    dims: MatmulDims
    u: np.ndarray | None
    v: np.ndarray | None
    w: np.ndarray | None


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


@dataclass
class _RingPool:
    u: list = field(default_factory=list)
    v: list = field(default_factory=list)
    w: list = field(default_factory=list)
    available: int = 0


def _read_bits(words: np.ndarray, start: int, nbits: int) -> np.ndarray:
    """Copy of the `nbits` bits from bit `start` on of every packed string
    in the rows of `words`.

    A start inside a word funnel-shifts each output word from two input
    words; `words` must hold one word past the last bit read.
    """
    first, shift = divmod(start, 64)
    count = word_count(nbits)
    out = words[:, first:first + count].copy()
    if shift:
        out >>= np.uint64(shift)
        out |= words[:, first + 1:first + count + 1] << np.uint64(64 - shift)
    out[:, -1] &= tail_mask(nbits)
    return out


def _write_bits(words: np.ndarray, start: int, src: np.ndarray):
    """OR the packed strings in the rows of `src` into those of `words`,
    from bit `start` on."""
    first, shift = divmod(start, 64)
    stop = first + src.shape[1]
    if shift:
        words[:, first:stop] |= src << np.uint64(shift)
        words[:, first + 1:stop + 1] |= src >> np.uint64(64 - shift)
    else:
        words[:, first:stop] |= src


class _BitPool:
    """Bit triples as the rows u, v, w of one packed-string matrix, plus a
    read cursor.

    Appended records queue up and are joined onto the strings at the next
    read, so loading a stream copies every bit once.
    """

    def __init__(self):
        self.strings = np.zeros((3, 1), dtype=np.uint64)
        self.joined = 0
        self.cursor = 0
        self._queue = []

    @property
    def nbits(self) -> int:
        return self.joined + sum(n for n, _ in self._queue)

    def append(self, nbits: int, parts):
        self._queue.append((nbits, np.array(parts, dtype=np.uint64)))

    def read(self, start: int, nbits: int) -> np.ndarray:
        """The (u, v, w) strings of `nbits` triples from bit `start` on."""
        if self._queue:
            self._join()
        return _read_bits(self.strings, start, nbits)

    def _join(self):
        total = self.nbits
        strings = np.zeros((3, word_count(total) + 1), dtype=np.uint64)
        strings[:, :self.strings.shape[1]] = self.strings
        start = self.joined
        for nbits, parts in self._queue:
            _write_bits(strings, start, parts)
            start += nbits
        self.strings, self.joined, self._queue = strings, total, []


def make_ring_triple(u_vals: np.ndarray, v_vals: np.ndarray, params: FixedPointParams,
                     rng: np.random.Generator):
    """Share a multiplication triple with the given operand values.

    u_vals has shape (i, j) and v_vals (j, k) for matrices, or matching 1-d
    shapes for elementwise pools.  Returns ((uA, vA, wA), (uB, vB, wB)).
    """
    u_vals = np.asarray(u_vals, dtype=params.dtype)
    v_vals = np.asarray(v_vals, dtype=params.dtype)
    if u_vals.ndim == 2:
        w_vals = u_vals @ v_vals
    else:
        w_vals = u_vals * v_vals
    parts = [_share_ring(vals, params, rng) for vals in (u_vals, v_vals, w_vals)]
    a = tuple(p[0] for p in parts)
    b = tuple(p[1] for p in parts)
    return a, b


def _share_ring(vals: np.ndarray, params: FixedPointParams, rng: np.random.Generator):
    """Split ring values into Alice's uniform share and Bob's remainder."""
    ra = random_ring_array(rng, params, vals.shape)
    return ra, vals - ra


def make_bit_triple(nbits: int, rng: np.random.Generator, u_vals=None, v_vals=None):
    """Share a batched Z_2 triple of `nbits` bitwise products, as packed
    strings: ((uA, vA, wA), (uB, vB, wB))."""
    u = random_bits(rng, nbits) if u_vals is None else u_vals
    v = random_bits(rng, nbits) if v_vals is None else v_vals
    w = u & v
    halves = []
    for vals in (u, v, w):
        ra = random_bits(rng, nbits)
        halves.append((ra, vals ^ ra))
    return tuple(h[0] for h in halves), tuple(h[1] for h in halves)


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

    def ring_pool_block(self, n: int, tag: int):
        rng = self._rng(tag)
        u = random_ring_array(rng, self.params, (n,))
        v = random_ring_array(rng, self.params, (n,))
        return make_ring_triple(u, v, self.params, rng)

    def matmul_block(self, dims):
        """Both parties' parts of one TAG_MATMUL record (see MatmulDims)."""
        dims = MatmulDims(*dims)
        i, j, k, kind = dims
        rng = self._rng(TAG_MATMUL)
        if kind == MATMUL_TRIPLE:
            u = random_ring_array(rng, self.params, (i, j))
            v = random_ring_array(rng, self.params, (j, k))
            (ua, va, wa), (ub, vb, wb) = make_ring_triple(u, v, self.params, rng)
            return MatmulBlock(dims, ua, va, wa), MatmulBlock(dims, ub, vb, wb)
        if kind == MATMUL_MASK:
            u = random_ring_array(rng, self.params, (i, j))
            self._masks[(i, j)] = u
            ua, ub = _share_ring(u, self.params, rng)
            return MatmulBlock(dims, ua, None, None), MatmulBlock(dims, ub, None, None)
        u = self._masks.get((i, j))
        if u is None:
            raise ProtocolError(f"no {i}x{j} mask dealt before the record {dims}")
        _, v_shape, _ = dims.shapes()
        v = random_ring_array(rng, self.params, v_shape)
        w = u @ v if kind == MATMUL_REUSE else np.einsum("ij,ik->jk", u, v)
        (va, vb), (wa, wb) = _share_ring(v, self.params, rng), _share_ring(w, self.params, rng)
        return MatmulBlock(dims, None, va, wa), MatmulBlock(dims, None, vb, wb)

    def bit_pool_block(self, nbits: int):
        rng = self._rng(TAG_BIT)
        return make_bit_triple(nbits, rng)

    def prefix_block(self, width: int, batch: int):
        plan = cached_plan(width)
        rng = self._rng(TAG_PREFIXNET)
        setup_a, setup_b = (
            [string_to_rows(s, width, batch) for s in half]
            for half in make_bit_triple(width * batch, rng)
        )

        def draw_rows(per_row: int, nrows: int):
            draws = [random_bits(rng, batch) for _ in range(per_row * nrows)]
            rows = np.array(draws, dtype=np.uint64).reshape(nrows, per_row, -1)
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

        block_a = PrefixBlock(width, batch, *setup_a, p_a, g_a, pp_a, pg_a)
        block_b = PrefixBlock(width, batch, *setup_b, p_val ^ p_a, g_val ^ g_a, pp_b, pg_b)
        return block_a, block_b

    def generate(self, requests):
        """Materialize both parties' streams for an explicit request list.

        Each request is (tag, meta): n for pools, MatmulDims or a plain
        (i, j, k) for matmul, (width, batch) for prefix-network blocks.
        """
        sa = MaterializedSource(self.params, self.session_id)
        sb = MaterializedSource(self.params, self.session_id)
        for tag, meta in requests:
            if tag in (TAG_SCALAR, TAG_CONVERSION):
                a, b = self.ring_pool_block(int(meta), tag)
                sa._append_ring(tag, int(meta), a)
                sb._append_ring(tag, int(meta), b)
            elif tag == TAG_MATMUL:
                meta = MatmulDims(*meta)
                a, b = self.matmul_block(meta)
                sa._append_matmul(a)
                sb._append_matmul(b)
            elif tag == TAG_BIT:
                a, b = self.bit_pool_block(int(meta))
                sa._append_bits(int(meta), a)
                sb._append_bits(int(meta), b)
            elif tag == TAG_PREFIXNET:
                a, b = self.prefix_block(*meta)
                sa._append_prefix(a)
                sb._append_prefix(b)
            else:
                raise ValueError(f"unknown randomness tag {tag}")
            sa._records.append((tag, meta))
            sb._records.append((tag, meta))
        return sa, sb


def session_id_from_seed(master_seed: int) -> int:
    seq = np.random.SeedSequence([_DOMAIN, int(master_seed) & (2 ** 64 - 1), 0xFF])
    return int(seq.generate_state(1, np.uint64)[0])


class RandomnessSource:
    """Consumption interface shared by file-backed and on-demand streams."""

    def take_ring_triples(self, n: int, tag: int = TAG_SCALAR):
        raise NotImplementedError

    def take_matmul_triple(self, dims):
        """(U, V, W) parts of the next TAG_MATMUL record, None where the
        record's kind lacks a part; raises ProtocolError if its dims differ."""
        raise NotImplementedError

    def take_bit_triples(self, nbits: int):
        raise NotImplementedError

    def take_prefix_block(self, width: int, batch: int) -> PrefixBlock:
        raise NotImplementedError


class MaterializedSource(RandomnessSource):
    """Finite pre-generated stream: dealer output, file contents, or TI bytes."""

    def __init__(self, params: FixedPointParams, session_id: int = 0):
        self.params = params
        self.session_id = session_id
        self._ring = {TAG_SCALAR: _RingPool(), TAG_CONVERSION: _RingPool()}
        self._bits = _BitPool()
        self._matmul = deque()
        self._prefix = deque()
        self._records = []

    # -- dealer-side appends ------------------------------------------------

    def _append_ring(self, tag, n, parts):
        pool = self._ring[tag]
        u, v, w = parts
        pool.u.append(np.asarray(u))
        pool.v.append(np.asarray(v))
        pool.w.append(np.asarray(w))
        pool.available += n

    def _append_bits(self, nbits, parts):
        self._bits.append(nbits, parts)

    def _append_matmul(self, block):
        self._matmul.append(block)

    def _append_prefix(self, block):
        self._prefix.append(block)

    # -- consumption ---------------------------------------------------------

    def _pool_take(self, pool, n, tag):
        if pool.available < n:
            raise RandomnessUnderflowError(
                f"{_TAG_NAMES[tag]} pool exhausted: requested {n}, have {pool.available}"
            )
        out = []
        for lst in (pool.u, pool.v, pool.w):
            got = []
            need = n
            while need:
                head = lst[0]
                if len(head) <= need:
                    got.append(head)
                    lst.pop(0)
                    need -= len(head)
                else:
                    got.append(head[:need])
                    lst[0] = head[need:]
                    need = 0
            out.append(np.concatenate(got) if len(got) != 1 else got[0])
        pool.available -= n
        return tuple(out)

    def take_ring_triples(self, n, tag=TAG_SCALAR):
        return self._pool_take(self._ring[tag], n, tag)

    def take_matmul_triple(self, dims):
        if not self._matmul:
            raise RandomnessUnderflowError("matmul triple stream exhausted")
        block = self._matmul.popleft()
        dims = MatmulDims(*dims)
        if block.dims != dims:
            raise ProtocolError(
                f"matmul triple dims mismatch: stream has {block.dims}, requested {dims}"
            )
        return block.u, block.v, block.w

    def take_bit_triples(self, nbits):
        """Next `nbits` bit triples as three packed strings (u, v, w)."""
        pool = self._bits
        have = pool.nbits - pool.cursor
        if have < nbits:
            raise RandomnessUnderflowError(
                f"bit-triple pool exhausted: requested {nbits}, have {have}"
            )
        u, v, w = pool.read(pool.cursor, nbits)
        pool.cursor += nbits
        return u, v, w

    def take_prefix_block(self, width, batch):
        if not self._prefix:
            raise RandomnessUnderflowError("prefix-network mask stream exhausted")
        block = self._prefix.popleft()
        if (block.width, block.batch) != (width, batch):
            raise ProtocolError(
                f"prefix block mismatch: stream has {(block.width, block.batch)}, "
                f"requested {(width, batch)}"
            )
        return block


class OnDemandSource(RandomnessSource):
    """Derives this party's half of each request lazily from the master seed.

    Both parties construct one of these with the same seed; because each
    request regenerates the full dealer block and keeps only one half, the two
    views stay consistent without any communication.  Intended for tests,
    local mode and benchmarks; networked runs use files or TI streaming.
    """

    def __init__(self, master_seed: int, role: Role, params: FixedPointParams):
        self.params = params
        self.role = role
        self.session_id = session_id_from_seed(master_seed)
        self._dealer = TrustedDealer(master_seed, params)

    def _half(self, pair):
        return pair[0] if self.role is Role.ALICE else pair[1]

    def take_ring_triples(self, n, tag=TAG_SCALAR):
        return self._half(self._dealer.ring_pool_block(n, tag))

    def take_matmul_triple(self, dims):
        block = self._half(self._dealer.matmul_block(dims))
        return block.u, block.v, block.w

    def take_bit_triples(self, nbits):
        return self._half(self._dealer.bit_pool_block(nbits))

    def take_prefix_block(self, width, batch):
        return self._half(self._dealer.prefix_block(width, batch))


# ---------------------------------------------------------------------------
# Serialization: CRN1 randomness files
# ---------------------------------------------------------------------------

_FILE_HEADER = struct.Struct("<4sHQI")
_RECORD_HEADER = struct.Struct("<BQQQ")


def serialize_stream(source: MaterializedSource) -> bytes:
    """Serialize one party's stream; records keep generation order."""
    chunks = [
        _FILE_HEADER.pack(RANDOMNESS_MAGIC, source.params.ring_bits,
                          source.session_id, len(source._records))
    ]
    ring_cursors = {TAG_SCALAR: 0, TAG_CONVERSION: 0}
    ring_concat = {
        tag: (
            np.concatenate(pool.u) if pool.u else np.empty(0, source.params.dtype),
            np.concatenate(pool.v) if pool.v else np.empty(0, source.params.dtype),
            np.concatenate(pool.w) if pool.w else np.empty(0, source.params.dtype),
        )
        for tag, pool in source._ring.items()
    }
    bit_cursor = 0
    matmul = list(source._matmul)
    prefix = list(source._prefix)
    mi = pi = 0

    for tag, meta in source._records:
        if tag in (TAG_SCALAR, TAG_CONVERSION):
            n = int(meta)
            cur = ring_cursors[tag]
            u, v, w = (arr[cur:cur + n] for arr in ring_concat[tag])
            ring_cursors[tag] = cur + n
            payload = np.concatenate([u, v, w]).astype(np.uint64).tobytes()
            chunks.append(_RECORD_HEADER.pack(tag, n, 0, 0) + payload)
        elif tag == TAG_BIT:
            n = int(meta)
            body = source._bits.read(bit_cursor, n).tobytes()
            bit_cursor += n
            chunks.append(_RECORD_HEADER.pack(tag, n, 0, 0) + body)
        elif tag == TAG_MATMUL:
            block = matmul[mi]
            mi += 1
            i, j, k, kind = block.dims
            payload = b"".join(
                arr.astype(np.uint64).tobytes()
                for arr in (block.u, block.v, block.w) if arr is not None
            )
            chunks.append(_RECORD_HEADER.pack(tag | kind << _KIND_SHIFT, i, j, k) + payload)
        elif tag == TAG_PREFIXNET:
            block = prefix[pi]
            pi += 1
            body = [
                rows_to_string(rows, block.batch).tobytes()
                for rows in (block.setup_u, block.setup_v, block.setup_w)
            ]
            body += [rows.tobytes() for rows in
                     (block.mask_p, block.mask_g, block.prod_pp, block.prod_pg)]
            chunks.append(_RECORD_HEADER.pack(tag, block.width, block.batch, 0) + b"".join(body))
        else:
            raise ValueError(f"unknown tag {tag}")
    return b"".join(chunks)


def deserialize_stream(data: bytes, params: FixedPointParams) -> MaterializedSource:
    if len(data) < _FILE_HEADER.size:
        raise FormatError("randomness stream: truncated header")
    magic, ring_bits, session_id, nrecords = _FILE_HEADER.unpack_from(data)
    if magic != RANDOMNESS_MAGIC:
        raise FormatError(f"randomness stream: bad magic {magic!r}")
    if ring_bits != params.ring_bits:
        raise FormatError(
            f"randomness stream generated for ring width {ring_bits}, session uses {params.ring_bits}"
        )
    source = MaterializedSource(params, session_id)
    off = _FILE_HEADER.size
    word = np.dtype(np.uint64).itemsize

    def take(nbytes):
        nonlocal off
        if off + nbytes > len(data):
            raise FormatError("randomness stream: truncated record payload")
        out = data[off:off + nbytes]
        off += nbytes
        return out

    def take_words(count):
        return np.frombuffer(take(count * word), dtype=np.uint64)

    for _ in range(nrecords):
        raw = take(_RECORD_HEADER.size)
        tag, m0, m1, m2 = _RECORD_HEADER.unpack(raw)
        tag, kind = tag & ((1 << _KIND_SHIFT) - 1), tag >> _KIND_SHIFT
        if kind and (tag != TAG_MATMUL or kind > MATMUL_REUSE_T):
            raise FormatError(f"randomness stream: unknown record kind {kind} of tag {tag}")
        if tag in (TAG_SCALAR, TAG_CONVERSION):
            n = m0
            words = take_words(3 * n)
            u, v, w = (words[i * n:(i + 1) * n].astype(params.dtype) for i in range(3))
            source._append_ring(tag, n, (u, v, w))
            source._records.append((tag, n))
        elif tag == TAG_BIT:
            n = m0
            source._append_bits(n, take_words(3 * word_count(n)).reshape(3, -1))
            source._records.append((tag, n))
        elif tag == TAG_MATMUL:
            dims = MatmulDims(m0, m1, m2, kind)
            parts = [
                None if shape is None else
                take_words(shape[0] * shape[1]).reshape(shape).astype(params.dtype)
                for shape in dims.shapes()
            ]
            source._append_matmul(MatmulBlock(dims, *parts))
            source._records.append((tag, dims))
        elif tag == TAG_PREFIXNET:
            width, batch = m0, m1
            plan = cached_plan(width)
            setup = [string_to_rows(take_words(word_count(width * batch)), width, batch).copy()
                     for _ in range(3)]
            rows = [take_words(count * word_count(batch)).reshape(count, -1).copy()
                    for count in (len(plan.masked_nodes), len(plan.masked_nodes),
                                  len(plan.compositions), len(plan.compositions))]
            source._append_prefix(PrefixBlock(width, batch, *setup, *rows))
            source._records.append((tag, (width, batch)))
        else:
            raise FormatError(f"randomness stream: unknown record tag {tag}")
    return source


def write_randomness_file(path, source: MaterializedSource):
    with open(path, "wb") as fh:
        fh.write(serialize_stream(source))


def read_randomness_file(path, params: FixedPointParams) -> MaterializedSource:
    with open(path, "rb") as fh:
        return deserialize_stream(fh.read(), params)
