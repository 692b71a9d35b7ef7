"""Correlated randomness: generation by the trusted initializer, per-party
streams, and the on-disk randomness-file format.

All material is derived from one master seed through domain-separated child
seeds, one counter per consumer tag, so a dealer run is reproducible and the
two parties' files are always consistent.  A stream holds exactly the
records of its run's request plan, in plan order, and is read in that
order: both parties issue identical requests in identical order, which is
what keeps their shares aligned without negotiation.  Every take reads the
stream's next record whole, and refuses a record of another kind or size,
except a take of AND triples (TAG_BIT), which reads the next triples of the
pool that the next record holds and never gathers them from the record
after it.

Every party stream is a MaterializedSource, a list of CRN1 records.  A dealt
or loaded stream lives in one CRN1 buffer: the dealer lays both parties'
buffers out from the request plan and deals each record straight into its
slots, `serialize_stream` returns that buffer as it is, and
`deserialize_stream` keeps every part as a read-only view into the bytes it
is given.  An OnDemandSource holds the same records, dealt one at a time as
they are taken.

Every record writes its pure masks, those whose shares are uniform in both
parties' hands, as one seed per party (`expand_seed`): the u and v of
triples, over the ring or over Z_2, the Z_2 rows of a conversion's
daBits and the ring masks v of its factored row, the single masks of every
AND gate and the node masks of a prefix-network block, and the U or V of a
matrix record.  The one-sided setup products of a zero test are masked by
masks that one party holds whole: each party's seed expands to the masks
of its own operand rows.  The masks that a zero test derives from others, each
leaf's p mask and the masks of the first-level terms, which it does not
open, are not seeded: a party XORs its shares of them from its own (see `prefixnet`).
What depends on the masks (w = u·v or u AND v, the
daBits' ring shares and rho = r·v, each gate's products of two or more
masks, the composition products, and W) is dealt in balanced halves: a
party's seed also expands to its shares of one half of each such part,
Alice's the first and Bob's the last, and each party writes only its
shares of the rest.  So both parties' streams are the same size, half what
writing both shares whole takes.  `layout` states both lists for every
kind of record.  A record keeps its seed and written parts.  Its seed
expands, in one `expand_seed` call, at the record's first take, and the
expansion is kept only while the AND-triple pool has triples left, so a
party holds the expansion of the record it is reading and not of the whole
run.  The one exception is the mask U of a matrix X (`MATMUL_MASK`), which
every product over X reads: loading expands it.  A take hands out each
written part as its two flat pieces, Alice's first, where they lie: the
seeded half and the written rest.  Its reader consumes them in an
operation it runs anyway, and only the triple takes and a prefix block's
composition products join them into one array.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ProtocolError, RandomnessUnderflowError
from .fixedpoint import FixedPointParams
from .prefixnet import cached_plan, level_inputs
from .sharing import (
    Role,
    read_input,
    tail_mask,
    unpack_rows,
    word_count,
)
from .transport import MAX_PAYLOAD, PROTOCOL_VERSION

RANDOMNESS_MAGIC = b"CRN1"

TAG_SCALAR = 1      # the ring triples of one elementwise product, one record each
TAG_MATMUL = 2      # matrix masks and their products, one block per record
TAG_BIT = 3         # pooled AND triples for 2-input gates over Z_2
TAG_PREFIXNET = 5   # per-decomposition mask schedule blocks
TAG_CONVERSION = 6  # the daBits of one bit-to-ring conversion, one block per record
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
    or V, and one half of W, are written as the record's seed (see
    `layout`); the rest of W is written.
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


class DaBits(NamedTuple):
    """Meta of one TAG_CONVERSION record: the daBits of one conversion of
    `rows` packed rows of `batch` bits, random bits r shared both in Z_2
    and in the ring.  With `factored` 1, row 0's daBits also come with a
    ring mask v and the shares of rho = r·v, so that the product of a
    converted bit with a ring factor opens only the factor's masked value
    (see `engine.convert_bits_to_ring`).  Its int is `rows·batch`, the
    daBits it deals."""

    rows: int
    batch: int
    factored: int = 0

    def __int__(self) -> int:
        return self.rows * self.batch


class Part(NamedTuple):
    """One part of a record as `layout` lists it: its shape, and `bits`,
    None for ring elements, one word each, or the bits of each packed row,
    whose words the last axis of `shape` holds.  A mask part that is `own`
    is not shared: each party's seed expands to the whole mask of that
    party's own operand, and the peer holds none of it.  A seeded half of
    a written part of s elements has `half` s: Alice's seed expands to her
    shares of the part's first s // 2 elements, Bob's to his of its last
    s // 2."""

    shape: tuple
    bits: int | None
    own: bool = False
    half: int = 0


@dataclass
class PrefixBlock:
    """One party's masks for a single batched bit decomposition.

    Every array field holds packed `batch`-bit rows: `gates` holds, for
    each (k, count) group of the plan's `gate_groups`, its AND tuples as a
    (2^k - 1, count, words) array, the `rs` of an `engine.and_gates` gate
    (see `subset_products`); the node masks have one row per p or g mask
    row of the plan, and the composition products one row per network
    composition, or per one that builds p, in plan order.  A zero test's
    setup is one-sided (see `prefixnet`): `setup` is the whole mask of each
    of this party's own operand rows, one row each, and its shares of the
    setup's products of two operands' masks, as the two flat pieces a take
    hands out (see `MaterializedSource._take`); it is None for a full
    decomposition.  A zero test's leaves' p masks are its operand masks, and
    its first-level terms are masked by the XOR of their signals' masks,
    which `gates` holds like any other single masks.
    `inputs` holds, for each round of a zero test that runs gates, the masks
    of the gate inputs that it opens, one row each in the order of the rows
    they mask; it is empty for a full decomposition.
    """

    gates: list
    mask_p: np.ndarray
    mask_g: np.ndarray
    prod_pp: np.ndarray
    prod_pg: np.ndarray
    inputs: list = field(default_factory=list)
    setup: tuple | None = None


# The strings of an AND tuple of up to four inputs, string S - 1 holding r_S:
# the single masks r_i (S a power of two) expand from the seed, the other
# products are written.  A tuple of k inputs holds the first 2^k - 1 strings,
# k of them single masks.
_SINGLES = [(1 << i) - 1 for i in range(4)]


def _meta(tag: int, meta):
    """A request's meta as records keep it: n for n triples, a
    DaBits for daBits, a MatmulDims for matmul, (width, batch, zero_start)
    for prefix-network, where a request of (width, batch) is the full
    decomposition, zero_start 0."""
    if tag == TAG_MATMUL:
        return MatmulDims(*meta)
    if tag == TAG_PREFIXNET:
        return (*meta, 0)[:3]
    if tag == TAG_CONVERSION:
        return DaBits(*meta)
    return meta


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


def _join(pieces, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """A read-only copy of the flat elements lo..hi of a part's two
    `pieces` laid end to end, or of all of them."""
    first, second = pieces
    hi = len(first) + len(second) if hi is None else hi
    cut = len(first)
    joined = np.concatenate([first[lo:hi], second[max(lo - cut, 0):max(hi - cut, 0)]])
    joined.flags.writeable = False
    return joined


def _read_into(pieces, outs):
    """Copy a part's two flat `pieces`, laid end to end, into the
    C-contiguous arrays `outs`, filling one after the other."""
    first, second = pieces
    cut, lo = len(first), 0
    for out in outs:
        flat = out.reshape(-1)
        hi = lo + len(flat)
        head = min(max(cut - lo, 0), len(flat))
        flat[:head] = first[lo:hi]
        flat[head:] = second[max(lo - cut, 0):max(hi - cut, 0)]
        lo = hi


def _tuples(singles: np.ndarray, products) -> np.ndarray:
    """AND tuples of k inputs, all 2^k - 1 strings (see `subset_products`),
    from their k single masks and the two flat pieces of their products of
    two or more masks, which are copied straight into place."""
    k = len(singles)
    out = np.empty(((1 << k) - 1, *singles.shape[1:]), np.uint64)
    out[_SINGLES[:k]] = singles
    # the products between the singles 2^j and 2^(j+1) are strings 2^j..2^(j+1) - 2
    _read_into(products, [out[1 << j:(2 << j) - 1] for j in range(1, k)])
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


@functools.lru_cache(maxsize=256)
def layout(tag: int, meta) -> tuple:
    """What a record of `tag` and `meta` holds, as two tuples of `Part`s.

    The second lists, whole, the parts that depend on the masks.  Each is
    held in two halves: for a part of s elements and h = s // 2, Alice's
    shares of its first h elements and Bob's of its last h expand from
    their seeds, and each party writes its shares of the other s - h, so
    both write the middle element of an odd s.  The first tuple lists what
    a seed expands to, in the order its words fill them: the record's pure
    masks, then the seeded half of every written part."""
    masks, written = _parts(tag, meta)
    halves = (Part((math.prod(spec.shape) // 2,), spec.bits, half=math.prod(spec.shape))
              for spec in written)
    return (*masks, *halves), written


def _parts(tag: int, meta) -> tuple:
    """The pure masks of a record, and the parts that depend on them,
    whole (see `layout`)."""
    if tag in (TAG_SCALAR, TAG_BIT):  # u and v, then w = u·v over the ring or over Z_2
        size, bits = (meta, None) if tag == TAG_SCALAR else (word_count(meta), meta)
        return (Part((2, size), bits),), (Part((size,), bits),)
    if tag == TAG_CONVERSION:
        # the Z_2 rows of r and, if factored, row 0's ring masks v, then the
        # ring shares of r and those of rho = r·v
        rows, batch, factored = meta
        factors = Part((factored * batch,), None)
        return ((Part((rows, word_count(batch)), batch), factors),
                (Part((rows * batch,), None), factors))
    if tag == TAG_MATMUL:  # U or V, then W unless the record is U alone
        u, v, w = meta.shapes()
        return (Part(u or v, None),), (() if w is None else (Part(w, None),))
    if tag == TAG_PREFIXNET:
        width, batch, zero_start = meta
        plan = cached_plan(width, zero_start)

        def rows(*shape, own=False):
            return Part((*shape, word_count(batch)), batch, own)

        # every gate group's products of two or more masks, then pp and pg
        written = (*(rows((1 << k) - 1 - k, count) for k, count in plan.gate_groups),
                   rows(len(plan.pp_rows)), rows(len(plan.compositions) - plan.folded))
        g_masks = rows(len(plan.masked_nodes))
        if not zero_start:  # every gate group's single masks, then p and g
            return ((*(rows(k, count) for k, count in plan.gate_groups),
                     rows(len(plan.p_nodes)), g_masks), written)
        # The setup is one-sided: Alice's seed expands to the whole masks u
        # of her operand rows, Bob's to the masks v of his, and each party
        # writes its share of u AND v of every product of the setup.  Each
        # round's gates have one part, the masks of the inputs it opens, one
        # row each in the order of the rows they mask.  The masks derived
        # from the setup's and the leaves' g masks are not seeded (see
        # `_zero_test_masks`), so p covers the created nodes alone.
        inputs = (rows(layer.gate_inputs - layer.derived_inputs)
                  for layer in plan.rounds if layer.gates)
        return ((rows(1, plan.setup_rows, own=True), *inputs,
                 rows(len(plan.p_nodes) - width + 1), g_masks),
                (rows(plan.setup_ands), *written))
    raise FormatError(f"randomness stream: unknown record tag {tag}")


def _zero_test_masks(plan, leaf_p, masks) -> tuple:
    """A zero-test record's masks, from `masks`, what its seed stands for
    after the setup's masks (see `_parts`), and `leaf_p`, the p masks of
    positions 1..width-1: u XOR v, or a party's own setup masks, its share
    of that.  Returns the single masks of every gate group, one (k, count,
    words) array each, the masks of each round's opened gate inputs, and
    the node masks p and g.  A leaf's p mask is u XOR v, and the mask of a
    first-level term is the XOR of its three signals' masks (see
    `prefixnet`); so the dealer
    derives each mask from the plain masks, and a party its share from its
    shares, alike."""
    *inputs, p, g = masks
    mask_p = np.concatenate([leaf_p, p])
    rows = list(inputs)
    if plan.derived_terms:  # round 1 runs the first gates
        rows[0] = np.concatenate([plan.derived_xors(mask_p, g), rows[0]])
    levels = [layer.gates for layer in plan.rounds if layer.gates]
    singles = [group for level, level_rows in zip(levels, rows)
               for group in level_inputs(level_rows, level)[0]]
    return singles, inputs, mask_p, g


def _rest(size: int) -> int:
    """Elements that a party writes of a part of `size` that depends on the
    masks: all but its peer's seeded half (see `layout`)."""
    return size - size // 2


def _zero_tails(words: np.ndarray, bits: int, skip: int = 0):
    """Zero, in place, the unused tail bits of every row's last word in the
    flat `words` of packed rows of `bits` bits, `skip` words into those rows."""
    if bits % 64 or not bits:  # a row of whole words has no tail bits
        count = word_count(bits)
        words[(count - 1 - skip) % count::count] &= tail_mask(bits)


def _cut(words: np.ndarray, parts, params: FixedPointParams, role: Role) -> list:
    """Uniform `words` cut into the `parts` that `role`'s seed expands to
    (see `layout`): ring elements, cast down on a ring narrower than 64
    bits, or packed rows, their tail bits zeroed."""
    out, end = [], 0
    for spec in parts:
        start, end = end, end + math.prod(spec.shape)
        part = words[start:end]
        if spec.bits is None:
            part = part.astype(params.dtype, copy=False)
        else:  # Bob's half starts after the words that Alice's leaves
            _zero_tails(part, spec.bits, _rest(spec.half) if role is Role.BOB else 0)
        out.append(part.reshape(spec.shape))
    return out


def expand_masks(seed, tag: int, meta, params: FixedPointParams, role: Role) -> tuple:
    """What `role`'s seed of a record expands to, as `layout` lists it, in
    one `expand_seed` call: the list of its pure masks, and that of its
    seeded halves of the written parts."""
    seeded, written = layout(tag, meta)
    parts = _cut(expand_seed(seed, _size(seeded)), seeded, params, role)
    count = len(seeded) - len(written)
    return parts[:count], parts[count:]


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
        written as shares after its seed (see `layout`)."""
        if tag in (TAG_SCALAR, TAG_BIT):
            (uv,) = masks
            return [uv[0] * uv[1] if tag == TAG_SCALAR else uv[0] & uv[1]]
        if tag == TAG_CONVERSION:
            r, v = masks
            ring = unpack_rows(r, meta.batch).reshape(-1).astype(self.params.dtype)
            return [ring, ring[:len(v)] * v]
        if tag == TAG_PREFIXNET:
            plan = cached_plan(meta[0], meta[2])
            setup = []
            if plan.zero_start:  # the setup's u and v, then the masks they leave
                (u, v), *masks = masks
                alice, bob = plan.fold.products.T
                setup = [u[alice] & v[bob]]
                singles, _, p, g = _zero_test_masks(plan, (u ^ v)[:plan.width - 1], masks)
            else:
                *singles, p, g = masks
            # The higher-position run is the left factor of the matrix product,
            # so the cross product couples its propagate mask with the lower
            # run's generate mask.
            return [*setup,
                    *(np.delete(subset_products(r), _SINGLES[:len(r)], 0) for r in singles),
                    p[plan.pp_hi] & p[plan.pp_lo], p[plan.comp_hi] & g[plan.comp_lo]]
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

    def block(self, tag: int, meta, slots=None):
        """Both parties' parts of the next CRN1 record of `tag`, as
        `part_shapes` lists them; `meta` is as in `generate`.  They are
        written into `slots`, if given, each party's list of writable
        arrays of those shapes (see `_new_stream`), or else into new ones.

        The record's generator draws both parties' seeds, and each seed
        expands to its party's masks and seeded halves (see `layout`).  Each
        mask is the sum, or for bits the XOR, of the two expansions of it,
        or for an `own` part the two expansions one after the other, Alice's
        first.  Of each part that depends on the masks, each party writes
        the rest of what its peer's seeded half leaves, and, for an odd
        size, its share of the middle element: the generator then draws
        Alice's share of each such middle, one raw word cut like masks (see
        `_cut`), in part order, and Bob's is the rest."""
        meta = _meta(tag, meta)
        rng = self._rng(tag)
        seeds = rng.integers(0, 1 << 64, size=(2, SEED_WORDS), dtype=np.uint64)
        seeded, written = layout(tag, meta)
        (masks, halves_a), (other, halves_b) = (expand_masks(seed, tag, meta, self.params, role)
                                                for seed, role in zip(seeds, Role))
        for i, (mask, more, spec) in enumerate(zip(masks, other, seeded)):
            if spec.own:
                masks[i] = np.concatenate([mask, more])
            elif spec.bits is None:  # Alice's becomes the mask
                mask += more
            else:
                mask ^= more
        values = self._products(tag, meta, masks)
        if slots is None:
            slots = [[np.empty(*part) for part in part_shapes(tag, meta, self.params)]
                     for _ in Role]
        (seed_a, *alice), (seed_b, *bob) = slots
        seed_a[...], seed_b[...] = seeds
        odd = np.cumsum([0, *(value.size % 2 for value in values)])
        middles = rng.bit_generator.random_raw(odd[-1])
        for i, (value, half_a, half_b, spec) in enumerate(zip(values, halves_a, halves_b, written)):
            value, h = value.reshape(-1), len(half_a)
            minus = np.subtract if spec.bits is None else np.bitwise_xor
            middle = middles[odd[i]:odd[i + 1]]
            if spec.bits is None:
                middle = middle.astype(self.params.dtype)
            else:
                _zero_tails(middle, spec.bits, h)
            # in the ring's dtype, whatever the slot's
            minus(value[value.size - h:], half_b, out=alice[i][len(middle):], dtype=value.dtype)
            minus(value[:h], half_a, out=bob[i][:h], dtype=value.dtype)
            alice[i][:len(middle)] = middle
            bob[i][h:] = minus(value[h:value.size - h], middle)
        return slots

    def generate(self, requests):
        """Deal both parties' streams for an explicit request list, each
        record straight into its slots of the two CRN1 buffers; every part
        of the streams returned is a view into its party's buffer.  No seed
        of theirs is expanded here, not even X's mask, which loading
        expands: every record of a dealt stream expands at its first take.

        Each request is (tag, meta): n for triples, DaBits for daBits,
        MatmulDims for matmul, (width, batch) or (width, batch, zero_start)
        for prefix-network blocks.
        """
        plan = [(tag, _meta(tag, meta)) for tag, meta in requests]
        streams = [_new_stream(self.params, self.session_id, plan, role) for role in Role]
        for index, (tag, meta) in enumerate(plan):
            self.block(tag, meta, [slots[index] for _, slots in streams])
        return tuple(_parse_stream(words, self.params) for words, _ in streams)


def session_id_from_seed(master_seed: int) -> int:
    seq = np.random.SeedSequence([_DOMAIN, int(master_seed) & (2 ** 64 - 1), 0xFF])
    return int(seq.generate_state(1, np.uint64)[0])


class MaterializedSource:
    """A party's stream of correlated randomness: dealer output, file
    contents, TI bytes, or records dealt as they are taken (OnDemandSource).

    The stream is `role`'s, and `records`, its CRN1 records in order, each
    (tag, meta, parts) with `parts` the arrays that the record writes, in
    the order of `part_shapes`: this party's seed, then its shares of what
    the seed leaves of what depends on the masks.  `buffer` is the CRN1
    bytes that a dealt or loaded stream's parts are read-only views into,
    None once a record is appended.  The records are read in order from
    one read position, `_next`: a take reads the record there whole, or, of
    an AND-triple pool, its next triples from triple `_taken` on (see
    `_take`).  A take reads the masks and seeded halves that the record's
    seed expands to, read-only, and hands out each written part as its two
    flat pieces, Alice's first.  A triple take joins the words of w it
    reads, and hands the bits of a pool back as the rows its gate reads,
    not as the string that the record holds them in.  `_expanded` holds
    the expansions kept between takes: those of X's mask records from
    loading, and that of a pool with triples left.
    """

    def __init__(self, params: FixedPointParams, role: Role, session_id: int = 0):
        self.params = params
        self.role = role
        self.session_id = session_id
        self.records = []
        self.buffer = None
        self._next = 0   # index of the record that the next take reads
        self._taken = 0  # triples already taken of that record, if it is a pool
        self._expanded = {}  # record index -> its masks and seeded halves, until used up

    def append(self, tag: int, meta, parts):
        """Add one record; `meta` is as a request gives it (see `_meta`)."""
        self.records.append((tag, _meta(tag, meta), parts))
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
        """(masks, products, start) of the stream's next record, which a
        request of `tag` and `meta` reads: the next `meta` triples of an
        AND-triple pool, from triple `start` on, or else the whole record,
        which must have this meta.  `masks` are the pure masks that the
        record's seed expands to, and `products` this party's shares of
        each part that depends on them, whole, as its two flat pieces,
        Alice's first (see `layout`): its seeded half and its written rest,
        where they lie.  The seed expands in one `expand_seed` call at the
        record's first take, unless loading kept its expansion; a pool's
        expansion is kept across its takes and dropped with the take that
        uses the pool up.  A next record of another tag or meta raises
        ProtocolError; a take past the last record, or a pool take that
        does not fit in what is left of its pool, raises
        RandomnessUnderflowError, whatever a later record holds."""
        index, start = self._next, self._taken
        if index == len(self.records):
            raise RandomnessUnderflowError(f"{_TAG_NAMES[tag]} randomness exhausted: "
                                           f"requested {meta if tag == TAG_BIT else 1}, have 0")
        rtag, rmeta, (_, *written) = self.records[index]
        if rtag != tag:
            raise ProtocolError(f"randomness record {index} is {_TAG_NAMES[rtag]} {rmeta}, "
                                f"requested {_TAG_NAMES[tag]} {meta}")
        pool = tag == TAG_BIT
        if not pool and rmeta != meta:
            raise ProtocolError(
                f"{_TAG_NAMES[tag]} record mismatch: stream has {rmeta}, requested {meta}")
        if pool and meta > rmeta - start:
            raise RandomnessUnderflowError(f"{_TAG_NAMES[tag]} randomness exhausted: "
                                           f"requested {meta}, have {rmeta - start}")
        expansion = self._expanded.pop(index, None) or self._expand(index)
        if pool and start + meta < rmeta:  # the pool has triples left
            self._taken += meta
            self._expanded[index] = expansion
        else:  # used up: the next take reads the next record
            self._next, self._taken = index + 1, 0
        masks, halves = expansion
        alice = self.role is Role.ALICE
        return masks, [(half, part) if alice else (part, half)
                       for half, part in zip(halves, written)], start

    def _expand(self, index: int) -> tuple:
        """The masks and seeded halves that this party's seed of record
        `index` expands to (see `layout`), read-only."""
        tag, meta, (seed, *_) = self.records[index]
        masks, halves = expand_masks(seed, tag, meta, self.params, self.role)
        for part in (*masks, *halves):
            part.flags.writeable = False
        return masks, halves

    def take_ring_triples(self, n):
        """The next TAG_SCALAR record, which must hold `n` ring triples: u,
        v and w = u·v, w joined from its two pieces."""
        (uv,), (w,), _ = self._take(TAG_SCALAR, n)
        return uv[0], uv[1], _join(w)

    def take_matmul_triple(self, dims):
        """(U, V, W) parts of the next TAG_MATMUL record, None where the
        record's kind lacks a part, W as its two flat pieces, Alice's
        first; raises ProtocolError if its dims differ."""
        dims = _meta(TAG_MATMUL, dims)
        (mask,), written, _ = self._take(TAG_MATMUL, dims)
        return (mask, None, None) if dims.kind == MATMUL_MASK else (None, mask, *written)

    def take_bit_triples(self, n, rows=1):
        """Next `n` AND triples over `rows` rows of n / rows bits: u, v and
        w = u AND v as a (3, rows, word_count(n // rows)) array of packed
        rows, the `rs` of a 2-input `engine.and_gates` gate.  Of w's string
        only the words the take reads are joined.  The benchmark's tracer
        wraps the method by name and reads n as its first argument."""
        (uv,), (w,), start = self._take(TAG_BIT, n)
        first = start // 64  # the take's bits, from inside this word on
        w = _join(w, first, first + word_count(n) + 1)
        return np.concatenate([_read_rows(uv, start, rows, n // rows),
                               _read_rows(w, start % 64, rows, n // rows)[None]])

    def take_dabits(self, rows, batch, factored=0):
        """The next TAG_CONVERSION record, which must be DaBits(rows, batch,
        factored): the ring shares of its daBits, one word each, row after
        row, their Z_2 shares as a (rows, word_count(batch)) matrix of
        packed rows, and row 0's ring masks v and shares of rho = r·v, both
        empty unless `factored`.  The ring shares and rho come as the two
        flat pieces of their parts, Alice's first."""
        (bits, v), (ring, rho), _ = self._take(TAG_CONVERSION, DaBits(rows, batch, factored))
        return ring, bits, v, rho

    def take_prefix_block(self, width, batch, zero_start=0) -> PrefixBlock:
        masks, (*products, pp, pg), _ = self._take(TAG_PREFIXNET, (width, batch, zero_start))
        setup, inputs = None, []
        if zero_start:  # one-sided setup: the own operand rows' masks, then w where it lies
            (own, *masks), (w, *products) = masks, products
            singles, inputs, mask_p, mask_g = _zero_test_masks(
                cached_plan(width, zero_start), own[0, :width - 1], masks)
            mask_p.flags.writeable = False
            setup = own[0], w
        else:
            *singles, mask_p, mask_g = masks
        gates = [_tuples(r, w) for r, w in zip(singles, products)]
        rows = (-1, *mask_p.shape[1:])
        return PrefixBlock(gates, mask_p, mask_g, _join(pp).reshape(rows),
                           _join(pg).reshape(rows), inputs, setup)


class OnDemandSource(MaterializedSource):
    """A stream dealt as it is taken, from the master seed.

    Before each take, the record that a TrustedDealer deals for exactly that
    request is appended, and the take then reads it like any other.  Both
    parties build one with the same seed and keep their own parts of each
    record, so the two streams stay consistent without any communication.
    The records stay in memory; meant for tests and `mpclr bench`.
    """

    def __init__(self, master_seed: int, role: Role, params: FixedPointParams):
        self._dealer = TrustedDealer(master_seed, params)
        super().__init__(params, role, self._dealer.session_id)

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
# magic, protocol version, ring width, party, session id, records
_FILE_HEADER = struct.Struct("<4sHBcQQ")
_VERSION = struct.Struct("<4sH")         # the fields that identify a stream of any version
_HEADER_WORDS = 3                        # tag byte << _TAG_SHIFT | m0, m1, m2
_TAG_SHIFT = 56
_PARTIES = {role.value.encode(): role for role in Role}  # a header's party byte


def part_shapes(tag: int, meta, params: FixedPointParams) -> tuple:
    """(shape, dtype) of each part that a record of `tag` and `meta` writes,
    in order: this party's seed, then, of each part that depends on the
    masks, its shares of the s - s // 2 elements that its seed leaves, flat
    (see `layout`).  Both parties' records are the same size; every part is
    written as one u64 word per element.  Dealing lays a stream out by it
    and loading parses one by it."""
    _, written = layout(tag, meta)
    return (((SEED_WORDS,), np.uint64),
            *(((_rest(math.prod(spec.shape)),), params.dtype if spec.bits is None else np.uint64)
              for spec in written))


def _size(parts) -> int:
    """Words of a record's parts, from their `part_shapes` or `layout`."""
    return sum(math.prod(part[0]) for part in parts)


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
    elif isinstance(meta, tuple):  # a prefix-network or daBit record
        m = (*meta, 0)[:3]
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
        dims = MatmulDims(m0, m1, m2, kind)
        # the first product opens X - U in one frame, so no run needs a bigger part
        if any(math.prod(shape) > MAX_PAYLOAD // 8 for shape in dims.shapes() if shape):
            raise FormatError(f"randomness stream: matrix record {tuple(dims[:3])} has a "
                              f"part over {MAX_PAYLOAD // 8} words")
        return tag, dims
    if tag == TAG_PREFIXNET:
        if not 2 <= m0 <= params.ring_bits:
            raise FormatError(f"randomness stream: prefix-network width {m0} outside "
                              f"2..{params.ring_bits}")
        if m2 and not 1 <= m2 < m0:
            raise FormatError(f"randomness stream: prefix-network zero-test start {m2} "
                              f"outside 1..{m0 - 1}")
        return tag, (m0, m1, m2)
    if tag == TAG_CONVERSION:
        if m2 not in (0, 1):
            raise FormatError(f"randomness stream: daBit record flag {m2} is not 0 or 1")
        # the conversion opens its rows in one frame, so no run needs more
        if m0 * word_count(m1) > MAX_PAYLOAD // 8:
            raise FormatError(f"randomness stream: daBit record of {m0} rows of {m1} bits "
                              f"is over {MAX_PAYLOAD // 8} words")
        return tag, DaBits(m0, m1, m2)
    if m1 or m2:
        raise FormatError(f"randomness stream: tag {tag} record with header words "
                          f"{m1} and {m2}, not 0")
    return tag, m0


def _new_stream(params: FixedPointParams, session_id: int, plan, role: Role) -> tuple:
    """An unfilled CRN1 stream of `role` of the records that `plan` lists as
    (tag, meta): its buffer of words, allocated once with every header
    written, and the writable slots of each record's parts (see
    `_word_views`)."""
    headers = [_record_header(tag, meta) for tag, meta in plan]
    shapes = [part_shapes(tag, meta, params) for tag, meta in plan]
    pos = _FILE_HEADER.size // 8
    words = np.empty(pos + _HEADER_WORDS * len(plan) + sum(map(_size, shapes)), np.uint64)
    _FILE_HEADER.pack_into(words.view(np.uint8), 0, RANDOMNESS_MAGIC, PROTOCOL_VERSION,
                           params.ring_bits, role.value.encode(), session_id, len(plan))
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
    # a view of read-only bytes is read-only already, and clearing its flag
    # again would keep a varying number of small objects alive
    if part.flags.writeable:
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
                               [(tag, meta) for tag, meta, _ in source.records], source.role)
    for record_slots, (_, _, parts) in zip(slots, source.records):
        _fill(record_slots, parts)
    return memoryview(words).cast("B").toreadonly()


def deserialize_stream(data, params: FixedPointParams) -> MaterializedSource:
    """Load a stream from any bytes-like `data`, and expand the seed of
    each mask U of a matrix X (`MATMUL_MASK`), which the first product over
    X reads; every other record expands at its first take, so what a
    loaded stream holds beyond `data` does not grow with the iterations.
    Every written part is a read-only view into `data`, so `data` must not
    change while the stream is in use; `data` that starts off a word
    boundary is first copied once into an aligned buffer, and the ring parts
    of a ring narrower than 64 bits are cast copies."""
    source = _parse_stream(data, params)
    for index, (tag, meta, _) in enumerate(source.records):
        if tag == TAG_MATMUL and meta.kind == MATMUL_MASK:
            source._expanded[index] = source._expand(index)
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
    _, _, ring_bits, party, session_id, nrecords = _FILE_HEADER.unpack_from(view)
    if ring_bits != params.ring_bits:
        raise FormatError(
            f"randomness stream generated for ring width {ring_bits}, session uses {params.ring_bits}"
        )
    if party not in _PARTIES:
        raise FormatError(f"randomness stream: unknown party {party!r}")
    source = MaterializedSource(params, _PARTIES[party], session_id)
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
