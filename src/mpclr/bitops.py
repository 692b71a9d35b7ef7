"""Bit decomposition, its zero test and logarithmic OR over packed bit rows.

Two decomposition routes are kept deliberately: a ripple-carry reference with
linear round count, and the optimized route that evaluates the carry-prefix
network in ceil(log2(p-1)) + 1 rounds.  The optimized route works on
vertical bit slices: a matrix with one packed row per bit position or network
node, each row holding that bit of every batched element, so each network
layer is a single exchange and a few whole-matrix operations no matter how
many values are being decomposed at once.  It also runs the activation's zero
test, which needs only two of the network's carries (see `prefixnet`).
`decompose_ripple` and `decompose_opt` take one shared value and return its
bits as a `BitVectorShare`; they are test references, and the ripple route
sends each round's ANDs through `engine.and_gates` as one packed row.  Z_2 ->
ring conversion is `engine.convert_bits_to_ring`, which opens the bit rows
masked by daBits.
"""

from __future__ import annotations

import numpy as np

from .engine import Session, and_gates, finish_and_gates, mask_gate_inputs
from .prefixnet import cached_plan, or_tree_levels
from .sharing import BitVectorShare, ones_row, pack_rows, unpack_rows


def _own_operand_bits(sess: Session, value: int, width: int):
    """Protocol-2 style operand shares: Alice's share string is secret `a`,
    Bob's is secret `b`; the missing half of each sharing is zero."""
    mask = (1 << width) - 1
    own = value & mask
    if sess.is_alice:
        return own, 0
    return 0, own


def _const_flip(sess: Session, bits, ones):
    """Add the public constant 1 in Z_2 (logical NOT): role A XORs `ones`."""
    return bits ^ ones if sess.is_alice else bits


def _and_bits(sess: Session, xs: list, ys: list) -> list:
    """ANDs of shared single bits in one round; pair j is bit j of one packed row."""
    x, y = (np.array([[sum(b << j for j, b in enumerate(bits))]], np.uint64) for bits in (xs, ys))
    rs = sess.randomness.take_bit_triples(len(xs))
    [z] = and_gates(sess, [((x, y), rs)], len(xs))
    return [(int(z[0, 0]) >> j) & 1 for j in range(len(xs))]


def decompose_ripple(sess: Session, x_share: int) -> BitVectorShare:
    """Reference bit decomposition via the ripple-carry adder circuit.

    Emits bits LSB first; round count is linear in the ring width.
    """
    lam = sess.params.ring_bits
    a_sh, b_sh = _own_operand_bits(sess, x_share, lam)
    y = (x_share & sess.params.mask)  # own share IS this party's share of every y_i

    carry = _and_bits(sess, [a_sh & 1], [b_sh & 1])[0]
    out = y & 1
    for i in range(2, lam + 1):
        ai = (a_sh >> (i - 1)) & 1
        bi = (b_sh >> (i - 1)) & 1
        yi = (y >> (i - 1)) & 1
        # d_i = NOT(a_i b_i) and e_i = NOT(y_i c_{i-1}) ride one batched call
        prods = _and_bits(sess, [ai, yi], [bi, carry])
        d = _const_flip(sess, prods[0], 1)
        e = _const_flip(sess, prods[1], 1)
        out |= (yi ^ carry) << (i - 1)
        carry = _const_flip(sess, _and_bits(sess, [e], [d])[0], 1)
    return BitVectorShare(out, lam, sess.role)


# ---------------------------------------------------------------------------
# Bit-sliced batched decomposition through the carry-prefix network
# ---------------------------------------------------------------------------


def _to_slices(values: np.ndarray, width: int) -> np.ndarray:
    """Transpose a batch of ring shares into one packed row per bit position."""
    values = np.ascontiguousarray(values)
    raw = values.view(np.uint8).reshape(values.size, values.itemsize)[:, :(width + 7) // 8]
    # byte k of every value in one row; unpacking along the rows puts bit
    # 8k + j of every value in row 8k + j
    bits = np.unpackbits(np.ascontiguousarray(raw.T), axis=0, count=width, bitorder="little")
    return pack_rows(bits)


def _from_slices(slices, batch: int) -> np.ndarray:
    """Inverse of `_to_slices`: rows of bit positions (LSB first) -> values."""
    bits = unpack_rows(np.asarray(slices, dtype=np.uint64), batch)
    per_value = np.zeros((batch, 64), dtype=np.uint8)
    per_value[:, :len(bits)] = bits.T
    return np.packbits(per_value, axis=1, bitorder="little").view(np.uint64).reshape(batch)


def _level_gates(sess: Session, rows, level, batch: int) -> tuple:
    """The AND gates of one level of a tree over the packed `rows` (see
    `or_tree_levels`), each with its dealt tuples, and how many rows they
    take; the rows after those pass to the next level as they are."""
    gates, used = [], 0
    for k, count in level:
        # input i of gate j is row used + k·j + i
        xs = rows[used:used + k * count].reshape(count, k, -1).swapaxes(0, 1)
        gates.append((xs, sess.randomness.take_bit_triples(count * batch, k, count)))
        used += k * count
    return gates, used


def decompose_batch_slices(sess: Session, shares: np.ndarray, width: int,
                           collect_nodes: dict | None = None, zero_start: int = 0) -> np.ndarray:
    """Decompose the low `width` bits of a batch of shared values.

    Returns this party's shares of the `width` sum bits as a matrix of
    packed rows, LSB first, one bit per batch element.  `collect_nodes`,
    when given, receives this party's (p, g) row shares for every network
    node, keyed by node, for oracle-mode inspection.

    With `zero_start` a in 1..width-1, it runs the zero-test plan of
    `prefixnet` instead and returns two rows: d = [x < 2^a] for x the low
    `width` bits of each value, and x's top bit.  The zero test's AND
    gates ride the network's rounds, so it takes no round of its own.
    """
    if width > sess.params.ring_bits:
        raise ValueError(f"cannot decompose {width} bits of a {sess.params.ring_bits}-bit ring")
    if width < 2:
        raise ValueError("bit width must be >= 2")
    shares = np.atleast_1d(np.asarray(shares, dtype=sess.params.dtype))
    batch = shares.size
    plan = cached_plan(width, zero_start)
    block = sess.randomness.take_prefix_block(width, batch, zero_start)

    own = _to_slices(shares, width)
    zero = np.zeros_like(own)
    a_rows, b_rows = (own, zero) if sess.is_alice else (zero, own)

    # Setup round: every position's generate bit in one batched multiplication.
    [g_setup] = and_gates(sess, [((a_rows, b_rows), block.setup[:, :width])], batch)
    sess.transcript.mask_bits_sent += 2 * width * batch

    # Node rows: the setup positions, then one per composition in plan order.
    nodes = len(plan.node_rows)
    p_rows = np.empty((nodes, own.shape[1]), dtype=np.uint64)
    g_rows = np.empty_like(p_rows)
    p_rows[:width], g_rows[:width] = own, g_setup
    # opened masked signals, by mask row
    dp = np.empty_like(block.mask_p)
    dg = np.empty_like(block.mask_g)

    ones = ones_row(batch)
    a = zero_start
    # the zero test's terms: bit j > a of x is zero, given the bits below it
    # are, iff its term is 1
    tree = _const_flip(sess, own[a + 1:] ^ own[a:-1] ^ g_setup[a:-1], ones) if a else None

    for layer in plan.rounds:
        masks = layer.pub_masks
        masked = np.empty((2 * len(masks), own.shape[1]), dtype=np.uint64)
        masked[0::2] = p_rows[layer.pub_rows] ^ block.mask_p[masks]
        masked[1::2] = g_rows[layer.pub_rows] ^ block.mask_g[masks]
        # this round's level of the zero test's AND tree, then its final AND
        gates, used = _level_gates(sess, tree, layer.gates, batch)
        if layer.final:
            low = _const_flip(sess, own[a] ^ g_rows[plan.carry_rows[0]], ones)
            gates.append(((tree, low[None]), block.setup[:, width:]))
        opened, *gate_inputs = sess.open(bits=[masked, *mask_gate_inputs(gates)])
        sess.transcript.mask_bits_sent += 2 * batch * len(masks)
        dp[masks], dg[masks] = opened[0::2], opened[1::2]

        # comp.left covers the lower positions, comp.right the higher; the
        # higher run is the left factor of the matrix composition
        lo, hi = plan.comp_lo[layer.comps], plan.comp_hi[layer.comps]
        dp_lo, dg_lo, dp_hi = dp[lo], dg[lo], dp[hi]
        p_out = (block.prod_pp[layer.comps]
                 ^ (dp_hi & block.mask_p[lo])
                 ^ (dp_lo & block.mask_p[hi]))
        g_out = (block.prod_pg[layer.comps]
                 ^ (dp_hi & block.mask_g[lo])
                 ^ (dg_lo & block.mask_p[hi]))
        if sess.is_alice:
            p_out ^= dp_hi & dp_lo
            g_out ^= dp_hi & dg_lo
        g_out ^= g_rows[layer.hi_rows]
        out = slice(width + layer.comps.start, width + layer.comps.stop)
        p_rows[out], g_rows[out] = p_out, g_out
        sess.transcript.bit_mults += 2 * batch * len(lo)
        if gates:
            tree = np.concatenate([*finish_and_gates(sess, gates, gate_inputs, batch),
                                   tree[used:]])

    if collect_nodes is not None:
        collect_nodes.update({node: (p_rows[row], g_rows[row])
                              for node, row in plan.node_rows.items()})
        collect_nodes["__plan__"] = plan

    if not a:
        sums = own.copy()
        sums[1:] ^= g_rows[plan.carry_rows]
        return sums
    top = own[-1] ^ g_rows[plan.carry_rows[-1]]
    # with no bit above a, d is the first term alone
    d = tree[0] if plan.final_round else _const_flip(sess, top, ones)
    return np.stack([d, top])


def decompose_opt(sess: Session, x_share: int, width: int | None = None) -> BitVectorShare:
    """Optimized decomposition of one shared value (low `width` bits)."""
    width = sess.params.ring_bits if width is None else width
    slices = decompose_batch_slices(sess, np.array([x_share], dtype=sess.params.dtype), width)
    return BitVectorShare(int(_from_slices(slices, 1)[0]), width, sess.role)


# ---------------------------------------------------------------------------
# Logarithmic OR
# ---------------------------------------------------------------------------


def or_tree_slices(sess: Session, slices, batch: int) -> np.ndarray:
    """OR over the rows of a packed bit matrix, elementwise across the batch.

    NOT(AND(NOT ...)) evaluated as a tree of AND gates of up to four inputs
    (see `or_tree_levels`); each level is one round, whatever its gates'
    inputs, and each gate takes one dealt tuple per element.  Returns one
    packed row.  Training does not call it: the activation's zero test runs
    its AND tree inside the decomposition's rounds.
    """
    if len(slices) == 0:
        raise ValueError("or_tree_slices needs at least one row")
    ones = ones_row(batch)
    cur = _const_flip(sess, np.asarray(slices, dtype=np.uint64), ones)
    for level in or_tree_levels(len(cur)):
        gates, used = _level_gates(sess, cur, level, batch)
        cur = np.concatenate([*and_gates(sess, gates, batch), cur[used:]])
    return _const_flip(sess, cur[0], ones)
