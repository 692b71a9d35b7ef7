"""Bit decomposition, its zero test and logarithmic OR over packed bit rows.

Two decomposition routes are kept deliberately: a ripple-carry reference with
linear round count, and the optimized route that evaluates the carry-prefix
network in ceil(log2(p-1)) + 1 rounds.  The optimized route works on
vertical bit slices: a matrix with one packed row per bit position or network
node, each row holding that bit of every batched element, so each network
layer is a single exchange and a few whole-matrix operations no matter how
many values are being decomposed at once.  It also runs the activation's zero
test, which needs only two of the network's carries and whose one-sided
setup finishes the network's first layer (see `prefixnet`).  Every
AND gate of the optimized route takes its tuples from the one prefix-network
record of its plan; only the ripple route and `or_tree_slices`, whose gates
all have two inputs, take pooled `TAG_BIT` triples.  `decompose_ripple` and
`decompose_opt` take one shared value and return its bits as a
`BitVectorShare`; they are test references, and the ripple route sends each
round's ANDs through `engine.and_gates` as one packed row.  Z_2 -> ring
conversion is `engine.convert_bits_to_ring`, which opens the bit rows masked
by daBits.
"""

from __future__ import annotations

import numpy as np

from .engine import Session, _piecewise, and_gates, finish_and_gates
from .prefixnet import cached_plan, level_inputs
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


def _level_gates(rows, level, tuples) -> tuple:
    """The AND gates of one level of a tree over the packed `rows` (see
    `level_inputs`), each group with the next of `tuples`, its dealt
    tuples, and how many rows they take."""
    groups, used = level_inputs(rows, level)
    return list(zip(groups, tuples)), used


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
    gates ride the network's rounds, so it takes no round of its own.  Its
    setup is one-sided and finishes the network's first layer, so each
    party opens three rows per first-layer pair and one per other position
    below the top one, and the network starts at its second layer.  Its
    first network round opens no leaf's p, which the setup has opened, and
    of its first-level gate inputs none, and no round opens the p of a
    prefix (1, j) (see `prefixnet`).  The prefix block holds every gate's
    tuples, in `gate_groups` order.  A zero test's `collect_nodes` holds no
    p of a prefix (1, j): its rows are left as they were allocated.
    """
    if width > sess.params.ring_bits:
        raise ValueError(f"cannot decompose {width} bits of a {sess.params.ring_bits}-bit ring")
    if width < 2:
        raise ValueError("bit width must be >= 2")
    shares = np.atleast_1d(np.asarray(shares, dtype=sess.params.dtype))
    batch = shares.size
    plan = cached_plan(width, zero_start)
    block = sess.randomness.take_prefix_block(width, batch, zero_start)
    tuples, input_masks = iter(block.gates), iter(block.inputs)

    own = _to_slices(shares, width)
    # Node rows: the setup positions, then one per composition in plan order.
    p_rows = np.empty((len(plan.node_rows), own.shape[1]), dtype=np.uint64)
    g_rows = np.empty_like(p_rows)
    p_rows[:width] = own
    # opened masked signals, by p and by g mask row
    dp = np.empty_like(block.mask_p)
    dg = np.empty_like(block.mask_g)

    # Setup round, where Alice's share string is a and Bob's is b.
    if zero_start:
        # One-sided: each party holds the whole masks of its own operand
        # rows and none of its peer's, so it sends its own rows masked, and
        # the rows are swapped, not summed.  For a product x AND y of
        # Alice's row x, masked by u, and Bob's y, masked by v, w_A XOR w_B
        # = u AND v, and x AND y is the XOR of Alice's x AND (y XOR v) XOR
        # w_A and Bob's v AND (x XOR u) XOR w_B.
        fold, leaves = plan.fold, width - 1
        lo, hi = fold.pairs.T
        operands = np.concatenate([own[:leaves], own[lo] & own[hi]])
        mask, w = block.setup
        [theirs] = sess.swap(bits=[(operands, mask)])
        mine, peer = fold.products.T if sess.is_alice else fold.products.T[::-1]
        prods = (operands if sess.is_alice else mask)[mine] & theirs[peer]
        flat = prods.reshape(-1)
        _piecewise(np.bitwise_xor, flat, w, flat)
        sess.transcript.bit_mults += len(prods) * batch
        # p = a XOR b of every leaf is open, masked by u XOR v, whose shares
        # are the parties' own masks (see `prefixnet`)
        dp[:leaves] = own[:leaves] ^ mask[:leaves] ^ theirs[:leaves]
        g_rows[fold.leaves] = prods[fold.leaf_g]
        # the first layer: G and P of each pair (lo, hi), P from the party's
        # own AND of its two bits
        first, (g0, g1, g2) = slice(width, width + len(lo)), fold.g.T
        g_rows[first] = prods[g0] ^ prods[g1] ^ prods[g2]
        p_rows[width + fold.p_pairs] = (operands[leaves + fold.p_pairs]
                                        ^ prods[fold.p[:, 0]] ^ prods[fold.p[:, 1]])
    else:
        zero = np.zeros_like(own)
        a_rows, b_rows = (own, zero) if sess.is_alice else (zero, own)
        g_rows[:width] = and_gates(sess, [((a_rows, b_rows), next(tuples))], batch)[0]
    sess.transcript.mask_bits_sent += plan.setup_rows * batch

    ones = ones_row(batch)
    a = zero_start
    # the zero test's terms: bit j > a of x is zero, given the bits below it
    # are, iff its term is 1
    tree = _const_flip(sess, own[a + 1:] ^ own[a:-1] ^ g_rows[a:width - 1], ones) if a else own[:0]

    for layer in plan.rounds:
        # each node's p row, then its g row, then the g rows opened alone
        signals = np.empty((len(layer.pub_rows), 2, own.shape[1]), dtype=np.uint64)
        signal_masks = np.empty_like(signals)
        signals[:, 0], signals[:, 1] = p_rows[layer.pub_rows], g_rows[layer.pub_rows]
        signal_masks[:, 0] = block.mask_p[layer.pub_p]
        signal_masks[:, 1] = block.mask_g[layer.pub_g]
        operands = [(signals, signal_masks), (g_rows[layer.g_rows], block.mask_g[layer.g_masks])]
        if layer.gate_inputs > len(tree):
            # the final AND, of the tree's last rows and the first term, once c_a is known
            low = _const_flip(sess, own[a] ^ g_rows[plan.carry_rows[0]], ones)
            tree = np.concatenate([tree, low[None]])
        gates, used = _level_gates(tree, layer.gates, tuples)
        # the gate inputs that are not derived, in row order
        derived = layer.derived_inputs
        if gates:
            operands.append((tree[derived:used], next(input_masks)))
        both, alone, *inputs = sess.open(bits=operands)
        sess.transcript.mask_bits_sent += batch * (2 * len(layer.pub_rows) + len(layer.g_rows))
        dp[layer.pub_p], dg[layer.pub_g] = both[:, 0], both[:, 1]
        dg[layer.g_masks] = alone

        # comp.left covers the lower positions, comp.right the higher; the
        # higher run is the left factor of the matrix composition
        hi, lo = plan.comp_hi[layer.net], plan.comp_lo[layer.net]
        dp_hi, dg_lo = dp[hi], dg[lo]
        g_out = (block.prod_pg[layer.net] ^ (dp_hi & block.mask_g[lo])
                 ^ (dg_lo & block.mask_p[hi]) ^ g_rows[layer.hi_rows])
        # p of the compositions that build it, with the p mask rows of both runs
        p_hi, p_lo = plan.pp_hi[layer.pp], plan.pp_lo[layer.pp]
        dp_phi, dp_plo = dp[p_hi], dp[p_lo]
        p_out = (block.prod_pp[layer.pp] ^ (dp_phi & block.mask_p[p_lo])
                 ^ (dp_plo & block.mask_p[p_hi]))
        if sess.is_alice:
            g_out ^= dp_hi & dg_lo
            p_out ^= dp_phi & dp_plo
        g_rows[width + layer.comps.start:width + layer.comps.stop] = g_out
        p_rows[plan.pp_rows[layer.pp]] = p_out
        sess.transcript.bit_mults += batch * (len(g_out) + len(p_out))
        if gates:
            if derived:
                # term j's mask is that of p_j XOR p_{j-1} XOR g_{j-1}, so
                # its masked input is the NOT of their opened values' XOR
                inputs.insert(0, plan.derived_xors(dp, dg) ^ ones)
            groups, _ = level_inputs(np.concatenate(inputs), layer.gates)
            tree = np.concatenate([
                *finish_and_gates(sess, gates, [m for xs in groups for m in xs], batch),
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
    d = tree[0] if len(tree) else _const_flip(sess, top, ones)
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

    NOT(AND(NOT ...)) over k rows evaluated as a tree of 2-input AND gates:
    each round ANDs the rows in pairs, against one pooled triple per gate
    and element, and passes an odd last row on, so k - 1 ANDs take
    ceil(log2 k) rounds.  Returns one packed row.  Training does not call
    it: the activation's zero test runs its AND tree inside the
    decomposition's rounds.
    """
    if len(slices) == 0:
        raise ValueError("or_tree_slices needs at least one row")
    ones = ones_row(batch)
    cur = _const_flip(sess, np.asarray(slices, dtype=np.uint64), ones)
    while len(cur) > 1:
        half = len(cur) // 2
        gates, used = _level_gates(cur, [(2, half)],
                                   [sess.randomness.take_bit_triples(half * batch, half)])
        cur = np.concatenate([*and_gates(sess, gates, batch), cur[used:]])
    return _const_flip(sess, cur[0], ones)
