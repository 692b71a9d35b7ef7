"""Planning of the logarithmic-depth carry-composition network.

Binary addition of the two shares is expressed through per-position carry
signals: propagate p_i = a_i XOR b_i and generate g_i = a_i AND b_i.  A 2x2
matrix per position composes associatively,

    (p, g) = (p_L AND p_R,  (p_L AND g_R) XOR g_L),

so all carry bits are the g-entries of the prefix compositions M_{1.j}.  The
network builds a run of length in (2^(L-1), 2^L] at layer L from its left
half (length 2^(L-1)) and the remaining right run, adding missing runs
recursively.  The full decomposition builds every prefix, up to the dyadic
closure of width-1 (clipped to the width), which is what makes per-layer
composition and mask counts follow the width/2 + 1 - 2^(layer-1) pattern.

A zero-test plan of start a builds only the prefixes (1, a) and (1, width-1),
the carries c_a and c_{width-1}, and runs a test that bits a..width-1 of
x = A + B are all zero without propagating any other carry (Cortadella and
Llabería, IEEE Trans. Computers 1992): given that the bits below j are zero,
bit j is zero exactly when p_j XOR p_{j-1} XOR g_{j-1} is, so

    [x < 2^a] = NOT(p_a XOR c_a) AND  AND_{j=a+1..width-1} NOT(p_j XOR p_{j-1} XOR g_{j-1}).

The terms after the first are local once the setup round has computed g.
Their AND tree has gates of three inputs (`and_tree_level`): its first
level ANDs every term but the top one in the first network round, the top
term joins at the second, and the final gate takes the tree's last rows
and the first term in the round after both are known.

A zero test's setup is one-sided: the dealer masks Alice's operand rows
with masks u only she holds and Bob's with masks v only he holds, so each
party opens its own rows alone, and a product x AND y of an Alice row x
and a Bob row y is Alice's x AND (y XOR v) XOR w_A and Bob's v AND (x XOR
u) XOR w_B, with w_A XOR w_B = u AND v dealt.  Every first-layer
composition of a pair (lo, hi) depends on Alice's two bits and Bob's two
bits alone, so the setup finishes it (`SetupFold`).  Each party opens its
rows a_lo, a_hi and a_lo AND a_hi, or b's, and

    G = a_hi·b_hi XOR (a_lo a_hi)·b_lo XOR a_lo·(b_lo b_hi)
    P = a_lo a_hi XOR b_lo b_hi XOR a_hi·b_lo XOR a_lo·b_hi

are XORs of one-sided products and of a party's own bits; a_i·b_i is
dealt as well for each other leaf whose g the plan reads.  So the network
starts at layer 2, and a zero test takes one round fewer than the network
is deep.  No p is opened, composed or dealt for a prefix (1, j): no carry
reads it.

The swap opens a XOR u and b XOR v, so it has already opened every leaf's
propagate bit p = a XOR b, masked by u XOR v.  A zero test therefore masks
each leaf's p with u XOR v itself, Alice's share u and Bob's v, and its
first network round opens only the leaves' g.  Each first-level term,
NOT(p_j XOR p_{j-1} XOR g_{j-1}), is then masked by the XOR of its three
signals' masks, and its masked input is the NOT of the XOR of their opened
values, so round 1 does not open it either (`derived_inputs`).  The top
term reads p of the top position, which the swap does not open, and keeps
a fresh mask.  Every value no longer sent is an XOR of values already
opened, and a party's share of a derived mask is the XOR of its own
shares, so no party's view gains anything.  The AND gates work for any
input masks whose subset products are dealt, and the dealer deals those of
the derived masks.  The full decomposition keeps the two-sided setup of one
AND per position and opens every leaf's p in round 1: acceptance criterion
3 pins its 524 mask bits.

Because every node's signal pair never changes once created, a node is masked
once for its whole lifetime: its masked (p, g) values are published in the
first round that needs them and reused by every later composition.  Only the
product-of-mask material differs per composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Node = tuple  # (start, end) run of positions, 1-based inclusive


@dataclass(frozen=True)
class Composition:
    layer: int
    out: Node
    left: Node
    right: Node


@dataclass(frozen=True)
class LayerIndex:
    """Index arrays that run one network round as whole-matrix operations.

    Node rows number the setup positions 0..width-1 and then one row per
    composition, in plan order; p mask rows follow `p_nodes` and g mask
    rows `masked_nodes`.  The network's compositions, all but those a zero
    test's setup finishes, number the pg products and `comp_hi`/`comp_lo`,
    and those of them that build p number the pp products and `pp_rows`.
    """

    pub_rows: np.ndarray    # node rows whose masked p and g are opened this round
    pub_p: np.ndarray       # their p mask rows
    pub_g: np.ndarray       # their g mask rows
    g_rows: np.ndarray      # node rows whose masked g alone is opened
    g_masks: np.ndarray     # their g mask rows
    comps: slice            # this round's compositions; their outputs are node rows width + comps
    net: slice              # the same compositions among the network's
    pp: slice               # those of them that build p, among the network's that do
    hi_rows: np.ndarray     # node row of each composition's higher run
    gates: tuple = ()       # the zero test's AND gates in this round, as (inputs, gates) groups
    derived_inputs: int = 0  # leading gate input rows masked by XORs of node masks, not opened

    @property
    def gate_inputs(self) -> int:
        """Rows that this round's AND gates read."""
        return sum(k * count for k, count in self.gates)

    @property
    def opened_rows(self) -> int:
        """Packed rows each party opens in this round: the (p, g) pair, or
        g alone, of every published node, then every gate input that is
        not derived."""
        return (2 * len(self.pub_rows) + len(self.g_rows)
                + self.gate_inputs - self.derived_inputs)

    @property
    def and_count(self) -> int:
        """Z_2 multiplications per element that this round finishes."""
        return (self.net.stop - self.net.start + self.pp.stop - self.pp.start
                + sum((k - 1) * count for k, count in self.gates))


@dataclass(frozen=True)
class SetupFold:
    """A zero test's one-sided setup.  Each party's operand rows are its
    share bits of positions 1..width-1, then the AND of its two bits of
    each first-layer pair, in plan order.  Products index into
    `products`; a pair's P is its AND row XOR its two `p` products."""

    pairs: np.ndarray     # (pairs, 2): the lo and hi leaf rows of each first-layer composition
    products: np.ndarray  # (count, 2): Alice's and Bob's operand row of each one-sided product
    g: np.ndarray         # (pairs, 3): the products whose XOR is each pair's G
    p_pairs: np.ndarray   # the pairs that build P: all but (1, 2)
    p: np.ndarray         # (len(p_pairs), 2): the cross products in their P
    leaves: np.ndarray    # leaf rows whose g the plan reads
    leaf_g: np.ndarray    # the product that is each one's g


@dataclass
class PrefixNetworkPlan:
    width: int
    depth: int
    ends: tuple                                         # j of every prefix (1, j) the plan builds
    layers: list = field(default_factory=list)          # layers[i]: compositions at layer i+1
    creation_layer: dict = field(default_factory=dict)  # node -> layer it is created (0 = setup)
    masked_nodes: list = field(default_factory=list)    # nodes with a lifetime g mask, in order
    p_nodes: list = field(default_factory=list)         # nodes with a lifetime p mask, in order
    publish_at: dict = field(default_factory=dict)      # round -> nodes whose masked values ride it
    setup_ands: int = 0                                 # Z_2 products the setup round finishes
    setup_rows: int = 0                                 # packed rows a party opens in the setup
    round_gates: dict = field(default_factory=dict)     # round -> the zero test's gates in it
    zero_start: int = 0                                 # a of a zero test, 0 for a full one
    fold: SetupFold | None = None                       # a zero test's one-sided setup
    derived_terms: int = 0                              # first-level terms whose masks are derived

    @property
    def compositions(self):
        return [c for layer in self.layers for c in layer]

    @property
    def folded(self) -> int:
        """First-layer compositions that the setup finishes."""
        return 0 if self.fold is None else len(self.fold.pairs)

    @property
    def gate_groups(self) -> list:
        """Every AND gate tuple the plan's record deals, as (inputs, gates)
        groups in run order: a full decomposition's setup ANDs, or each of
        a zero test's rounds' `gates`.  A group of k inputs takes one tuple
        of 2^k - 1 subset products per gate and element."""
        if not self.zero_start:
            return [(2, self.setup_ands)]
        return [group for layer in self.rounds for group in layer.gates]

    def fresh_mask_counts(self):
        """Masks newly allocated per layer, indexed 0..depth (0 = setup)."""
        counts = [0] * (self.depth + 1)
        for node in self.masked_nodes:
            counts[self.creation_layer[node]] += 1
        return counts

    def mask_bits_per_element(self) -> int:
        """Online transfer per decomposed element: the setup's openings,
        then the masked p and g, or g alone, of every published node."""
        return self.setup_rows + sum(2 * len(r.pub_rows) + len(r.g_rows) for r in self.rounds)

    def derived_xors(self, p, g) -> np.ndarray:
        """p_j XOR p_{j-1} XOR g_{j-1} of each first-level term j whose mask
        is derived, from matrices `p` and `g` of one row per p and g mask
        row: its mask from the node masks, or its masked value, before the
        public NOT, from the opened signals.  A leaf's p mask row is its
        position's row."""
        a, count = self.zero_start, self.derived_terms
        return p[a + 1:a + 1 + count] ^ p[a:a + count] ^ g[self.term_g]

    def finalize(self):
        p_rows = {n: i for i, n in enumerate(self.p_nodes)}
        g_rows = {n: i for i, n in enumerate(self.masked_nodes)}

        def rows(lookup, nodes):
            return np.array([lookup[n] for n in nodes], dtype=np.intp)

        comps = self.compositions
        self.node_rows = {(s, s): s - 1 for s in range(1, self.width + 1)}
        self.node_rows.update({c.out: self.width + i for i, c in enumerate(comps)})
        net = comps[self.folded:]
        # p mask rows of each network composition's higher run, g mask rows
        # of its lower run
        self.comp_hi = rows(p_rows, (c.right for c in net))
        self.comp_lo = rows(g_rows, (c.left for c in net))
        builds_p = [c for c in net if c.out[0] > 1 or not self.zero_start]
        self.pp_rows = rows(self.node_rows, (c.out for c in builds_p))
        self.pp_hi = rows(p_rows, (c.right for c in builds_p))
        self.pp_lo = rows(p_rows, (c.left for c in builds_p))
        # carry into position j + 1 is the generate signal of the run (1, j)
        self.carry_rows = rows(self.node_rows, ((1, j) for j in self.ends if j < self.width))
        a = self.zero_start
        self.term_g = rows(g_rows, ((s, s) for s in range(a + 1, a + 1 + self.derived_terms)))
        self.rounds = []  # one LayerIndex per round that opens or composes anything
        start, pp, shift = self.folded, 0, int(self.folded > 0)
        for round_no in range(1, max([self.depth - shift, *self.round_gates]) + 1):
            layer_no = round_no + shift
            pubs = self.publish_at.get(round_no, [])
            stop = start + (len(self.layers[layer_no - 1]) if layer_no <= self.depth else 0)
            pp_stop = pp + sum(c in builds_p for c in comps[start:stop])
            gates = self.round_gates.get(round_no, ())
            if pubs or stop > start or gates:
                # a zero test opens no leaf's p, which its swap opened, and
                # no prefix's, which no carry reads
                both = [n for n in pubs if 1 < n[0] < n[1] or not self.zero_start]
                alone = [n for n in pubs if n not in both]
                self.rounds.append(LayerIndex(
                    pub_rows=rows(self.node_rows, both),
                    pub_p=rows(p_rows, both),
                    pub_g=rows(g_rows, both),
                    g_rows=rows(self.node_rows, alone),
                    g_masks=rows(g_rows, alone),
                    comps=slice(start, stop),
                    net=slice(start - self.folded, stop - self.folded),
                    pp=slice(pp, pp_stop),
                    hi_rows=rows(self.node_rows, (c.right for c in comps[start:stop])),
                    gates=gates,
                    derived_inputs=self.derived_terms if round_no == 1 else 0,
                ))
            start, pp = stop, pp_stop
        return self


def closed_form_mask_bits(p: int) -> int:
    """Per-decomposition transfer predicted by the layer-count pattern
    p/2 + 1 - 2^(i-1); exact for the widths where p-1 fills a power of two."""
    depth = max(1, math.ceil(math.log2(p - 1))) if p > 2 else 1
    return 4 * p + 2 * sum(p // 2 + 1 - 2 ** (i - 1) for i in range(1, depth))


def and_tree_level(k: int) -> list:
    """The AND gates of one level of a tree over k rows, as (inputs, gates)
    pairs over the rows in order: gates of three inputs, then the rows left
    over as gates of two, two of them in place of a 3-input gate and one
    row alone.  So k >= 2 rows become ceil(k / 3), and one row alone passes
    to the next level as it is."""
    full, rest = divmod(k, 3)
    if rest == 1 and full:
        full, rest = full - 1, 4
    level = [(3, full)] if full else []
    if rest > 1:
        level.append((2, rest // 2))
    return level


def level_inputs(rows, level) -> tuple:
    """Views of the `rows` that one level of `and_tree_level` ANDs, one
    (k, count, ...) array per (k, count) group of `level`, input i of gate
    j being row used + k·j + i, and how many rows they take; the rows after
    those pass to the next level as they are.  Writing into the views
    writes `rows`."""
    groups, used = [], 0
    for k, count in level:
        groups.append(rows[used:used + k * count].reshape(count, k, -1).swapaxes(0, 1))
        used += k * count
    return groups, used


def _zero_test_tree(terms: int) -> tuple:
    """The levels of the zero test's AND tree over `terms` terms after the
    first, the rows it leaves for the final gate, and how many terms its
    first level reads, whose masks are derived: all but the top one, which
    joins at the second level."""
    levels, derived, rows = [], 0, max(terms - 1, 0)
    first = and_tree_level(rows)
    if first:
        levels.append(first)
        derived = rows
        rows -= sum((k - 1) * count for k, count in first)
    rows += terms > 0
    while rows > 2:
        levels.append(and_tree_level(rows))
        rows -= sum((k - 1) * count for k, count in levels[-1])
    return levels, rows, derived


def _fold(pairs: list, width: int, leaves: list) -> SetupFold:
    """The one-sided products of a zero test's setup: for each first-layer
    pair, those of its G and, but for (1, 2), of its P, then a_i·b_i for
    each of the `leaves` whose g is read and that is no pair's hi (whose g
    is the pair's a_hi·b_hi)."""
    base = width - 1  # the AND row of pair k is operand row base + k
    products, g, p_pairs, p = [], [], [], []
    for k, (lo, hi) in enumerate(pairs):
        g.append([len(products) + i for i in range(3)])
        products += [(hi, hi), (base + k, lo), (lo, base + k)]
        if lo:
            p_pairs.append(k)
            p.append([len(products), len(products) + 1])
            products += [(hi, lo), (lo, hi)]
    own = {hi: g[k][0] for k, (_, hi) in enumerate(pairs)}
    for leaf in leaves:
        if leaf not in own:
            own[leaf] = len(products)
            products.append((leaf, leaf))

    def array(values, *columns):
        return np.array(values, dtype=np.intp).reshape(-1, *columns)

    return SetupFold(pairs=array(pairs, 2), products=array(products, 2), g=array(g, 3),
                     p_pairs=array(p_pairs), p=array(p, 2), leaves=array(leaves),
                     leaf_g=array([own[leaf] for leaf in leaves]))


def plan_prefix_network(p: int, zero_start: int = 0) -> PrefixNetworkPlan:
    """Build the composition schedule for decomposing the low `p` bits, or,
    with `zero_start` a in 1..p-1, for the zero test of bits a..p-1.

    Returns one layer of composition index pairs per layer, the canonical
    orderings of lifetime masks, per-round publication lists, every AND
    gate of the zero test and the setup's products (see `gate_groups` and
    `SetupFold`).  Both parties and the randomness dealer derive identical
    plans from `p` and `zero_start` alone.
    """
    if p < 2:
        raise ValueError(f"bit width must be >= 2, got {p}")
    if zero_start and not 1 <= zero_start < p:
        raise ValueError(f"zero-test start {zero_start} outside 1..{p - 1}")
    if zero_start:
        depth = math.ceil(math.log2(p - 1))
        ends = tuple(sorted({zero_start, p - 1}))
    elif p == 2:
        # Single carry c_1 = g_1 comes straight from the setup multiplication.
        depth, ends = 1, (1,)
    else:
        depth = math.ceil(math.log2(p - 1))
        ends = tuple(range(1, min(1 << depth, p) + 1))
    creation: dict = {(s, s): 0 for s in range(1, p + 1)}
    comps: list[Composition] = []

    def ensure(s: int, j: int):
        if (s, j) in creation:
            return
        layer = math.ceil(math.log2(j - s + 1))
        half = 1 << (layer - 1)
        ensure(s, s + half - 1)
        ensure(s + half, j)
        creation[(s, j)] = layer
        comps.append(Composition(layer, (s, j), (s, s + half - 1), (s + half, j)))

    for j in ends:
        ensure(1, j)

    layers = [[] for _ in range(depth)]
    for c in comps:
        layers[c.layer - 1].append(c)
    for layer in layers:
        layer.sort(key=lambda c: c.out)

    # A zero test's setup finishes the first layer, so its round r runs
    # layer r + 1.  A node is published in the round of its first use.
    shift = 1 if zero_start and depth else 0
    first_use: dict = {}
    for c in sorted(comps, key=lambda c: (c.layer, c.out)):
        if c.layer > shift:
            for node in (c.left, c.right):
                first_use.setdefault(node, c.layer - shift)

    round_gates: dict = {}
    derived_terms, fold = 0, None
    if zero_start:
        levels, rows, derived_terms = _zero_test_tree(p - 1 - zero_start)
        round_gates = {i + 1: tuple(level) for i, level in enumerate(levels)}
        if rows:  # the final AND with the first term, once both it and the tree are known
            ready = max(creation[(1, zero_start)] - shift, 0)
            round_gates[max(len(levels), ready) + 1] = ((rows + 1, 1),)
        # the first level's terms read the g of these leaves, opened in round 1
        for s in range(zero_start + 1, zero_start + 1 + derived_terms):
            first_use[(s, s)] = 1
        # the leaves whose g the terms, the network or the carry c_1 reads
        read = {s - 1 for s in range(zero_start + 1, p)}
        read |= {s - 1 for s, j in first_use if s == j}
        if 1 in ends:
            read.add(0)
        fold = _fold([(c.left[0] - 1, c.right[0] - 1) for c in (layers[0] if depth else ())],
                     p, sorted(read))

    # A full decomposition that composes anything masks every setup matrix
    # and publishes it with round one, even if a dyadic boundary leaves it
    # unused; the zero test masks only the leaves whose g it opens.  Created
    # nodes are masked only when some later composition consumes them.
    setup = [(s, s) for s in range(1, p + 1)
             if (s, s) in first_use or not zero_start and comps]
    masked = setup + sorted(
        (n for n, lay in creation.items() if lay >= 1 and n in first_use),
        key=lambda n: (creation[n], n),
    )
    # A zero test's swap opens p of every leaf; no p mask is held for a
    # prefix (1, j), whose p no carry reads.
    p_nodes = masked if not zero_start else (
        [(s, s) for s in range(1, p)] + [n for n in masked[len(setup):] if n[0] > 1])

    publish_at: dict = {}
    for node in masked:
        first = first_use[node] if zero_start or creation[node] else 1
        publish_at.setdefault(first, []).append(node)
    for nodes in publish_at.values():
        nodes.sort()

    plan = PrefixNetworkPlan(
        width=p,
        depth=depth,
        ends=ends,
        layers=layers,
        creation_layer=creation,
        masked_nodes=masked,
        p_nodes=p_nodes,
        publish_at=publish_at,
        # a full decomposition ANDs every position two-sided, two rows each
        setup_ands=len(fold.products) if fold else p,
        setup_rows=p - 1 + len(fold.pairs) if fold else 2 * p,
        round_gates=round_gates,
        zero_start=zero_start,
        fold=fold,
        derived_terms=derived_terms,
    )
    return plan.finalize()


_PLAN_CACHE: dict = {}


def cached_plan(p: int, zero_start: int = 0) -> PrefixNetworkPlan:
    plan = _PLAN_CACHE.get((p, zero_start))
    if plan is None:
        plan = _PLAN_CACHE[(p, zero_start)] = plan_prefix_network(p, zero_start)
    return plan
