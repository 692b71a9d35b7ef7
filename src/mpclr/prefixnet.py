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

The terms after the first are local once the setup round has computed g;
their AND runs as the levels of `or_tree_levels`, one per round from the
first network round on, and the final 2-input AND with the first term rides
the round after both are known.

`PrefixNetworkPlan.gate_groups` lists every AND gate a plan runs, the setup
round's and the zero test's, and the prefix-network record deals exactly
those gates' tuples.  A zero test's setup ANDs are one-sided: the dealer
masks Alice's operand a with a mask u only she holds and Bob's b with a v
only he holds, so each party opens one row per position instead of two.

That swap opens a XOR u and b XOR v, so it has already opened every leaf's
propagate bit p = a XOR b, masked by u XOR v.  A zero test therefore masks
each leaf's p with u XOR v itself, Alice's share u and Bob's v, and its
first network round opens only the leaves' g.  Each first-level term but
the top one, NOT(p_j XOR p_{j-1} XOR g_{j-1}), is then masked by the XOR
of its three signals' masks, and its masked input is the NOT of the XOR of
their opened values, so round 1 does not open it either (`derived_inputs`).
The top term reads p of the top position, which the swap does not open, and
keeps a fresh mask.  Every value no longer sent is an XOR of values already
opened, and a party's share of a derived mask is the XOR of its own shares,
so no party's view gains anything.  The AND gates work for any input masks
whose subset products are dealt, and the dealer deals those of the derived
masks.  The full decomposition keeps the two-sided setup and opens every
leaf's p in round 1: acceptance criterion 3 pins its 524 mask bits.

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
    composition, in plan order; mask rows follow `masked_nodes`.
    """

    pub_rows: np.ndarray    # node rows whose masked signals are opened this round
    pub_masks: np.ndarray   # their mask rows
    comps: slice            # this round's compositions; their outputs are node rows width + comps
    hi_rows: np.ndarray     # node row of each composition's higher run
    gates: tuple = ()       # the zero test's AND gates in this round, as (inputs, gates) groups
    open_p: bool = True     # False: the setup swap opened the published nodes' p, so only g rides
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
        return ((1 + self.open_p) * len(self.pub_masks)
                + self.gate_inputs - self.derived_inputs)

    @property
    def and_count(self) -> int:
        """Z_2 multiplications per element that this round finishes."""
        return (2 * (self.comps.stop - self.comps.start)
                + sum((k - 1) * count for k, count in self.gates))


@dataclass
class PrefixNetworkPlan:
    width: int
    depth: int
    ends: tuple                                         # j of every prefix (1, j) the plan builds
    layers: list = field(default_factory=list)          # layers[i]: compositions at layer i+1
    creation_layer: dict = field(default_factory=dict)  # node -> layer it is created (0 = setup)
    masked_nodes: list = field(default_factory=list)    # nodes holding a lifetime mask, canonical order
    publish_at: dict = field(default_factory=dict)      # layer -> nodes whose masked values ride that round
    setup_ands: int = 0                                 # positions whose generate bit is read
    setup_rows: int = 2                                 # operand rows a party opens per setup AND
    round_gates: dict = field(default_factory=dict)     # round -> the zero test's gates in it
    zero_start: int = 0                                 # a of a zero test, 0 for a full one
    derived_p: int = 0                                  # leaves (mask rows 0..) masked by u XOR v
    derived_terms: int = 0                              # first-level terms whose masks are derived

    @property
    def compositions(self):
        return [c for layer in self.layers for c in layer]

    @property
    def gate_groups(self) -> list:
        """Every AND gate the plan runs, as (inputs, gates) groups in run
        order: the setup round's 2-input ANDs, then each round's `gates`.
        A group of k inputs takes one tuple of 2^k - 1 subset products per
        gate and element."""
        return [(2, self.setup_ands), *(group for layer in self.rounds for group in layer.gates)]

    def fresh_mask_counts(self):
        """Masks newly allocated per layer, indexed 0..depth (0 = setup)."""
        counts = [0] * (self.depth + 1)
        for node in self.masked_nodes:
            counts[self.creation_layer[node]] += 1
        return counts

    def mask_bits_per_element(self) -> int:
        """Online transfer per decomposed element: setup openings plus one
        2-bit masked publication per masked node, less the p bit of each
        leaf that the setup swap opened."""
        return self.setup_rows * self.setup_ands + 2 * len(self.masked_nodes) - self.derived_p

    def derived_xors(self, p, g) -> np.ndarray:
        """p_j XOR p_{j-1} XOR g_{j-1} of each first-level term j whose mask
        is derived, from matrices `p` and `g` of one row per mask row: its
        mask from the node masks, or its masked value, before the public
        NOT, from the opened signals."""
        a, count = self.zero_start, self.derived_terms
        return p[a + 1:a + 1 + count] ^ p[a:a + count] ^ g[a:a + count]

    def finalize(self):
        self._mask_lookup = {n: i for i, n in enumerate(self.masked_nodes)}
        comps = self.compositions
        self.node_rows = {(s, s): s - 1 for s in range(1, self.width + 1)}
        self.node_rows.update({c.out: self.width + i for i, c in enumerate(comps)})
        # mask rows of each composition's lower and higher run
        self.comp_lo = self._mask_rows(c.left for c in comps)
        self.comp_hi = self._mask_rows(c.right for c in comps)
        # carry into position j + 1 is the generate signal of the run (1, j)
        self.carry_rows = np.array([self.node_rows[(1, j)] for j in self.ends if j < self.width],
                                   dtype=np.intp)
        self.rounds = []  # one LayerIndex per round that opens or composes anything
        start = 0
        for round_no in range(1, max([self.depth, *self.round_gates]) + 1):
            pubs = self.publish_at.get(round_no, [])
            stop = start + len(self.layers[round_no - 1]) if round_no <= self.depth else start
            gates = self.round_gates.get(round_no, ())
            if pubs or stop > start or gates:
                first = round_no == 1
                self.rounds.append(LayerIndex(
                    pub_rows=np.array([self.node_rows[n] for n in pubs], dtype=np.intp),
                    pub_masks=self._mask_rows(pubs),
                    comps=slice(start, stop),
                    hi_rows=np.array([self.node_rows[c.right] for c in comps[start:stop]],
                                     dtype=np.intp),
                    gates=gates,
                    # round 1 publishes the leaves alone
                    open_p=not (first and self.derived_p),
                    derived_inputs=self.derived_terms if first else 0,
                ))
            start = stop
        return self

    def _mask_rows(self, nodes) -> np.ndarray:
        return np.array([self._mask_lookup[n] for n in nodes], dtype=np.intp)


def closed_form_mask_bits(p: int) -> int:
    """Per-decomposition transfer predicted by the layer-count pattern
    p/2 + 1 - 2^(i-1); exact for the widths where p-1 fills a power of two."""
    depth = max(1, math.ceil(math.log2(p - 1))) if p > 2 else 1
    return 4 * p + 2 * sum(p // 2 + 1 - 2 ** (i - 1) for i in range(1, depth))


def or_tree_levels(k: int) -> list:
    """The AND gates of each level of an AND tree over k rows, as (inputs,
    gates) pairs: the rows in order, in groups of four, and the rows left
    over as one smaller group.  A group of one row passes to the next level
    as it is, so there are ceil(log4(k)) levels and k - 1 ANDs in all."""
    levels = []
    while k > 1:
        full, rest = divmod(k, 4)
        level = [(4, full)] if full else []
        if rest > 1:
            level.append((rest, 1))
        levels.append(level)
        k = full + (rest > 0)
    return levels


def level_inputs(rows, level) -> tuple:
    """Views of the `rows` that one level of `or_tree_levels` ANDs, one
    (k, count, ...) array per (k, count) group of `level`, input i of gate
    j being row used + k·j + i, and how many rows they take; the rows after
    those pass to the next level as they are.  Writing into the views
    writes `rows`."""
    groups, used = [], 0
    for k, count in level:
        groups.append(rows[used:used + k * count].reshape(count, k, -1).swapaxes(0, 1))
        used += k * count
    return groups, used


def plan_prefix_network(p: int, zero_start: int = 0) -> PrefixNetworkPlan:
    """Build the composition schedule for decomposing the low `p` bits, or,
    with `zero_start` a in 1..p-1, for the zero test of bits a..p-1.

    Returns one layer of composition index pairs per round, the canonical
    ordering of lifetime masks, per-round publication lists and every AND
    gate, the setup round's and the zero test's (see `gate_groups`).  Both
    parties and the randomness dealer derive identical plans from `p` and
    `zero_start` alone.
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

    first_use: dict = {}
    for c in sorted(comps, key=lambda c: (c.layer, c.out)):
        for node in (c.left, c.right):
            first_use.setdefault(node, c.layer)

    # A full decomposition that composes anything masks every setup matrix
    # and publishes it with round one, even if a dyadic boundary leaves it
    # unused; the zero test masks only those it composes.  Created nodes are
    # masked only when some later composition consumes them.
    setup = [(s, s) for s in range(1, p + 1)
             if (s, s) in first_use or not zero_start and comps]
    masked = setup + sorted(
        (n for n, lay in creation.items() if lay >= 1 and n in first_use),
        key=lambda n: (creation[n], n),
    )

    publish_at: dict = {1: setup} if setup else {}
    for node in masked[len(setup):]:
        publish_at.setdefault(first_use[node], []).append(node)
    for nodes in publish_at.values():
        nodes.sort()

    round_gates: dict = {}
    derived_terms = 0
    if zero_start and zero_start < p - 1:
        terms = p - 1 - zero_start
        levels = or_tree_levels(terms)
        round_gates = {i + 1: tuple(level) for i, level in enumerate(levels)}
        # the final AND with the first term, once both it and the tree are known
        round_gates[max(len(levels), creation[(1, zero_start)]) + 1] = ((2, 1),)
        if levels:  # every first-level term but the top one reads leaf signals alone
            derived_terms = min(sum(k * count for k, count in levels[0]), terms - 1)

    plan = PrefixNetworkPlan(
        width=p,
        depth=depth,
        ends=ends,
        layers=layers,
        creation_layer=creation,
        masked_nodes=masked,
        publish_at=publish_at,
        # the zero test reads no generate bit of the top position, and its
        # setup ANDs are one-sided: each party opens its own operand alone
        setup_ands=p - 1 if zero_start else p,
        setup_rows=1 if zero_start else 2,
        round_gates=round_gates,
        zero_start=zero_start,
        # the one-sided swap opens p of every leaf a zero test masks
        derived_p=len(setup) if zero_start else 0,
        derived_terms=derived_terms,
    )
    return plan.finalize()


_PLAN_CACHE: dict = {}


def cached_plan(p: int, zero_start: int = 0) -> PrefixNetworkPlan:
    plan = _PLAN_CACHE.get((p, zero_start))
    if plan is None:
        plan = _PLAN_CACHE[(p, zero_start)] = plan_prefix_network(p, zero_start)
    return plan
