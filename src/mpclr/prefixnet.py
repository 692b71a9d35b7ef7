"""Planning of the logarithmic-depth carry-composition network.

Binary addition of the two shares is expressed through per-position carry
signals: propagate p_i = a_i XOR b_i and generate g_i = a_i AND b_i.  A 2x2
matrix per position composes associatively,

    (p, g) = (p_L AND p_R,  (p_L AND g_R) XOR g_L),

so all carry bits are the g-entries of the prefix compositions M_{1.j}.  The
network computes every prefix with a recursive-doubling schedule: at layer L
it builds each run of length in (2^(L-1), 2^L] from the run's left half
(length 2^(L-1)) and the remaining right run, adding missing right runs
recursively.  Prefixes are built up to the dyadic closure of width-1 (clipped
to the width), which is what makes per-layer composition and mask counts
follow the width/2 + 1 - 2^(layer-1) pattern.

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


@dataclass
class PrefixNetworkPlan:
    width: int
    depth: int
    jmax: int
    layers: list = field(default_factory=list)          # layers[i]: compositions at layer i+1
    creation_layer: dict = field(default_factory=dict)  # node -> layer it is created (0 = setup)
    masked_nodes: list = field(default_factory=list)    # nodes holding a lifetime mask, canonical order
    publish_at: dict = field(default_factory=dict)      # layer -> nodes whose masked values ride that round

    @property
    def compositions(self):
        return [c for layer in self.layers for c in layer]

    @property
    def solution_nodes(self):
        return [(1, j) for j in range(1, self.jmax + 1)]

    def fresh_mask_counts(self):
        """Masks newly allocated per layer, indexed 0..depth (0 = setup)."""
        counts = [0] * (self.depth + 1)
        for node in self.masked_nodes:
            counts[self.creation_layer[node]] += 1
        return counts

    def mask_bits_per_element(self) -> int:
        """Online transfer per decomposed element: setup openings plus one
        2-bit masked publication per masked node."""
        return 2 * self.width + 2 * len(self.masked_nodes)

    def mask_index(self, node: Node) -> int:
        return self._mask_lookup[node]

    def finalize(self):
        self._mask_lookup = {n: i for i, n in enumerate(self.masked_nodes)}
        comps = self.compositions
        self.node_rows = {(s, s): s - 1 for s in range(1, self.width + 1)}
        self.node_rows.update({c.out: self.width + i for i, c in enumerate(comps)})
        # mask rows of each composition's lower and higher run
        self.comp_lo = self._mask_rows(c.left for c in comps)
        self.comp_hi = self._mask_rows(c.right for c in comps)
        # carry into position j + 1 is the generate signal of the run (1, j)
        self.carry_rows = np.array([self.node_rows[(1, j)] for j in range(1, self.width)],
                                   dtype=np.intp)
        self.rounds = []  # one LayerIndex per layer that opens or composes anything
        start = 0
        for layer_no in range(1, self.depth + 1):
            pubs = self.publish_at.get(layer_no, [])
            stop = start + len(self.layers[layer_no - 1])
            if pubs or stop > start:
                self.rounds.append(LayerIndex(
                    pub_rows=np.array([self.node_rows[n] for n in pubs], dtype=np.intp),
                    pub_masks=self._mask_rows(pubs),
                    comps=slice(start, stop),
                    hi_rows=np.array([self.node_rows[c.right] for c in comps[start:stop]],
                                     dtype=np.intp),
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


def plan_prefix_network(p: int) -> PrefixNetworkPlan:
    """Build the composition schedule for decomposing the low `p` bits.

    Returns one layer of composition index pairs per round, the canonical
    ordering of lifetime masks, and per-round publication lists.  Both
    parties and the randomness dealer derive identical plans from `p` alone.
    """
    if p < 2:
        raise ValueError(f"bit width must be >= 2, got {p}")
    if p == 2:
        # Single carry c_1 = g_1 comes straight from the setup multiplication.
        plan = PrefixNetworkPlan(width=2, depth=1, jmax=1, layers=[[]])
        plan.creation_layer = {(1, 1): 0, (2, 2): 0}
        plan.publish_at = {}
        return plan.finalize()

    depth = math.ceil(math.log2(p - 1))
    jmax = min(1 << depth, p)
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

    for j in range(2, jmax + 1):
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

    # Every setup matrix carries a mask and is published with round one, even
    # if a dyadic boundary leaves it unused; created nodes are masked only
    # when some later composition consumes them.
    masked = [(s, s) for s in range(1, p + 1)]
    masked += sorted(
        (n for n, lay in creation.items() if lay >= 1 and n in first_use),
        key=lambda n: (creation[n], n),
    )

    publish_at: dict = {1: [(s, s) for s in range(1, p + 1)]}
    for node in masked[p:]:
        publish_at.setdefault(first_use[node], []).append(node)
    for nodes in publish_at.values():
        nodes.sort()

    plan = PrefixNetworkPlan(
        width=p,
        depth=depth,
        jmax=jmax,
        layers=layers,
        creation_layer=creation,
        masked_nodes=masked,
        publish_at=publish_at,
    )
    return plan.finalize()


_PLAN_CACHE: dict = {}


def cached_plan(p: int) -> PrefixNetworkPlan:
    plan = _PLAN_CACHE.get(p)
    if plan is None:
        plan = _PLAN_CACHE[p] = plan_prefix_network(p)
    return plan
