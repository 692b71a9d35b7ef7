import math

import pytest

from mpclr.prefixnet import closed_form_mask_bits, plan_prefix_network

# fresh-mask layer counts derived by enumerating the published nodes of each
# schedule by hand (setup layer first)
EXPECTED_FRESH = {
    8: [8, 4, 3, 0],
    16: [16, 8, 7, 5, 0],
    17: [17, 8, 7, 5, 0],
    32: [32, 16, 15, 13, 9, 0],
    64: [64, 32, 31, 29, 25, 17, 0],
}


class TestPlanShape:
    def test_depth_17(self):
        plan = plan_prefix_network(17)
        assert plan.depth == 4
        assert plan.ends == tuple(range(1, 17))

    def test_depth_64(self):
        assert plan_prefix_network(64).depth == 6

    def test_degenerate_width_two(self):
        plan = plan_prefix_network(2)
        assert plan.depth == 1
        assert plan.compositions == []
        assert plan.mask_bits_per_element() == 4  # setup openings only

    def test_width_validation(self):
        with pytest.raises(ValueError):
            plan_prefix_network(1)

    @pytest.mark.parametrize("p", [3, 4, 5, 8, 13, 16, 17, 29, 31, 32, 64])
    def test_depth_formula(self, p):
        assert plan_prefix_network(p).depth == max(1, math.ceil(math.log2(p - 1)))

    @pytest.mark.parametrize("p", [3, 5, 8, 17, 29, 64])
    def test_solution_prefixes_all_present(self, p):
        plan = plan_prefix_network(p)
        have = set(plan.creation_layer)
        for j in range(1, p):
            assert (1, j) in have

    @pytest.mark.parametrize("p", [5, 8, 17, 29, 64])
    def test_inputs_exist_before_use(self, p):
        plan = plan_prefix_network(p)
        for layer_no, layer in enumerate(plan.layers, 1):
            for comp in layer:
                assert plan.creation_layer[comp.left] < layer_no
                assert plan.creation_layer[comp.right] < layer_no
                assert comp.left[1] + 1 == comp.right[0]  # contiguous runs


class TestMaskAccounting:
    @pytest.mark.parametrize("p", sorted(EXPECTED_FRESH))
    def test_fresh_mask_counts(self, p):
        assert plan_prefix_network(p).fresh_mask_counts() == EXPECTED_FRESH[p]

    @pytest.mark.parametrize("p", [8, 16, 17, 32, 64])
    def test_closed_form_matches_schedule(self, p):
        plan = plan_prefix_network(p)
        assert plan.mask_bits_per_element() == closed_form_mask_bits(p)

    def test_layer_counts_follow_pattern(self):
        # power-of-two widths follow p/2 + 1 - 2^(i-1) exactly
        for p in (8, 16, 32, 64):
            fresh = plan_prefix_network(p).fresh_mask_counts()
            for i in range(1, len(fresh) - 1):
                assert fresh[i] == p // 2 + 1 - 2 ** (i - 1)

    def test_total_bits_for_full_width(self):
        assert plan_prefix_network(64).mask_bits_per_element() == 524

    def test_publish_once_by_brute_force(self):
        """Replay the p=8 schedule and count first publications per creation
        layer; must equal the schedule's own accounting."""
        plan = plan_prefix_network(8)
        published = set()
        counts = [0] * (plan.depth + 1)
        for s in range(1, 9):  # setup masks all ride the first round
            published.add((s, s))
            counts[0] += 1
        for layer in plan.layers:
            for comp in layer:
                for node in (comp.left, comp.right):
                    if node not in published:
                        published.add(node)
                        counts[plan.creation_layer[node]] += 1
        assert counts == plan.fresh_mask_counts()
        assert published == set(plan.masked_nodes)

    def test_shortfall_width_accounts_from_schedule(self):
        # 29 is the activation width at default precision; p-1 is not a power
        # of two, so the closed form over-counts and the schedule is truth
        plan = plan_prefix_network(29)
        assert plan.mask_bits_per_element() == 2 * 29 + 2 * len(plan.masked_nodes)
        assert plan.mask_bits_per_element() <= closed_form_mask_bits(29)


class TestZeroTestPlan:
    # (compositions, masked nodes, (published, composed) per round) of the
    # full decomposition, as the plan had them before the zero test existed
    FULL = {
        8: (12, 15, [(8, 4), (4, 4), (3, 4)]),
        29: (67, 72, [(29, 14), (14, 14), (10, 13), (9, 13), (10, 13)]),
        64: (192, 198, [(64, 32), (32, 32), (24, 32), (24, 32), (26, 32), (28, 32)]),
    }

    @staticmethod
    def shape(plan):
        return (len(plan.compositions), len(plan.masked_nodes),
                [(len(r.pub_rows) + len(r.g_rows), r.comps.stop - r.comps.start)
                 for r in plan.rounds])

    @staticmethod
    def written_rows(plan):
        """Rows of products a record deals per element: the setup's, the
        tree's gates', pg and pp."""
        tree = sum(((1 << k) - 1 - k) * count for k, count in plan.gate_groups)
        return (plan.setup_ands if plan.zero_start else 0, tree,
                len(plan.compositions) - plan.folded, len(plan.pp_rows))

    @pytest.mark.parametrize("p", sorted(FULL))
    def test_full_plan_is_unchanged(self, p):
        plan = plan_prefix_network(p)
        assert self.shape(plan) == self.FULL[p]
        assert all(r.gates == () for r in plan.rounds)
        assert plan.gate_groups == [(2, p)]  # the setup ANDs every position
        # the setup's two rows per position, then p and g of every node
        assert plan.p_nodes == plan.masked_nodes and plan.fold is None
        assert all(len(r.g_rows) == 0 for r in plan.rounds)
        assert (plan.setup_rows, plan.setup_ands) == (2 * p, p)

    def test_default_precision_builds_two_carries(self):
        # 12/15: the fractional, integer and sign bits of z' are 28
        plan = plan_prefix_network(28, 12)
        assert plan.ends == (12, 27)
        assert (len(plan.compositions), plan.depth) == (27, 5)
        # the setup finishes the 13 pairs of the first layer, (1, 2) ...
        # (25, 26), and the network runs layers 2..5 in 4 rounds
        assert plan.folded == 13 and len(plan.rounds) == 4
        assert plan.creation_layer[(1, 12)] == 4
        # 15 terms: the 14 below the top one in four 3-input gates and one
        # 2-input gate, the top one joins the 5 rows they leave in two
        # 3-input gates, and the final gate takes those and the first term
        # once c_12 is known
        assert [r.gates for r in plan.rounds] == [((3, 4), (2, 1)), ((3, 2),), (), ((3, 1),)]
        assert plan.gate_groups == [(3, 4), (2, 1), (3, 2), (3, 1)]
        assert (28, 28) not in plan.masked_nodes  # the top bit is never composed
        # each party opens a, or b, of positions 1..27 and the AND of each
        # pair's two bits; the setup deals 5 products per pair but (1, 2),
        # which builds no p, 3, and a_i·b_i of the odd leaves 13..25 and of
        # 27, whose g the terms read
        assert (plan.setup_rows, plan.setup_ands) == (27 + 13, 12 * 5 + 3 + 8)
        assert plan.fold.leaves.tolist() == list(range(12, 27))
        # round 1 opens g alone of (1, 2) and of the leaves 13..27, and p and
        # g of the other 12 pairs; of the 15 terms, whose first level is
        # derived, it opens none; no p of (1, 2), (1, 4), (1, 8) or (1, 16)
        # is ever opened
        assert plan.derived_terms == 14
        assert [(len(r.pub_rows), len(r.g_rows)) for r in plan.rounds] == [
            (12, 16), (5, 1), (3, 1), (1, 1)]
        assert [plan.setup_rows] + [r.opened_rows for r in plan.rounds] == [40, 40, 17, 7, 6]
        assert plan.mask_bits_per_element() == 40 + 2 * 21 + 19
        # 71 setup products, 29 tree products, 14 pg and 9 pp
        assert self.written_rows(plan) == (71, 29, 14, 9)
        assert plan.setup_ands + sum(r.and_count for r in plan.rounds) == 71 + 14 + 9 + 15

    def test_p16_precision(self):
        # 4/3: the two terms below the top one in one gate, and the final
        # AND of three inputs at layer 3, the second network round
        plan = plan_prefix_network(8, 4)
        assert plan.ends == (4, 7)
        assert (len(plan.compositions), plan.depth, plan.folded) == (6, 3, 3)
        assert [r.gates for r in plan.rounds] == [((2, 1),), ((3, 1),)]
        assert plan.gate_groups == [(2, 1), (3, 1)]
        assert [plan.setup_rows] + [r.opened_rows for r in plan.rounds] == [10, 8, 6]
        assert self.written_rows(plan) == (15, 5, 3, 1)

    def test_final_and_after_the_network(self):
        # 31/1: one term and no gate, but c_31 is ready only at the last
        # layer, so the final AND takes a round of its own
        plan = plan_prefix_network(33, 31)
        assert plan.depth == 5 and plan.gate_groups == [(2, 1)]
        last = plan.rounds[-1]
        assert len(plan.rounds) == 5 and last.gates == ((2, 1),)
        assert last.comps.start == last.comps.stop and last.opened_rows == 2

    @pytest.mark.parametrize("start", [-1, 8, 9])
    def test_start_validation(self, start):
        with pytest.raises(ValueError, match="zero-test start"):
            plan_prefix_network(8, start)
