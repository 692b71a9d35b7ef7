import numpy as np
import pytest

from mpclr import FixedPointParams, local_session_pair, run_sessions
from mpclr.bitops import (
    _from_slices,
    _to_slices,
    decompose_batch_slices,
    decompose_opt,
    decompose_ripple,
    or_tree_slices,
)
from mpclr.engine import convert_bits_to_ring
from mpclr.prefixnet import and_tree_level, cached_plan, level_inputs
from mpclr.randomness import (
    TAG_BIT,
    TAG_PREFIXNET,
    TrustedDealer,
    expand_masks,
    serialize_stream,
)
from mpclr.sharing import Role, pack_rows, split_array, unpack_rows, word_count
from mpclr.transport import FRAME_HEADER

from helpers import protocol_pair

P8 = FixedPointParams(frac_bits=2, int_bits=2, ring_bits=8)
P16 = FixedPointParams(frac_bits=4, int_bits=3, ring_bits=16)
P64 = FixedPointParams()


def bit_sources(params, nbits, seed=0):
    dealer = TrustedDealer(seed, params)
    return dealer.generate([(TAG_BIT, nbits)])


def bit_rows(value: int, k: int) -> np.ndarray:
    """The k low bits of `value`, LSB first, as k one-bit rows of batch 1."""
    return np.array([[(value >> i) & 1] for i in range(k)], dtype=np.uint64)


class TestRipple:
    def test_known_shares(self):
        # shares (7, 6) reconstruct to 13 = 1101b, emitted LSB first
        ra, rb, sa, _ = protocol_pair(
            P8, lambda s: decompose_ripple(s, 7), lambda s: decompose_ripple(s, 6)
        )
        assert ra.bits ^ rb.bits == 13
        assert sa.transcript.bit_mults == 1 + 3 * 7

    def test_zero_bob_share_gives_alice_bits(self):
        for x in (0, 1, 173, 255):
            ra, rb, *_ = protocol_pair(
                P8, lambda s: decompose_ripple(s, x), lambda s: decompose_ripple(s, 0), seed=x
            )
            assert ra.bits ^ rb.bits == x

    def test_exhaustive_low_five_bit_share_pairs(self):
        """All 1024 share pairs with five-bit shares, against plain addition."""
        pairs = [(a, b) for a in range(32) for b in range(32)]
        dealer = TrustedDealer(3, P8)
        sources = dealer.generate([(TAG_BIT, 22 * len(pairs))])

        def run(side):
            def body(sess):
                outs = []
                for a, b in pairs:
                    outs.append(decompose_ripple(sess, a if side == 0 else b).bits)
                return outs
            return body

        ra, rb, *_ = protocol_pair(P8, run(0), run(1), sources=sources)
        for (a, b), x, y in zip(pairs, ra, rb):
            assert x ^ y == (a + b) % 256, (a, b)


class TestComposeCarry:
    # (p, g) of the higher position 2 ("left") and the lower position 1
    # ("right"), composed by the network into node (1, 2):
    # p = p_L p_R and g = (p_L g_R) XOR g_L.  A position's signals come from
    # the operand bits, p = a XOR b and g = a AND b, so (1, 1) never occurs.
    @pytest.mark.parametrize("left,right,expect", [
        ((1, 0), (0, 1), (0, 1)),   # propagate-left forwards the right generate
        ((0, 1), (1, 0), (0, 1)),   # generate dominates whatever is right
        ((0, 1), (0, 0), (0, 1)),
        ((0, 0), (0, 1), (0, 0)),   # neither set: the right generate is killed
        ((1, 0), (1, 0), (1, 0)),   # identity-like pass-through
        ((0, 0), (1, 0), (0, 0)),
    ])
    def test_truth_table(self, left, right, expect):
        rng = np.random.default_rng(left[0] * 8 + left[1] * 4 + right[0] * 2 + right[1])
        shares = [0, 0]
        for bit, (p, g) in ((1, right), (2, left)):
            if g:
                shares = [v | bit for v in shares]
            elif p:
                shares[int(rng.integers(0, 2))] |= bit
        na, nb = {}, {}
        _, _, sa, _ = protocol_pair(
            P8,
            lambda s: decompose_batch_slices(s, np.array([shares[0]], P8.dtype), 3, na),
            lambda s: decompose_batch_slices(s, np.array([shares[1]], P8.dtype), 3, nb),
        )
        (pa, ga), (pb, gb) = na[(1, 2)], nb[(1, 2)]
        assert (int(pa[0] ^ pb[0]), int(ga[0] ^ gb[0])) == expect
        # the setup generates, then two bit products per composition
        assert sa.transcript.bit_mults == 3 + 2 * len(cached_plan(3).compositions)


class TestOptimizedDecomposition:
    def test_agrees_with_ripple_random(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            a, b = (int(v) for v in rng.integers(0, 256, 2))
            opt_a, opt_b, *_ = protocol_pair(
                P8, lambda s: decompose_opt(s, a), lambda s: decompose_opt(s, b), seed=trial
            )
            rip_a, rip_b, *_ = protocol_pair(
                P8, lambda s: decompose_ripple(s, a), lambda s: decompose_ripple(s, b), seed=trial
            )
            assert opt_a.bits ^ opt_b.bits == rip_a.bits ^ rip_b.bits == (a + b) % 256

    def test_full_width_rounds(self):
        rng = np.random.default_rng(22)
        a, b = (int(v) for v in np.frombuffer(rng.bytes(16), dtype=np.uint64))
        ra, rb, sa, _ = protocol_pair(
            P64, lambda s: decompose_opt(s, a), lambda s: decompose_opt(s, b)
        )
        assert ra.bits ^ rb.bits == (a + b) % P64.modulus
        assert sa.transcript.rounds == 7  # ceil(log2 63) + 1

    def test_partial_width_rounds(self):
        # 29 bits = frac + int + 2 at default precision
        rng = np.random.default_rng(23)
        a, b = (int(v) for v in np.frombuffer(rng.bytes(16), dtype=np.uint64))
        ra, rb, sa, _ = protocol_pair(
            P64, lambda s: decompose_opt(s, a, 29), lambda s: decompose_opt(s, b, 29)
        )
        assert ra.bits ^ rb.bits == (a + b) % (1 << 29)
        assert ra.n == 29
        assert sa.transcript.rounds == 6  # ceil(log2 28) + 1

    @pytest.mark.parametrize("width,rounds", [(8, 4), (16, 5), (17, 5), (29, 6), (64, 7)])
    def test_round_formula(self, width, rounds):
        rng = np.random.default_rng(width)
        a, b = (int(v) for v in np.frombuffer(rng.bytes(16), dtype=np.uint64))
        _, _, sa, _ = protocol_pair(
            P64, lambda s: decompose_opt(s, a, width), lambda s: decompose_opt(s, b, width)
        )
        assert sa.transcript.rounds == rounds

    def test_width_validation(self):
        with pytest.raises(ValueError):
            protocol_pair(P8, lambda s: decompose_opt(s, 0, 9), lambda s: decompose_opt(s, 0, 9))

    def test_mask_bits_match_schedule(self):
        for width in (8, 16, 17, 29, 64):
            for batch in (1, 7):
                rng = np.random.default_rng(width * batch)
                vals = np.frombuffer(rng.bytes(8 * batch), dtype=np.uint64)
                va, vb = split_array(vals, P64, rng)
                _, _, sa, sb = protocol_pair(
                    P64,
                    lambda s: decompose_batch_slices(s, va.values, width),
                    lambda s: decompose_batch_slices(s, vb.values, width),
                )
                expected = cached_plan(width).mask_bits_per_element() * batch
                assert sa.transcript.mask_bits_sent == expected
                assert sb.transcript.mask_bits_sent == expected

    def test_never_both_true_at_every_node(self):
        """Oracle-mode reconstruction: propagate and generate are never both
        set anywhere in the network, which is what lets OR collapse to XOR."""
        rng = np.random.default_rng(25)
        vals = np.frombuffer(rng.bytes(8 * 32), dtype=np.uint64)
        va, vb = split_array(vals, P64, rng)
        na, nb = {}, {}
        protocol_pair(
            P64,
            lambda s: decompose_batch_slices(s, va.values, 17, collect_nodes=na),
            lambda s: decompose_batch_slices(s, vb.values, 17, collect_nodes=nb),
        )
        na.pop("__plan__")
        nb.pop("__plan__")
        for node, (pa, ga) in na.items():
            p = pa ^ nb[node][0]
            g = ga ^ nb[node][1]
            assert not np.any(p & g), f"propagate and generate both set at {node}"


class TestBatchDecompose:
    def test_batch_of_one_equals_single(self):
        rng = np.random.default_rng(26)
        a, b = (int(v) for v in np.frombuffer(rng.bytes(16), dtype=np.uint64))
        single_a, single_b, *_ = protocol_pair(
            P64, lambda s: decompose_opt(s, a, 16), lambda s: decompose_opt(s, b, 16)
        )
        arr_a = np.array([a], dtype=P64.dtype)
        arr_b = np.array([b], dtype=P64.dtype)
        batch_a, batch_b, *_ = protocol_pair(
            P64,
            lambda s: decompose_batch_slices(s, arr_a, 16),
            lambda s: decompose_batch_slices(s, arr_b, 16),
        )
        assert int(_from_slices(batch_a ^ batch_b, 1)[0]) == single_a.bits ^ single_b.bits

    @pytest.mark.parametrize("batch", [1, 256, 2048])
    def test_rounds_do_not_depend_on_batch(self, batch):
        rng = np.random.default_rng(27)
        vals = np.frombuffer(rng.bytes(8 * batch), dtype=np.uint64)
        va, vb = split_array(vals, P64, rng)
        _, _, sa, _ = protocol_pair(
            P64,
            lambda s: decompose_batch_slices(s, va.values, 64),
            lambda s: decompose_batch_slices(s, vb.values, 64),
        )
        assert sa.transcript.rounds == 7

    def test_batch_against_integer_oracle(self):
        rng = np.random.default_rng(28)
        vals = np.frombuffer(rng.bytes(8 * 256), dtype=np.uint64)
        va, vb = split_array(vals, P64, rng)
        la, lb, *_ = protocol_pair(
            P64,
            lambda s: decompose_batch_slices(s, va.values, 64),
            lambda s: decompose_batch_slices(s, vb.values, 64),
        )
        assert _from_slices(la ^ lb, 256).tolist() == [int(v) for v in vals]


class TestZeroTest:
    """`decompose_batch_slices` with a zero-test start a returns d = [x <
    2^a] and the top bit of x, the low `width` bits of the shared value."""

    @pytest.mark.parametrize("width,start", [
        (28, 12), (8, 4), (4, 2), (10, 8), (33, 31), (17, 1), (8, 7), (3, 1), (2, 1), (10, 4)])
    def test_against_plaintext(self, width, start):
        rng = np.random.default_rng(width * 100 + start)
        low = np.array([0, 1, (1 << start) - 1, 1 << start, (1 << width) - 1,
                        1 << (width - 1), (1 << (width - 1)) - 1], dtype=np.uint64)
        # a whole word of random values, then the edges of both bits
        vals = np.concatenate([np.frombuffer(rng.bytes(8 * 64), dtype=np.uint64), low])
        va, vb = split_array(vals, P64, rng)
        ra, rb, sa, sb = protocol_pair(
            P64,
            lambda s: decompose_batch_slices(s, va.values, width, zero_start=start),
            lambda s: decompose_batch_slices(s, vb.values, width, zero_start=start),
        )
        x = vals & np.uint64((1 << width) - 1)
        d, top = unpack_rows(ra ^ rb, len(vals))
        assert d.tolist() == (x < (1 << start)).astype(int).tolist()
        assert top.tolist() == (x >> np.uint64(width - 1)).astype(int).tolist()
        plan = cached_plan(width, start)
        for sess in (sa, sb):
            # the setup's one-sided products, then each round's
            assert sess.transcript.rounds == 1 + len(plan.rounds)
            assert sess.transcript.bit_mults == len(vals) * (
                plan.setup_ands + sum(layer.and_count for layer in plan.rounds))
            assert sess.transcript.mask_bits_sent == len(vals) * plan.mask_bits_per_element()


class TestOneSidedSetup:
    """The zero test's setup products are one-sided: Alice masks her
    operand rows with masks u only she holds and Bob his with masks v only
    he holds, so each party's setup frame is its own masked operand rows
    alone: its bits of every position but the top one, then the AND of its
    two bits of each first-layer pair.  The full decomposition keeps two
    rows per position."""

    @staticmethod
    def setup_round(width, start, batch):
        """Each party's share strings, its setup frame's payload words and
        its stream, from one decomposition."""
        rng = np.random.default_rng(1000 * width + batch)
        vals = np.frombuffer(rng.bytes(8 * batch), dtype=np.uint64)
        va, vb = split_array(vals, P64, rng)
        sources = TrustedDealer(batch, P64).generate([(TAG_PREFIXNET, (width, batch, start))])
        sessions = local_session_pair(P64, randomness_a=sources[0], randomness_b=sources[1])
        frames = ([], [])
        for sess, sent in zip(sessions, frames):
            send = sess.channel.send_bytes
            sess.channel.send_bytes = lambda data, send=send, sent=sent: (
                send(data) or sent.append(np.frombuffer(data[FRAME_HEADER.size:], np.uint64)))
        run_sessions(*sessions,
                     lambda s: decompose_batch_slices(s, va.values, width, zero_start=start),
                     lambda s: decompose_batch_slices(s, vb.values, width, zero_start=start))
        plan = cached_plan(width, start)
        lo, hi = plan.fold.pairs.T if start else ((), ())
        strings = [_to_slices(v.values, width) for v in (va, vb)]
        operands = [np.concatenate([rows[:width - 1], rows[lo] & rows[hi]]) if start else rows
                    for rows in strings]
        return operands, [sent[0] for sent in frames], sources

    @pytest.mark.parametrize("batch", [1, 64, 65, 225])
    @pytest.mark.parametrize("width,start", [(28, 12), (8, 4), (2, 1)])
    def test_each_party_sends_its_own_operand_alone(self, width, start, batch):
        operands, frames, sources = self.setup_round(width, start, batch)
        plan = cached_plan(width, start)
        for frame, rows in zip(frames, operands):
            assert len(frame) == plan.setup_rows * word_count(batch) == rows.size
        # each party's block holds the whole masks of its own operand rows
        # and its shares of the products of the two parties' masks, nothing
        # of its peer's masks
        blocks = [s.take_prefix_block(width, batch, start) for s in TrustedDealer(
            batch, P64).generate([(TAG_PREFIXNET, (width, batch, start))])]
        (u, w_a), (v, w_b) = (block.setup for block in blocks)
        alice, bob = plan.fold.products.T
        assert np.array_equal(np.concatenate(w_a) ^ np.concatenate(w_b),
                              (u[alice] & v[bob]).reshape(-1))
        # and each mask expands from its party's seed alone, which the
        # peer's stream does not hold
        streams = [bytes(serialize_stream(s)) for s in sources]
        for role, source, mask, theirs in zip(Role, sources, (u, v), streams[::-1]):
            (_, meta, (seed, *_)), = source.records
            masks, _ = expand_masks(seed, TAG_PREFIXNET, meta, P64, role)
            assert np.array_equal(masks[0][0], mask)
            assert seed.tobytes() not in theirs
        # so each frame is masked by masks its receiver never holds
        assert np.array_equal(frames[0], (operands[0] ^ u).reshape(-1))
        assert np.array_equal(frames[1], (operands[1] ^ v).reshape(-1))

    @pytest.mark.parametrize("width", [64, 29])
    def test_full_decomposition_sends_two_rows_per_position(self, width):
        # criterion 3's 64-bit decomposition counts both setup rows
        batch = 65
        _, frames, _ = self.setup_round(width, 0, batch)
        for frame in frames:
            assert len(frame) == 2 * width * word_count(batch)


class TestRoundOneReuse:
    """The zero test's first network round reuses the setup swap's
    openings.  The swap opened a XOR u and b XOR v, so every leaf's p is
    masked by u XOR v, Alice's share u and Bob's v, and is not opened
    again; each first-level term is masked by the XOR of its three signals'
    masks, so its masked input is computed from the opened signals instead
    of opened.  The plans are criterion 4's P16 (8, 4), the default 12/15
    (28, 12), 16/16 (33, 16) and 31/1 (33, 31)."""

    # per plan: each frame's rows, the setup's first, and the rows of
    # products its record deals per element: the setup's, the tree gates',
    # pg and pp
    ROWS = {
        (8, 4): ([10, 8, 6], (15, 5, 3, 1)),
        (28, 12): ([40, 40, 17, 7, 6], (71, 29, 14, 9)),
        (33, 16): ([48, 46, 21, 7, 6], (86, 32, 15, 11)),
        (33, 31): ([48, 32, 17, 9, 5, 2], (79, 1, 19, 14)),
    }

    @staticmethod
    def run(width, start, batch):
        """The opened values, d and the top bit, each party's sent frames
        and each party's prefix block, from one decomposition of `batch`
        values of which every third one has bits start..width-1 zero."""
        rng = np.random.default_rng(100 * width + batch)
        vals = np.frombuffer(rng.bytes(8 * batch), dtype=np.uint64).copy()
        vals[::3] &= np.uint64((1 << start) - 1)
        va, vb = split_array(vals, P64, rng)
        meta = (width, batch, start)
        sources = TrustedDealer(batch, P64).generate([(TAG_PREFIXNET, meta)])
        blocks = [s.take_prefix_block(*meta)
                  for s in TrustedDealer(batch, P64).generate([(TAG_PREFIXNET, meta)])]
        sessions = local_session_pair(P64, randomness_a=sources[0], randomness_b=sources[1])
        frames = ([], [])
        for sess, sent in zip(sessions, frames):
            send = sess.channel.send_bytes
            sess.channel.send_bytes = lambda data, send=send, sent=sent: (
                send(data) or sent.append(len(data) - FRAME_HEADER.size))
        ra, rb = run_sessions(
            *sessions,
            lambda s: decompose_batch_slices(s, va.values, width, zero_start=start),
            lambda s: decompose_batch_slices(s, vb.values, width, zero_start=start))
        return vals, unpack_rows(ra ^ rb, batch), frames, blocks

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 225])
    @pytest.mark.parametrize("width,start,derived", [
        (8, 4, 2), (28, 12, 14), (33, 31, 0), (33, 16, 15)])
    def test_round_one_opens_only_what_is_not_yet_open(self, width, start, derived, batch):
        vals, (d, top), frames, (blk_a, blk_b) = self.run(width, start, batch)
        plan = cached_plan(width, start)
        words = word_count(batch)
        opened, written = self.ROWS[width, start]
        # each round's frame is the plan's rows: the setup's operand rows,
        # then round 1's g of the leaves and of (1, 2), p and g of the other
        # first-layer pairs, and the gate inputs that are not derived
        assert [plan.setup_rows, *(layer.opened_rows for layer in plan.rounds)] == opened
        for sent in frames:
            assert sent == [8 * words * count for count in opened]
        # the record deals the plan's products and no p product of a
        # prefix (1, j)
        tree = sum(((1 << k) - 1 - k) * count for k, count in plan.gate_groups)
        assert (plan.setup_ands, tree, len(plan.compositions) - plan.folded,
                len(plan.pp_rows)) == written
        prefixes = {row for node, row in plan.node_rows.items() if node[0] == 1}
        assert not prefixes & set(plan.pp_rows.tolist())
        for blk in (blk_a, blk_b):
            assert sum(map(len, blk.setup[1])) == written[0] * words
            # a gate group's tuples hold its 2^k - 1 - k products after its k masks
            assert sum((len(g) - (len(g) + 1).bit_length() + 1) * g.shape[1]
                       for g in blk.gates) == tree
            assert (len(blk.prod_pg), len(blk.prod_pp)) == written[2:]
        mp, mg = blk_a.mask_p ^ blk_b.mask_p, blk_a.mask_g ^ blk_b.mask_g
        assert np.array_equal(blk_a.prod_pp ^ blk_b.prod_pp, mp[plan.pp_hi] & mp[plan.pp_lo])
        # every leaf's p mask is u XOR v, the setup's own masks
        leaves = width - 1
        u, v = blk_a.setup[0], blk_b.setup[0]
        assert np.array_equal(mp[:leaves], u[:leaves] ^ v[:leaves])
        # each first-level term j is masked by the masks of p_j, p_{j-1}
        # and g_{j-1}, and round 1 opens none of them
        level = plan.round_gates.get(1, ()) if derived else ()
        assert plan.derived_terms == derived
        inputs = np.empty((sum(k * count for k, count in level), words), np.uint64)
        for (k, _), ga, gb, view in zip(level, blk_a.gates, blk_b.gates,
                                        level_inputs(inputs, level)[0]):
            view[...] = (ga ^ gb)[[(1 << i) - 1 for i in range(k)]]
        assert len(inputs) == derived
        for r in range(derived):
            j = start + 1 + r
            assert np.array_equal(inputs[r], mp[j] ^ mp[j - 1]
                                  ^ mg[plan.masked_nodes.index((j, j))]), r
        if derived:
            assert len(blk_a.inputs[0]) == len(blk_b.inputs[0]) == 0
        # and the test stays exact
        x = vals & np.uint64((1 << width) - 1)
        assert d.tolist() == (x < (1 << start)).astype(int).tolist()
        assert top.tolist() == (x >> np.uint64(width - 1)).astype(int).tolist()

    @pytest.mark.parametrize("width", [8, 29, 64])
    def test_full_decomposition_opens_every_leaf(self, width):
        # criterion 3 pins the full decomposition's 524 mask bits at 64
        plan = cached_plan(width)
        assert (plan.folded, plan.derived_terms) == (0, 0)
        assert all(not len(layer.g_rows) and not layer.derived_inputs for layer in plan.rounds)


class TestSetupFold:
    """A zero test's setup finishes the network's first layer: each pair's
    G and P are XORs of one-sided products of Alice's bits a_lo, a_hi and
    a_lo AND a_hi with Bob's b_lo, b_hi and b_lo AND b_hi, and of the
    party's own AND of its two bits."""

    def test_truth_table(self):
        # element e of the batch holds case e of (a_lo, a_hi, b_lo, b_hi) in
        # every first-layer pair of P16's plan: (1, 2), (3, 4) and (5, 6)
        width, start = 8, 4
        plan = cached_plan(width, start)
        assert plan.fold.pairs.tolist() == [[0, 1], [2, 3], [4, 5]]
        a_lo, a_hi, b_lo, b_hi = (np.arange(16, dtype=np.uint64) >> np.uint64(i) & np.uint64(1)
                                  for i in range(4))
        shares = [sum((lo | hi << np.uint64(1)) << np.uint64(2 * k) for k in range(3))
                  for lo, hi in ((a_lo, a_hi), (b_lo, b_hi))]
        nodes = ({}, {})
        protocol_pair(
            P64,
            lambda s: decompose_batch_slices(s, shares[0], width, nodes[0], zero_start=start),
            lambda s: decompose_batch_slices(s, shares[1], width, nodes[1], zero_start=start))
        # the composition of the two leaves: P = p_hi p_lo, G = p_hi g_lo XOR g_hi
        p_lo, g_lo, p_hi, g_hi = a_lo ^ b_lo, a_lo & b_lo, a_hi ^ b_hi, a_hi & b_hi
        for pair in ((1, 2), (3, 4), (5, 6)):
            (pa, ga), (pb, gb) = nodes[0][pair], nodes[1][pair]
            assert unpack_rows((ga ^ gb)[None], 16)[0].tolist() == (
                p_hi & g_lo ^ g_hi).tolist(), pair
            if pair != (1, 2):  # no carry reads p of a prefix
                assert unpack_rows((pa ^ pb)[None], 16)[0].tolist() == (
                    p_hi & p_lo).tolist(), pair


class TestOrTree:
    @staticmethod
    def run(value_a, value_b, k, seed=0):
        """OR over the k bits of the secret value_a XOR value_b."""
        ra, rb, sa, _ = protocol_pair(
            P8,
            lambda s: or_tree_slices(s, bit_rows(value_a, k), 1),
            lambda s: or_tree_slices(s, bit_rows(value_b, k), 1),
            seed=seed,
        )
        return int(ra[0] ^ rb[0]), sa

    def test_all_zero(self):
        assert self.run(0b00000000, 0b00000000, 8)[0] == 0

    def test_one_hot(self):
        for hot in range(8):
            assert self.run(1 << hot, 0, 8, seed=hot)[0] == 1

    def test_exhaustive_four_bits(self):
        rng = np.random.default_rng(30)
        for pattern in range(16):
            mask_a = int(rng.integers(0, 16))
            opened, sa = self.run(pattern ^ mask_a, mask_a, 4, seed=pattern)
            assert opened == (1 if pattern else 0)
            assert sa.transcript.rounds == 2  # two ANDs, then one
            assert sa.transcript.bit_mults == 3

    def test_single_bit_is_free(self):
        opened, sa = self.run(1, 0, 1)
        assert opened == 1
        assert sa.transcript.rounds == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            protocol_pair(P8, lambda s: or_tree_slices(s, [], 1), lambda s: or_tree_slices(s, [], 1))

    @pytest.mark.parametrize("k,rounds", [(2, 1), (3, 2), (8, 3), (15, 4)])
    def test_round_count(self, k, rounds):
        _, sa = self.run(0, 0, k)
        assert sa.transcript.rounds == rounds
        assert sa.transcript.bit_mults == k - 1

    @pytest.mark.parametrize("k", range(1, 18))
    def test_every_row_count(self, k):
        """k rows of a 70-element batch, sparse enough that some columns OR
        to 0, in ceil(log2 k) rounds and k - 1 ANDs per element."""
        batch = 70
        rng = np.random.default_rng(k)
        secret = (rng.random((k, batch)) < 0.6 / k).astype(np.uint8)
        secret[:, 0], secret[:, 1] = 0, 1
        share_b = pack_rows(rng.integers(0, 2, (k, batch), dtype=np.uint8))
        share_a = pack_rows(secret) ^ share_b
        ra, rb, sa, _ = protocol_pair(
            P8,
            lambda s: or_tree_slices(s, share_a, batch),
            lambda s: or_tree_slices(s, share_b, batch),
            seed=k,
        )
        assert unpack_rows((ra ^ rb)[None], batch)[0].tolist() == secret.any(axis=0).tolist()
        assert sa.transcript.rounds == (k - 1).bit_length()  # ceil(log2 k)
        assert sa.transcript.bit_mults == (k - 1) * batch

    def test_levels(self):
        # the zero test's tree: rows in groups of three, the rest as 2-input
        # gates, two of them in place of a 3-input gate and a row alone; a
        # row alone passes on
        assert and_tree_level(1) == []
        assert and_tree_level(2) == [(2, 1)]
        assert and_tree_level(4) == [(2, 2)]
        assert and_tree_level(14) == [(3, 4), (2, 1)]
        assert and_tree_level(15) == [(3, 5)]
        assert and_tree_level(16) == [(3, 4), (2, 2)]
        for k in range(2, 40):
            level = and_tree_level(k)
            assert sum(i * count for i, count in level) == k
            assert k - sum((i - 1) * count for i, count in level) == -(-k // 3)


class TestConversion:
    @staticmethod
    def run(params, bit_a, bit_b, seed):
        ra, rb, sa, _ = protocol_pair(
            params,
            lambda s: convert_bits_to_ring(s, np.array([[bit_a]], dtype=np.uint64), 1),
            lambda s: convert_bits_to_ring(s, np.array([[bit_b]], dtype=np.uint64), 1),
            seed=seed,
        )
        return (int(ra[0]) + int(rb[0])) % params.modulus, sa

    @pytest.mark.parametrize("bit_a,bit_b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_exhaustive_cases(self, bit_a, bit_b):
        for trial in range(10):
            opened, sa = self.run(P16, bit_a, bit_b, seed=trial * 4 + bit_a * 2 + bit_b)
            assert opened == bit_a ^ bit_b
            assert sa.transcript.rounds == 1  # one opening of b XOR r
            assert sa.transcript.ring_mults == 0

    def test_wide_ring(self):
        for trial in range(25):
            assert self.run(P64, 1, 0, seed=trial)[0] == 1
