import numpy as np
import pytest

from mpclr import FixedPointParams, Role
from mpclr.bitops import (
    CarrySignalPair,
    batch_decompose,
    compose_carry,
    convert_bit_to_ring,
    decompose_batch_slices,
    decompose_opt,
    decompose_ripple,
    or_tree,
    or_tree_slices,
)
from mpclr.prefixnet import cached_plan
from mpclr.randomness import TAG_BIT, TrustedDealer
from mpclr.sharing import BitShare, BitVectorShare, split_array

from helpers import protocol_pair

P8 = FixedPointParams(frac_bits=2, int_bits=2, ring_bits=8)
P16 = FixedPointParams(frac_bits=4, int_bits=3, ring_bits=16)
P64 = FixedPointParams()


def bit_sources(params, nbits, seed=0):
    dealer = TrustedDealer(seed, params)
    return dealer.generate([(TAG_BIT, nbits)])


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
    @pytest.mark.parametrize("left,right,expect", [
        ((1, 0), (0, 1), (0, 1)),   # propagate-left forwards the right generate
        ((0, 1), (1, 0), (0, 1)),   # generate dominates whatever is right
        ((0, 1), (0, 0), (0, 1)),
        ((0, 1), (1, 1), (0, 1)),
        ((1, 0), (1, 0), (1, 0)),   # identity-like pass-through
        ((0, 0), (1, 0), (0, 0)),
    ])
    def test_truth_table(self, left, right, expect):
        rng = np.random.default_rng(left[0] * 8 + left[1] * 4 + right[0] * 2 + right[1])
        shares = {}
        for name, (p, g) in (("l", left), ("r", right)):
            pa = int(rng.integers(0, 2))
            ga = int(rng.integers(0, 2))
            shares[name] = (
                CarrySignalPair(BitShare(pa, Role.ALICE), BitShare(ga, Role.ALICE)),
                CarrySignalPair(BitShare(p ^ pa, Role.BOB), BitShare(g ^ ga, Role.BOB)),
            )
        ra, rb, sa, _ = protocol_pair(
            P8,
            lambda s: compose_carry(s, shares["l"][0], shares["r"][0]),
            lambda s: compose_carry(s, shares["l"][1], shares["r"][1]),
        )
        got = (ra.p.bit ^ rb.p.bit, ra.g.bit ^ rb.g.bit)
        assert got == expect
        assert sa.transcript.rounds == 1  # both products ride one call
        assert sa.transcript.bit_mults == 2


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
            P64, lambda s: batch_decompose(s, arr_a, 16), lambda s: batch_decompose(s, arr_b, 16)
        )
        assert batch_a[0].bits ^ batch_b[0].bits == single_a.bits ^ single_b.bits

    @pytest.mark.parametrize("batch", [1, 256, 2048])
    def test_rounds_do_not_depend_on_batch(self, batch):
        rng = np.random.default_rng(27)
        vals = np.frombuffer(rng.bytes(8 * batch), dtype=np.uint64)
        va, vb = split_array(vals, P64, rng)
        _, _, sa, _ = protocol_pair(
            P64, lambda s: batch_decompose(s, va.values), lambda s: batch_decompose(s, vb.values)
        )
        assert sa.transcript.rounds == 7

    def test_batch_against_integer_oracle(self):
        rng = np.random.default_rng(28)
        vals = np.frombuffer(rng.bytes(8 * 256), dtype=np.uint64)
        va, vb = split_array(vals, P64, rng)
        la, lb, *_ = protocol_pair(
            P64, lambda s: batch_decompose(s, va.values), lambda s: batch_decompose(s, vb.values)
        )
        for x, y, v in zip(la, lb, vals):
            assert x.bits ^ y.bits == int(v)


class TestOrTree:
    def test_all_zero(self):
        ra, rb, *_ = protocol_pair(
            P8,
            lambda s: or_tree(s, BitVectorShare(0b00000000, 8, Role.ALICE)),
            lambda s: or_tree(s, BitVectorShare(0b00000000, 8, Role.BOB)),
        )
        assert ra.bit ^ rb.bit == 0

    def test_one_hot(self):
        for hot in range(8):
            ra, rb, *_ = protocol_pair(
                P8,
                lambda s: or_tree(s, BitVectorShare(1 << hot, 8, Role.ALICE)),
                lambda s: or_tree(s, BitVectorShare(0, 8, Role.BOB)),
                seed=hot,
            )
            assert ra.bit ^ rb.bit == 1

    def test_exhaustive_four_bits(self):
        rng = np.random.default_rng(30)
        for pattern in range(16):
            mask_a = int(rng.integers(0, 16))
            ra, rb, sa, _ = protocol_pair(
                P8,
                lambda s: or_tree(s, BitVectorShare(pattern ^ mask_a, 4, Role.ALICE)),
                lambda s: or_tree(s, BitVectorShare(mask_a, 4, Role.BOB)),
                seed=pattern,
            )
            assert ra.bit ^ rb.bit == (1 if pattern else 0)
            assert sa.transcript.rounds == 2  # ceil(log2 4)
            assert sa.transcript.bit_mults == 3

    def test_single_bit_is_free(self):
        ra, rb, sa, _ = protocol_pair(
            P8,
            lambda s: or_tree(s, BitVectorShare(1, 1, Role.ALICE)),
            lambda s: or_tree(s, BitVectorShare(0, 1, Role.BOB)),
        )
        assert ra.bit ^ rb.bit == 1
        assert sa.transcript.rounds == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            protocol_pair(P8, lambda s: or_tree_slices(s, [], 1), lambda s: or_tree_slices(s, [], 1))

    @pytest.mark.parametrize("k,rounds", [(2, 1), (3, 2), (8, 3), (15, 4)])
    def test_round_count(self, k, rounds):
        _, _, sa, _ = protocol_pair(
            P8,
            lambda s: or_tree(s, BitVectorShare(0, k, Role.ALICE)),
            lambda s: or_tree(s, BitVectorShare(0, k, Role.BOB)),
        )
        assert sa.transcript.rounds == rounds
        assert sa.transcript.bit_mults == k - 1


class TestConversion:
    @pytest.mark.parametrize("bit_a,bit_b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_exhaustive_cases(self, bit_a, bit_b):
        for trial in range(10):
            ra, rb, sa, _ = protocol_pair(
                P16,
                lambda s: convert_bit_to_ring(s, BitShare(bit_a, Role.ALICE)),
                lambda s: convert_bit_to_ring(s, BitShare(bit_b, Role.BOB)),
                seed=trial * 4 + bit_a * 2 + bit_b,
            )
            assert (ra.value + rb.value) % P16.modulus == bit_a ^ bit_b
            assert sa.transcript.rounds == 2  # re-share, then one multiplication
            assert sa.transcript.ring_mults == 1

    def test_wide_ring(self):
        for trial in range(25):
            ra, rb, *_ = protocol_pair(
                P64,
                lambda s: convert_bit_to_ring(s, BitShare(1, Role.ALICE)),
                lambda s: convert_bit_to_ring(s, BitShare(0, Role.BOB)),
                seed=trial,
            )
            assert (ra.value + rb.value) % P64.modulus == 1
