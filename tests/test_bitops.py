import numpy as np
import pytest

from mpclr import FixedPointParams
from mpclr.bitops import (
    _from_slices,
    decompose_batch_slices,
    decompose_opt,
    decompose_ripple,
    or_tree_levels,
    or_tree_slices,
)
from mpclr.engine import convert_bits_to_ring
from mpclr.prefixnet import cached_plan
from mpclr.randomness import TAG_BIT, TrustedDealer
from mpclr.sharing import pack_rows, split_array, unpack_rows

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
        (28, 12), (8, 4), (4, 2), (10, 8), (33, 31), (17, 1), (8, 7), (3, 1), (2, 1)])
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
            assert sess.transcript.rounds == 1 + len(plan.rounds)
            assert sess.transcript.bit_mults == len(vals) * (
                width + sum(layer.and_count for layer in plan.rounds))
            assert sess.transcript.mask_bits_sent == len(vals) * plan.mask_bits_per_element()


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
            assert sa.transcript.rounds == 1  # one 4-input gate
            assert sa.transcript.bit_mults == 3

    def test_single_bit_is_free(self):
        opened, sa = self.run(1, 0, 1)
        assert opened == 1
        assert sa.transcript.rounds == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            protocol_pair(P8, lambda s: or_tree_slices(s, [], 1), lambda s: or_tree_slices(s, [], 1))

    @pytest.mark.parametrize("k,rounds", [(2, 1), (3, 1), (8, 2), (15, 2)])
    def test_round_count(self, k, rounds):
        _, sa = self.run(0, 0, k)
        assert sa.transcript.rounds == rounds
        assert sa.transcript.bit_mults == k - 1

    @pytest.mark.parametrize("k", range(1, 18))
    def test_every_row_count(self, k):
        """k rows of a 70-element batch, sparse enough that some columns OR
        to 0, in ceil(log4 k) rounds and k - 1 ANDs per element."""
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
        rounds = next(r for r in range(4) if 4 ** r >= k)  # ceil(log4 k)
        assert sa.transcript.rounds == len(or_tree_levels(k)) == rounds
        assert sa.transcript.bit_mults == (k - 1) * batch

    def test_levels(self):
        # rows in groups of four, the rest as one smaller gate or passed on
        assert or_tree_levels(1) == []
        assert or_tree_levels(16) == [[(4, 4)], [(4, 1)]]
        assert or_tree_levels(15) == [[(4, 3), (3, 1)], [(4, 1)]]
        assert or_tree_levels(17) == [[(4, 4)], [(4, 1)], [(2, 1)]]


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
