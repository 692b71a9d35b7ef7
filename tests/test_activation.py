import numpy as np
import pytest

from mpclr import FixedPointParams
from mpclr.activation import batch_activate, clipped_relu, clipped_relu_fixed
from mpclr.engine import Session
from mpclr.fixedpoint import decode, decode_array, encode, encode_array
from mpclr.sharing import split, split_array, unpack_rows

from helpers import protocol_pair

P64 = FixedPointParams()                                    # a=12, b=15
P16 = FixedPointParams(frac_bits=4, int_bits=3, ring_bits=16)
P8 = FixedPointParams(frac_bits=2, int_bits=2, ring_bits=8)


def reference_rho(z: int, params) -> int:
    """Independent oracle: decode, apply the piecewise definition on reals,
    re-encode.  Exact because inputs and 1/2 sit on the value grid."""
    v = decode(z, params)
    if v < -0.5:
        return 0
    if v >= 0.5:
        return encode(1.0, params)
    return encode(v + 0.5, params)


def run_single(z: int, params, seed=0):
    za, zb = split(z, params, np.random.default_rng(seed + 1000))
    ra, rb, sa, sb = protocol_pair(
        params,
        lambda s: batch_activate(s, np.array([za.value], dtype=params.dtype)),
        lambda s: batch_activate(s, np.array([zb.value], dtype=params.dtype)),
        seed=seed,
    )
    return (int(ra[0]) + int(rb[0])) % params.modulus, sa


class TestSingleActivation:
    @pytest.mark.parametrize("value,expected", [
        (0.0, 0.5),     # midpoint maps to one half
        (2.0, 1.0),     # saturated high
        (-3.0, 0.0),    # saturated low
        (0.5, 1.0),     # boundary: the integer field of z+1/2 is exactly 1
        (-0.5, 0.0),    # boundary: z+1/2 is exactly 0
    ])
    def test_known_values(self, value, expected):
        opened, _ = run_single(encode(value, P64), P64, seed=int(value * 4) & 0xFF)
        assert decode(opened, P64) == expected

    def test_encoded_outputs_match_spec_constants(self):
        opened, _ = run_single(encode(0.0, P64), P64)
        assert opened == 2048
        opened, _ = run_single(encode(2.0, P64), P64)
        assert opened == 4096

    def test_exhaustive_grid_small_params(self):
        """Every representable input inside the valid domain against the
        independently computed fixed-point rho; exercises all three branch
        behaviors.  With one integer bit the zero test's conjunction has one
        term and no gate of its own."""
        for params in (P16, FixedPointParams(frac_bits=2, int_bits=1, ring_bits=8),
                       FixedPointParams(frac_bits=4, int_bits=1, ring_bits=16),
                       FixedPointParams(frac_bits=8, int_bits=1, ring_bits=64)):
            a, b = params.frac_bits, params.int_bits
            lo, hi = -(1 << (a + b - 1)) + 1, 1 << (a + b - 1)
            branches = {"low": 0, "mid": 0, "high": 0}
            for signed in range(lo, hi):
                z = signed % params.modulus
                opened, _ = run_single(z, params, seed=signed & 0x3FF)
                expect = reference_rho(z, params)
                assert opened == expect, f"{params}, z={signed}: got {opened}, expect {expect}"
                assert opened == int(clipped_relu_fixed(z, params)[0])
                v = decode(z, params)
                branches["low" if v < -0.5 else "high" if v >= 0.5 else "mid"] += 1
            assert all(branches.values()), (params, branches)

    def test_output_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            v = float(rng.uniform(-3.9, 3.9))
            opened, _ = run_single(encode(v, P16), P16, seed=int(v * 100) & 0xFF)
            assert 0 <= opened <= P16.scale


class TestBatchActivation:
    def test_batch_of_one_equals_single(self):
        z = encode(0.75, P64)
        single, _ = run_single(z, P64, seed=5)
        za, zb = split(z, P64, np.random.default_rng(1005))
        ba, bb, *_ = protocol_pair(
            P64,
            lambda s: batch_activate(s, np.array([za.value], dtype=P64.dtype)),
            lambda s: batch_activate(s, np.array([zb.value], dtype=P64.dtype)),
            seed=5,
        )
        assert (int(ba[0]) + int(bb[0])) % P64.modulus == single

    def test_thousand_random_inputs_match_float_oracle(self):
        rng = np.random.default_rng(32)
        reals = rng.uniform(-4.0, 4.0, 1024)
        zs = encode_array(reals, P64)
        za, zb = split_array(zs, P64, rng)
        ra, rb, sa, _ = protocol_pair(
            P64,
            lambda s: batch_activate(s, za.values),
            lambda s: batch_activate(s, zb.values),
        )
        opened = ra + rb
        grid_inputs = decode_array(zs, P64)          # exact values that were shared
        expect = encode_array(clipped_relu(grid_inputs), P64)
        assert np.array_equal(opened, expect)

    @pytest.mark.parametrize("batch", [1, 64, 65, 512])
    def test_rounds_independent_of_batch(self, batch):
        # 65 puts the last element of every bit row in a word of its own
        rng = np.random.default_rng(33)
        zs = encode_array(rng.uniform(-2, 2, batch), P64)
        za, zb = split_array(zs, P64, rng)
        ra, rb, sa, _ = protocol_pair(
            P64,
            lambda s: batch_activate(s, za.values),
            lambda s: batch_activate(s, zb.values),
        )
        # decomposition with its zero test 6 + conversion 1, which also
        # returns the product
        assert sa.transcript.rounds == 7
        assert np.array_equal(ra + rb, clipped_relu_fixed(zs, P64))

    def test_ring_mult_budget(self):
        batch = 32
        rng = np.random.default_rng(34)
        zs = encode_array(rng.uniform(-2, 2, batch), P64)
        za, zb = split_array(zs, P64, rng)
        _, _, sa, _ = protocol_pair(
            P64,
            lambda s: batch_activate(s, za.values),
            lambda s: batch_activate(s, zb.values),
        )
        # the output product, per element; the conversion opens daBit-masked bits
        assert sa.transcript.ring_mults == batch
        width = P64.frac_bits + P64.int_bits + 1
        from mpclr.prefixnet import cached_plan

        # the setup, the network, and the zero test's int_bits - 1 tree ANDs
        # and final AND
        per_elem = (width + 2 * len(cached_plan(width, P64.frac_bits).compositions)
                    + P64.int_bits)
        assert sa.transcript.bit_mults == per_elem * batch


class TestOpenedValuesLookUniform:
    def test_masked_openings_carry_no_signal(self, monkeypatch):
        """Across many sessions on one fixed input, the ring words that ever
        get opened are indistinguishable from uniform (chi-squared check at
        the eight-bit ring), and so are the two bits c = b XOR r that the
        conversion opens, although d = 0 and e = 1 on every run."""
        z = encode(0.5, P8)
        za, zb = split(z, P8, np.random.default_rng(77))
        counts = np.zeros(256, dtype=np.int64)
        c_ones = np.zeros(2, dtype=np.int64)
        runs = 1000
        # the ring tensors and the bit matrices of each of Alice's openings
        opened = []
        session_open = Session.open

        def recording_open(sess, ring=(), bits=()):
            out = session_open(sess, ring, bits)
            if sess.is_alice:
                opened.append((out[:len(ring)], out[len(ring):]))
            return out

        monkeypatch.setattr(Session, "open", recording_open)
        for seed in range(runs):
            opened.clear()
            protocol_pair(
                P8,
                lambda s: batch_activate(s, np.array([za.value], dtype=P8.dtype)),
                lambda s: batch_activate(s, np.array([zb.value], dtype=P8.dtype)),
                seed=seed,
            )
            for ring, _ in opened:
                for a in ring:
                    for word in a.ravel():
                        counts[int(word) & 0xFF] += 1
            # the conversion's opening is the last bit matrix, rows c_d and c_e
            c = [m for _, bits in opened for m in bits][-1]
            assert c.shape == (2, 1)
            c_ones += unpack_rows(c, 1)[:, 0]
        total = counts.sum()
        assert total == 2000  # the two masked operands of r·z', opened with c, per run
        expected = total / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 330, chi2
        # binomial(1000, 1/2) per position: mean 500, standard deviation 15.8
        assert np.all(np.abs(c_ones - runs / 2) < 5 * np.sqrt(runs) / 2), c_ones
