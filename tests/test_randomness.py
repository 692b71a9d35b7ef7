import numpy as np
import pytest

from mpclr import (
    FixedPointParams,
    ProtocolError,
    RandomnessUnderflowError,
    Role,
    TrainingConfig,
    training_randomness_requests,
)
from mpclr.errors import FormatError
from mpclr.prefixnet import cached_plan, closed_form_mask_bits
from mpclr.randomness import (
    MATMUL_MASK,
    MATMUL_REUSE,
    MATMUL_REUSE_T,
    TAG_BIT,
    TAG_CONVERSION,
    TAG_MATMUL,
    TAG_PREFIXNET,
    TAG_SCALAR,
    MatmulDims,
    OnDemandSource,
    TrustedDealer,
    deserialize_stream,
    make_bit_triple,
    make_ring_triple,
    serialize_stream,
)

P16 = FixedPointParams(frac_bits=4, int_bits=3, ring_bits=16)
P64 = FixedPointParams(frac_bits=12, int_bits=15, ring_bits=64)


class TestTripleGeneration:
    def test_forced_scalar(self):
        rng = np.random.default_rng(0)
        a, b = make_ring_triple(np.array([2]), np.array([7]), P16, rng)
        w = (int(a[2][0]) + int(b[2][0])) % P16.modulus
        assert w == 14
        assert (int(a[0][0]) + int(b[0][0])) % P16.modulus == 2
        assert (int(a[1][0]) + int(b[1][0])) % P16.modulus == 7

    def test_bit_triple_ones(self):
        a, b = make_bit_triple(1, np.random.default_rng(0), u_vals=1, v_vals=1)
        assert (a[2] ^ b[2]) == 1

    def test_identity_matrix_triple(self):
        rng = np.random.default_rng(1)
        eye = np.eye(2, dtype=P16.dtype)
        a, b = make_ring_triple(eye, eye, P16, rng)
        w = (a[2].astype(P16.dtype) + b[2].astype(P16.dtype))
        assert np.array_equal(w, eye)

    def test_exhaustive_bit_triples(self):
        rng = np.random.default_rng(2)
        for u in (0, 1):
            for v in (0, 1):
                a, b = make_bit_triple(1, rng, u_vals=u, v_vals=v)
                assert ((a[0] ^ b[0]), (a[1] ^ b[1]), (a[2] ^ b[2])) == (u, v, u & v)

    def test_random_ring_triples_reconstruct(self):
        dealer = TrustedDealer(31337, P64)
        a, b = dealer.ring_pool_block(10_000, TAG_SCALAR)
        u = a[0] + b[0]
        v = a[1] + b[1]
        w = a[2] + b[2]
        assert np.array_equal(u * v, w)

    def test_matmul_block_reconstructs(self):
        dealer = TrustedDealer(5, P64)
        blk_a, blk_b = dealer.matmul_block((3, 4, 2))
        u = blk_a.u + blk_b.u
        v = blk_a.v + blk_b.v
        w = blk_a.w + blk_b.w
        assert np.array_equal(u @ v, w)

    def test_prefix_block_consistency(self):
        width, batch = 8, 5
        dealer = TrustedDealer(7, P16)
        blk_a, blk_b = dealer.prefix_block(width, batch)
        plan = cached_plan(width)
        su = blk_a.setup_u ^ blk_b.setup_u
        sv = blk_a.setup_v ^ blk_b.setup_v
        sw = blk_a.setup_w ^ blk_b.setup_w
        assert sw == su & sv
        mp = [x ^ y for x, y in zip(blk_a.mask_p, blk_b.mask_p)]
        mg = [x ^ y for x, y in zip(blk_a.mask_g, blk_b.mask_g)]
        for idx, comp in enumerate(plan.compositions):
            lo, hi = plan.mask_index(comp.left), plan.mask_index(comp.right)
            assert (blk_a.prod_pp[idx] ^ blk_b.prod_pp[idx]) == (mp[hi] & mp[lo])
            assert (blk_a.prod_pg[idx] ^ blk_b.prod_pg[idx]) == (mp[hi] & mg[lo])


class TestStreams:
    REQUESTS = [
        (TAG_SCALAR, 10),
        (TAG_MATMUL, (2, 3, 1)),
        (TAG_BIT, 130),
        (TAG_CONVERSION, 4),
        (TAG_PREFIXNET, (8, 3)),
    ]

    def test_determinism(self):
        s1 = TrustedDealer(42, P64).generate(self.REQUESTS)
        s2 = TrustedDealer(42, P64).generate(self.REQUESTS)
        assert serialize_stream(s1[0]) == serialize_stream(s2[0])
        assert serialize_stream(s1[1]) == serialize_stream(s2[1])
        s3 = TrustedDealer(43, P64).generate(self.REQUESTS)
        assert serialize_stream(s1[0]) != serialize_stream(s3[0])

    def test_round_trip(self):
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        data = serialize_stream(src_a)
        back = deserialize_stream(data, P64)
        assert serialize_stream(back) == data
        u, v, w = back.take_ring_triples(10)
        ou, ov, ow = src_a.take_ring_triples(10)
        assert np.array_equal(u, ou) and np.array_equal(v, ov) and np.array_equal(w, ow)
        assert back.take_bit_triples(130) == src_a.take_bit_triples(130)

    def test_tampered_magic(self):
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        raw = bytearray(serialize_stream(src_a))
        raw[:4] = b"NOPE"
        with pytest.raises(FormatError, match="magic"):
            deserialize_stream(bytes(raw), P64)

    def test_truncated_stream(self):
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        raw = serialize_stream(src_a)
        with pytest.raises(FormatError):
            deserialize_stream(raw[:-4], P64)

    def test_cross_party_reconstruction(self):
        src_a, src_b = TrustedDealer(9, P64).generate([(TAG_SCALAR, 64)])
        ua, va, wa = src_a.take_ring_triples(64)
        ub, vb, wb = src_b.take_ring_triples(64)
        assert np.array_equal((ua + ub) * (va + vb), wa + wb)

    def test_underflow(self):
        src_a, _ = TrustedDealer(1, P64).generate([(TAG_SCALAR, 4)])
        src_a.take_ring_triples(3)
        with pytest.raises(RandomnessUnderflowError):
            src_a.take_ring_triples(2)

    def test_matmul_dims_checked(self):
        src_a, _ = TrustedDealer(1, P64).generate([(TAG_MATMUL, (2, 2, 2))])
        with pytest.raises(ProtocolError):
            src_a.take_matmul_triple((3, 1, 1))

    def test_matmul_exhaustion(self):
        src_a, _ = TrustedDealer(1, P64).generate([])
        with pytest.raises(RandomnessUnderflowError):
            src_a.take_matmul_triple((1, 1, 1))

    def test_on_demand_matches_dealer(self):
        requests = [(TAG_SCALAR, 6), (TAG_BIT, 40)]
        src_a, src_b = TrustedDealer(77, P64).generate(requests)
        od_a = OnDemandSource(77, Role.ALICE, P64)
        od_b = OnDemandSource(77, Role.BOB, P64)
        assert np.array_equal(od_a.take_ring_triples(6)[0], src_a.take_ring_triples(6)[0])
        assert od_b.take_bit_triples(40) == src_b.take_bit_triples(40)


def take(source, tag, meta):
    """Consume one request's worth of randomness, whatever its tag."""
    if tag in (TAG_SCALAR, TAG_CONVERSION):
        return source.take_ring_triples(meta, tag)
    if tag == TAG_BIT:
        return source.take_bit_triples(meta)
    if tag == TAG_MATMUL:
        return source.take_matmul_triple(meta)
    block = source.take_prefix_block(*meta)
    return (block.setup_u, block.setup_v, block.setup_w,
            block.mask_p, block.mask_g, block.prod_pp, block.prod_pg)


def same_parts(a, b):
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(a, b, strict=True))


def crn1_bytes(requests, params):
    """Size of one party's CRN1 stream, from the request metadata alone."""
    def packed(nbits):
        return max(1, -(-nbits // 64))

    words = 0
    for tag, meta in requests:
        if tag in (TAG_SCALAR, TAG_CONVERSION):
            words += 3 * meta
        elif tag == TAG_BIT:
            words += 3 * packed(meta)
        elif tag == TAG_MATMUL:
            words += sum(r * c for r, c in filter(None, MatmulDims(*meta).shapes()))
        else:
            width, batch = meta
            plan = cached_plan(width)
            nodes = 2 * len(plan.masked_nodes) + 2 * len(plan.compositions)
            words += 3 * packed(width * batch) + nodes * packed(batch)
    return 18 + 25 * len(requests) + 8 * words  # file header, record headers, words


class TestMaskedRecords:
    N, M = 5, 3
    MASK = (TAG_MATMUL, MatmulDims(N, M, 0, MATMUL_MASK))
    FORWARD = (TAG_MATMUL, MatmulDims(N, M, 1, MATMUL_REUSE))
    GRADIENT = (TAG_MATMUL, MatmulDims(N, M, 1, MATMUL_REUSE_T))
    REQUESTS = [MASK, FORWARD, (TAG_SCALAR, 4), GRADIENT, (TAG_MATMUL, (2, 3, 1)), FORWARD]

    def test_reuse_records_carry_products_with_the_mask(self):
        src_a, src_b = TrustedDealer(8, P64).generate(self.REQUESTS)
        parts = [(take(src_a, *r), take(src_b, *r)) for r in self.REQUESTS]
        (ua, va, wa), (ub, vb, wb) = parts[0]
        assert va is wa is vb is wb is None
        u = ua + ub
        for (a, b), transpose in ((parts[1], False), (parts[3], True), (parts[5], False)):
            assert a[0] is None and b[0] is None
            v, w = a[1] + b[1], a[2] + b[2]
            assert np.array_equal(w, (u.T if transpose else u) @ v)
        assert parts[1][0][1].shape == (self.M, 1) and parts[3][0][1].shape == (self.N, 1)

    def test_round_trip(self):
        src_a, _ = TrustedDealer(8, P64).generate(self.REQUESTS)
        data = serialize_stream(src_a)
        back = deserialize_stream(data, P64)
        assert serialize_stream(back) == data
        for request in self.REQUESTS:
            assert same_parts(take(back, *request), take(src_a, *request))

    def test_unknown_kind_rejected(self):
        src_a, _ = TrustedDealer(8, P64).generate([self.MASK])
        raw = bytearray(serialize_stream(src_a))
        raw[18] = TAG_MATMUL | 7 << 4  # first record's tag byte
        with pytest.raises(FormatError, match="kind"):
            deserialize_stream(bytes(raw), P64)

    def test_on_demand_matches_materialized_training_plan(self):
        cfg = TrainingConfig(eta=0.05, n_iter=3, params=P64, seed=21)
        requests = training_randomness_requests(6, 4, cfg)
        streams = TrustedDealer(21, P64).generate(requests)
        for role, stream in zip((Role.ALICE, Role.BOB), streams):
            on_demand = OnDemandSource(21, role, P64)
            for request in requests:
                assert same_parts(take(on_demand, *request), take(stream, *request)), request

    def test_stream_for_other_dims_is_a_protocol_error(self):
        src_a, src_b = TrustedDealer(8, P64).generate(self.REQUESTS)
        with pytest.raises(ProtocolError, match="mismatch"):
            src_a.take_matmul_triple(MatmulDims(self.N + 1, self.M, 0, MATMUL_MASK))
        take(src_b, *self.MASK)
        with pytest.raises(ProtocolError, match="mismatch"):
            src_b.take_matmul_triple(MatmulDims(self.N, self.M, 1, MATMUL_REUSE_T))

    def test_reuse_before_mask_is_refused(self):
        with pytest.raises(ProtocolError, match="mask"):
            TrustedDealer(8, P64).generate([self.FORWARD])

    def test_size_from_metadata_matches_serialized_stream(self):
        cfg = TrainingConfig(eta=0.05, n_iter=2, params=P64, seed=3)
        requests = training_randomness_requests(7, 5, cfg) + [(TAG_MATMUL, (2, 3, 4))]
        src_a, _ = TrustedDealer(3, P64).generate(requests)
        assert len(serialize_stream(src_a)) == crn1_bytes(requests, P64)

    def test_paper_run_provisions_under_100_mb_per_party(self):
        # 225 x 12,634 features, 223 iterations: about 21 GB per party when
        # every iteration re-masked X
        cfg = TrainingConfig(eta=0.001, n_iter=223, params=P64, seed=0)
        requests = training_randomness_requests(225, 12_634, cfg)
        assert crn1_bytes(requests, P64) < 100e6


class TestMaskCountFormula:
    @pytest.mark.parametrize("p", [8, 16, 17, 32, 64])
    def test_schedule_matches_closed_form(self, p):
        assert cached_plan(p).mask_bits_per_element() == closed_form_mask_bits(p)

    def test_block_sizes_follow_schedule(self):
        width, batch = 16, 4
        plan = cached_plan(width)
        blk_a, _ = TrustedDealer(3, P16).prefix_block(width, batch)
        assert len(blk_a.mask_p) == len(plan.masked_nodes)
        assert len(blk_a.prod_pp) == len(plan.compositions)
