import math
import struct
import tracemalloc

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
    expand_seed,
    mask_shapes,
    serialize_stream,
    subset_products,
)
from mpclr.sharing import tail_mask, unpack_rows, word_count
from mpclr.transport import PROTOCOL_VERSION

from helpers import dealt_parts

P8 = FixedPointParams(frac_bits=1, int_bits=2, ring_bits=8)
P16 = FixedPointParams(frac_bits=4, int_bits=3, ring_bits=16)
P64 = FixedPointParams(frac_bits=12, int_bits=15, ring_bits=64)
# bytes of a CRN1 file header (magic, protocol version, ring width, session
# id, record count): the first record starts here
HEADER = 24
# bytes of a record header: three words, the tag byte the top byte of the first
RECORD = 24
TAG_BYTE = 7  # offset of the tag byte in a record header


class TestTripleGeneration:
    def test_bit_triple_ones(self):
        one = np.array([[[1]], [[1]]], dtype=np.uint64)
        assert np.array_equal(subset_products(one)[2], one[0])

    def test_exhaustive_bit_triples(self):
        for u in (0, 1):
            for v in (0, 1):
                masks = np.array([[[u]], [[v]]], dtype=np.uint64)
                assert [int(x[0, 0]) for x in subset_products(masks)] == [u, v, u & v]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exhaustive_subset_products(self, k):
        # one row per mask pattern: row S - 1 of a tuple is the AND of the
        # masks with bit i set in S
        patterns = np.arange(1 << k)
        masks = (patterns >> np.arange(k)[:, None] & 1).astype(np.uint64)[:, :, None]
        opened = subset_products(masks)[:, :, 0]
        for s in range(1, 1 << k):
            expect = np.all(masks[[i for i in range(k) if s >> i & 1], :, 0] == 1, axis=0)
            assert opened[s - 1].tolist() == expect.astype(int).tolist()

    def test_records_draw_both_seeds_then_alices_shares(self):
        # since protocol version 12 a record's generator draws the two
        # parties' seeds, then Alice's shares of the products as raw words,
        # cast down in the ring or with the tail bits of each row zeroed
        for tag, meta in [(TAG_SCALAR, 5), (TAG_BIT, 77), (TAG_CONVERSION, 77),
                          (TAG_PREFIXNET, (8, 77))]:
            a, b = TrustedDealer(4, P16).block(tag, meta)
            rng = TrustedDealer(4, P16)._rng(tag)
            seeds = rng.integers(0, 1 << 64, size=(2, 2), dtype=np.uint64)
            assert np.array_equal(a[0], seeds[0]) and np.array_equal(b[0], seeds[1])
            shares = np.concatenate(a[1:])
            words = rng.bit_generator.random_raw(shares.size).reshape(shares.shape)
            if tag in (TAG_SCALAR, TAG_CONVERSION):
                assert np.array_equal(shares, words.astype(P16.dtype))
            else:
                words[:, -1] &= tail_mask(meta[1] if tag == TAG_PREFIXNET else meta)
                assert np.array_equal(shares, words)

    def test_dealt_tuples_hold_the_subset_products(self):
        for n in (1, 64, 77):
            (a,), (b,) = dealt_parts(TrustedDealer(n, P64), TAG_BIT, n)
            opened = a ^ b
            assert opened.shape == (15, word_count(n))
            for s in range(1, 16):
                singles = [opened[(1 << i) - 1] for i in range(4) if s >> i & 1]
                assert np.array_equal(opened[s - 1], np.bitwise_and.reduce(singles))

    def test_random_ring_triples_reconstruct(self):
        a, b = dealt_parts(TrustedDealer(31337, P64), TAG_SCALAR, 10_000)
        u = a[0] + b[0]
        v = a[1] + b[1]
        w = a[2] + b[2]
        assert np.array_equal(u * v, w)

    def test_matmul_block_reconstructs(self):
        # a block holds each party's seed of U or V, and its share of W
        dealer = TrustedDealer(5, P64)
        (ua,), (ub,) = dealer.block(TAG_MATMUL, MatmulDims(3, 4, 0, MATMUL_MASK))
        (va, wa), (vb, wb) = dealer.block(TAG_MATMUL, MatmulDims(3, 4, 2, MATMUL_REUSE))
        u = expand_seed(ua, 12) + expand_seed(ub, 12)
        v = expand_seed(va, 8) + expand_seed(vb, 8)
        w = wa + wb
        assert np.array_equal(u.reshape(3, 4) @ v.reshape(4, 2), w)

    def test_prefix_block_consistency(self):
        width, batch = 8, 5
        src_a, src_b = TrustedDealer(7, P16).generate([(TAG_PREFIXNET, (width, batch))])
        blk_a, blk_b = src_a.take_prefix_block(width, batch), src_b.take_prefix_block(width, batch)
        plan = cached_plan(width)
        su, sv, sw = blk_a.setup ^ blk_b.setup
        assert blk_a.setup.shape == (3, width, 1)
        assert np.array_equal(sw, su & sv)
        mp = blk_a.mask_p ^ blk_b.mask_p
        mg = blk_a.mask_g ^ blk_b.mask_g
        for idx, comp in enumerate(plan.compositions):
            lo, hi = plan.mask_index(comp.left), plan.mask_index(comp.right)
            assert np.array_equal(blk_a.prod_pp[idx] ^ blk_b.prod_pp[idx], mp[hi] & mp[lo])
            assert np.array_equal(blk_a.prod_pg[idx] ^ blk_b.prod_pg[idx], mp[hi] & mg[lo])


    def test_zero_test_block_consistency(self):
        # the setup triple gains one row, the zero test's final AND
        width, batch, start = 8, 5, 4
        src_a, src_b = (deserialize_stream(serialize_stream(s), P16) for s in
                        TrustedDealer(7, P16).generate([(TAG_PREFIXNET, (width, batch, start))]))
        assert src_a.records[0][1] == (width, batch, start)
        blk_a = src_a.take_prefix_block(width, batch, start)
        blk_b = src_b.take_prefix_block(width, batch, start)
        plan = cached_plan(width, start)
        su, sv, sw = blk_a.setup ^ blk_b.setup
        assert blk_a.setup.shape == (3, width + 1, 1)
        assert np.array_equal(sw, su & sv)
        mp, mg = blk_a.mask_p ^ blk_b.mask_p, blk_a.mask_g ^ blk_b.mask_g
        assert len(mp) == len(plan.masked_nodes) == 12
        hi, lo = plan.comp_hi, plan.comp_lo
        assert np.array_equal(blk_a.prod_pp ^ blk_b.prod_pp, mp[hi] & mp[lo])
        assert np.array_equal(blk_a.prod_pg ^ blk_b.prod_pg, mp[hi] & mg[lo])


class TestStreams:
    REQUESTS = [
        (TAG_SCALAR, 10),
        (TAG_MATMUL, MatmulDims(2, 3, 0, MATMUL_MASK)),
        (TAG_MATMUL, MatmulDims(2, 3, 1, MATMUL_REUSE)),
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
        assert same_parts(back.take_bit_triples(130), src_a.take_bit_triples(130))

    @pytest.mark.parametrize("params", [P16, P64])
    def test_load_gives_equal_parts_from_any_buffer(self, params):
        # a TI frame's payload starts 13 bytes into the frame, so every word
        # of the stream lies off its alignment there
        src_a, _ = TrustedDealer(42, params).generate(self.REQUESTS)
        data = serialize_stream(src_a)
        for given in (bytes(data), bytearray(data), memoryview(bytes(13) + bytes(data))[13:]):
            back = deserialize_stream(given, params)
            for (tag, meta, parts), (btag, bmeta, bparts) in zip(src_a.records, back.records,
                                                                  strict=True):
                assert (btag, bmeta) == (tag, meta)
                assert same_parts(bparts, parts)
                loaded = [p for p in bparts if p is not None]
                assert [p.dtype for p in loaded] == [p.dtype for p in parts if p is not None]
                assert all(p.flags.aligned and not p.flags.writeable for p in loaded)
            assert serialize_stream(back) == data

    @pytest.mark.parametrize("given", [bytes, bytearray])
    def test_parts_are_read_only_views_of_the_buffer(self, given):
        # dealt parts are views into the dealer's buffer, and parts loaded
        # from aligned bytes are views into those bytes
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        data = serialize_stream(src_a)
        assert isinstance(data, memoryview) and data.readonly and data.format == "B"
        loaded = given(data)
        back = deserialize_stream(loaded, P64)
        for source, buffer in ((src_a, data), (back, loaded)):
            words = np.frombuffer(buffer, np.uint8)
            assert words.ctypes.data % 8 == 0
            parts = [p for _, _, ps in source.records for p in ps]
            assert len(parts) == 13
            for part in parts:
                assert part.flags.aligned and not part.flags.writeable
                assert np.shares_memory(part, words)
        assert np.shares_memory(np.frombuffer(serialize_stream(back), np.uint8),
                                np.frombuffer(loaded, np.uint8))

    def test_serializing_a_dealt_stream_shares_its_memory(self):
        # w is written, u expands from the record's seed
        src_a, src_b = TrustedDealer(42, P64).generate(self.REQUESTS)
        for source in (src_a, src_b):
            data = np.frombuffer(serialize_stream(source), np.uint8)
            u, _, w = source.take_ring_triples(10)
            assert np.shares_memory(w, data) and not np.shares_memory(u, data)
            assert serialize_stream(source) is serialize_stream(source)

    def test_appended_records_serialize_to_the_dealt_bytes(self):
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        built = OnDemandSource(42, Role.ALICE, P64)
        for tag, meta in self.REQUESTS:
            take(built, tag, meta)
        assert serialize_stream(built) == serialize_stream(src_a)

    def test_setup_peaks_near_the_two_streams(self):
        # dealing writes each record once into its buffer, serializing
        # returns that buffer and loading views it and expands its seeds, so
        # setup holds little beyond the two streams and their expanded
        # masks; a first deal runs the lazy imports
        cfg = TrainingConfig(eta=0.05, n_iter=4, params=P64, seed=5)
        requests = training_randomness_requests(2000, 6, cfg)
        TrustedDealer(5, P64).generate(requests)
        tracemalloc.start()
        try:
            src_a, src_b = TrustedDealer(5, P64).generate(requests)
            blobs = serialize_stream(src_a), serialize_stream(src_b)
            del src_a, src_b
            loaded = [deserialize_stream(blob, P64) for blob in blobs]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded[0].records) == len(requests)
        masks = sum(math.prod(shape) for tag, meta in requests for shape in mask_shapes(tag, meta))
        assert peak <= 1.3 * (sum(len(blob) for blob in blobs) + 2 * 8 * masks)

    def test_serializing_ignores_takes(self):
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        data = serialize_stream(src_a)
        for tag, meta in self.REQUESTS:
            take(src_a, tag, meta // 2 if tag in (TAG_SCALAR, TAG_BIT) else meta)
        assert serialize_stream(src_a) == data
        back = deserialize_stream(serialize_stream(src_a), P64)
        assert serialize_stream(back) == data

    def test_plan_check_names_the_first_differing_record(self):
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        src_a.check_plan(self.REQUESTS)
        other = list(self.REQUESTS)
        other[3] = (TAG_BIT, 131)
        with pytest.raises(FormatError, match="record 3 is bit-mul 130, the run needs bit-mul 131"):
            src_a.check_plan(other)
        with pytest.raises(FormatError, match="holds 6 records, the run needs 7"):
            src_a.check_plan(self.REQUESTS + [(TAG_SCALAR, 1)])

    def test_meta_beyond_56_bits_is_refused_when_writing(self):
        # a record header keeps m0 below its tag byte
        with pytest.raises(ValueError, match="56 bits"):
            TrustedDealer(1, P64).generate([(TAG_SCALAR, 1 << 56)])

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

    def test_bytes_after_the_last_record(self):
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        with pytest.raises(FormatError, match="24 bytes after the last record"):
            deserialize_stream(bytes(serialize_stream(src_a)) + bytes(24), P64)

    def test_stream_of_another_protocol_version_is_refused(self):
        # the version follows the magic; a version-8 stream had 25-byte
        # record headers, which would read as misaligned parts
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        raw = bytearray(serialize_stream(src_a))
        assert raw[4:6] == PROTOCOL_VERSION.to_bytes(2, "little") == (13).to_bytes(2, "little")
        raw[4:6] = (8).to_bytes(2, "little")
        with pytest.raises(FormatError, match=OLD_VERSION):
            deserialize_stream(bytes(raw), P64)

    @pytest.mark.parametrize("params", [P8, P64])
    def test_stream_dealt_before_version_8_is_refused(self, params):
        # up to version 7 the header was magic, ring width, session id and a
        # u32 record count, so the ring width sits where the version is now:
        # an 8-bit ring reads as version 8, and the version-8 reader then
        # took the session id's low bytes, 38162 here, for the ring width
        header = struct.pack("<4sHQI", b"CRN1", params.ring_bits, 38162, 1)
        record = struct.pack("<BQQQ", TAG_SCALAR, 1, 0, 0) + bytes(24)
        for raw in (header, header + record):
            with pytest.raises(FormatError, match=OLD_VERSION) as err:
                deserialize_stream(raw, params)
            assert "ring width" not in str(err.value)

    def test_version_8_header_is_refused(self):
        header = struct.pack("<4sHHQI", b"CRN1", 8, 64, 1, 0)
        with pytest.raises(FormatError, match=OLD_VERSION):
            deserialize_stream(header, P64)

    def test_stream_of_the_old_conversion_is_refused(self):
        # tag 4 held the conversion's ring triples, laid out like a scalar
        # record, up to protocol version 4
        src_a, _ = TrustedDealer(42, P64).generate([(TAG_SCALAR, 4)])
        raw = bytearray(serialize_stream(src_a))
        raw[HEADER + TAG_BYTE] = 4  # first record's tag byte
        with pytest.raises(FormatError, match="unknown record tag 4"):
            deserialize_stream(bytes(raw), P64)

    @pytest.mark.parametrize("width", [0, 1, 65])
    def test_prefix_network_width_outside_the_ring(self, width):
        src_a, _ = TrustedDealer(42, P64).generate([(TAG_PREFIXNET, (8, 3))])
        raw = bytearray(serialize_stream(src_a))
        # the record's width is the low 56 bits of its first header word
        raw[HEADER:HEADER + TAG_BYTE] = width.to_bytes(TAG_BYTE, "little")
        with pytest.raises(FormatError, match=f"width {width} outside 2..64"):
            deserialize_stream(bytes(raw), P64)

    @pytest.mark.parametrize("start", [8, 9, 1 << 63])
    def test_prefix_network_zero_test_start_outside_the_width(self, start):
        src_a, _ = TrustedDealer(42, P64).generate([(TAG_PREFIXNET, (8, 3))])
        raw = bytearray(serialize_stream(src_a))
        # the zero-test start is the record's third header word; 0 is the
        # full decomposition
        raw[HEADER + 16:HEADER + 24] = start.to_bytes(8, "little")
        with pytest.raises(FormatError, match=f"zero-test start {start} outside 1..7"):
            deserialize_stream(bytes(raw), P64)

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
        src_a, _ = TrustedDealer(1, P64).generate([(TAG_MATMUL, MatmulDims(2, 2, 0, MATMUL_MASK))])
        with pytest.raises(ProtocolError):
            src_a.take_matmul_triple(MatmulDims(3, 1, 0, MATMUL_MASK))

    def test_matmul_exhaustion(self):
        src_a, _ = TrustedDealer(1, P64).generate([])
        with pytest.raises(RandomnessUnderflowError):
            src_a.take_matmul_triple(MatmulDims(1, 1, 0, MATMUL_MASK))

    def test_on_demand_matches_dealer(self):
        requests = [(TAG_SCALAR, 0), (TAG_SCALAR, 6), (TAG_BIT, 40)]
        src_a, src_b = TrustedDealer(77, P64).generate(requests)
        od_a = OnDemandSource(77, Role.ALICE, P64)
        od_b = OnDemandSource(77, Role.BOB, P64)
        empty = src_a.take_ring_triples(0)
        assert [part.shape for part in empty] == [(0,)] * 3
        assert same_parts(od_a.take_ring_triples(0), empty)
        assert np.array_equal(od_a.take_ring_triples(6)[0], src_a.take_ring_triples(6)[0])
        assert same_parts(od_b.take_bit_triples(40), src_b.take_bit_triples(40))


OLD_VERSION = ("dealt by another protocol version than this build's 13 \\(one dealt before "
               "version 8 has no version field\\); deal it again")


def take(source, tag, meta):
    """Consume one request's worth of randomness, whatever its tag."""
    if tag == TAG_SCALAR:
        return source.take_ring_triples(meta)
    if tag == TAG_CONVERSION:
        return source.take_dabits(meta)
    if tag == TAG_BIT:
        return source.take_bit_triples(meta)
    if tag == TAG_MATMUL:
        return source.take_matmul_triple(meta)
    block = source.take_prefix_block(*meta)
    return block.setup, block.mask_p, block.mask_g, block.prod_pp, block.prod_pg


def same_parts(a, b):
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(a, b, strict=True))


def crn1_bytes(requests, params):
    """Size of one party's CRN1 stream, from the request metadata alone."""
    def packed(nbits):
        return max(1, -(-nbits // 64))

    words = 0
    for tag, meta in requests:
        words += 2  # every record's seed of its pure masks
        if tag in (TAG_SCALAR, TAG_CONVERSION):
            words += meta  # w, or the ring shares of the daBits
        elif tag == TAG_BIT:
            words += 11 * packed(meta)  # the subset products of two or more masks
        elif tag == TAG_MATMUL:
            _, _, w = MatmulDims(*meta).shapes()
            words += 0 if w is None else w[0] * w[1]
        else:
            # one setup triple per bit, then the zero test's final AND if it
            # has bits above its start, then two products per composition
            width, batch, start = (*meta, 0)[:3]
            triples = width + (0 < start < width - 1)
            words += (triples + 2 * len(cached_plan(width, start).compositions)) * packed(batch)
    return HEADER + RECORD * len(requests) + 8 * words  # file header, record headers, words


class TestMaskedRecords:
    N, M = 5, 3
    MASK = (TAG_MATMUL, MatmulDims(N, M, 0, MATMUL_MASK))
    FORWARD = (TAG_MATMUL, MatmulDims(N, M, 1, MATMUL_REUSE))
    GRADIENT = (TAG_MATMUL, MatmulDims(N, M, 1, MATMUL_REUSE_T))
    OTHER_MASK = (TAG_MATMUL, MatmulDims(2, 3, 0, MATMUL_MASK))
    OTHER_FORWARD = (TAG_MATMUL, MatmulDims(2, 3, 1, MATMUL_REUSE))
    REQUESTS = [MASK, FORWARD, (TAG_SCALAR, 4), GRADIENT, OTHER_MASK, OTHER_FORWARD, FORWARD]

    def test_reuse_records_carry_products_with_the_mask(self):
        src_a, src_b = TrustedDealer(8, P64).generate(self.REQUESTS)
        parts = [(take(src_a, *r), take(src_b, *r)) for r in self.REQUESTS]
        (ua, va, wa), (ub, vb, wb) = parts[0]
        assert va is wa is vb is wb is None
        u = ua + ub
        for (a, b), transpose in ((parts[1], False), (parts[3], True), (parts[6], False)):
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
        # kind 7 was never assigned; kind 0 held a full matrix triple up to
        # protocol version 5, laid out as U, V and W
        src_a, _ = TrustedDealer(8, P64).generate([self.MASK])
        raw = bytearray(serialize_stream(src_a))
        raw[HEADER + TAG_BYTE] = TAG_MATMUL | 7 << 4  # first record's tag byte
        with pytest.raises(FormatError, match="kind"):
            deserialize_stream(bytes(raw), P64)
        src_a, _ = TrustedDealer(8, P64).generate([self.OTHER_MASK, self.OTHER_FORWARD])
        raw = bytearray(serialize_stream(src_a))
        # the mask's header and its seed's 2 words, then the product's tag byte
        raw[HEADER + RECORD + 8 * 2 + TAG_BYTE] = TAG_MATMUL
        with pytest.raises(FormatError, match="unknown record kind 0 of tag 2"):
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
        requests = training_randomness_requests(7, 5, cfg) + [
            (TAG_MATMUL, MatmulDims(2, 3, 0, MATMUL_MASK)),
            (TAG_MATMUL, MatmulDims(2, 3, 4, MATMUL_REUSE_T))]
        src_a, _ = TrustedDealer(3, P64).generate(requests)
        assert len(serialize_stream(src_a)) == crn1_bytes(requests, P64)

    def test_paper_run_provisions_under_100_mb_per_party(self):
        # 225 x 12,634 features, 223 iterations: about 21 GB per party when
        # every iteration re-masked X
        cfg = TrainingConfig(eta=0.001, n_iter=223, params=P64, seed=0)
        requests = training_randomness_requests(225, 12_634, cfg)
        assert crn1_bytes(requests, P64) < 100e6


class TestSeededRecords:
    """The pure mask U or V of a matmul record is written as one 2-word
    seed per party, and expanded once per record: at load, or at a dealt or
    on-demand stream's first take."""

    N, M = 5, 3
    MASK = (TAG_MATMUL, MatmulDims(N, M, 0, MATMUL_MASK))
    FORWARD = (TAG_MATMUL, MatmulDims(N, M, 1, MATMUL_REUSE))
    GRADIENT = (TAG_MATMUL, MatmulDims(N, M, 1, MATMUL_REUSE_T))
    REQUESTS = [MASK, FORWARD, (TAG_SCALAR, 4), GRADIENT, FORWARD]

    @pytest.mark.parametrize("params", [P16, P64])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (225, 300)])
    def test_mask_record_is_a_header_and_a_seed(self, params, shape):
        src_a, src_b = TrustedDealer(8, params).generate(
            [(TAG_MATMUL, MatmulDims(*shape, 0, MATMUL_MASK))])
        for source in (src_a, src_b):
            assert len(serialize_stream(source)) == HEADER + RECORD + 8 * 2
            (_, _, (seed,)), = source.records
            assert seed.shape == (2,) and seed.dtype == np.uint64

    @pytest.mark.parametrize("k", [1, 4])
    def test_reuse_record_writes_v_as_2_words(self, k):
        forward = (TAG_MATMUL, MatmulDims(self.N, self.M, k, MATMUL_REUSE))
        src_a, _ = TrustedDealer(8, P64).generate([self.MASK, forward])
        # the mask's header and seed, then the product's header, V's seed and W
        size = HEADER + 2 * (RECORD + 8 * 2) + 8 * self.N * k
        assert len(serialize_stream(src_a)) == size
        _, _, (seed, w) = src_a.records[1]
        assert seed.shape == (2,) and w.shape == (self.N, k)

    @pytest.mark.parametrize("params", [P16, P64])
    def test_loaded_streams_reconstruct_the_products(self, params):
        streams = TrustedDealer(8, params).generate(self.REQUESTS)
        loaded = [deserialize_stream(serialize_stream(s), params) for s in streams]
        parts = [[take(s, *r) for r in self.REQUESTS] for s in loaded]
        (ua, _, _), (ub, _, _) = parts[0][0], parts[1][0]
        u = ua + ub
        assert u.dtype == params.dtype and u.shape == (self.N, self.M)
        for index, transpose in ((1, False), (3, True), (4, False)):
            (_, va, wa), (_, vb, wb) = parts[0][index], parts[1][index]
            v, w = va + vb, wa + wb
            assert np.array_equal(w, (u.T if transpose else u) @ v)
            for source, (_, v_part, _) in zip(loaded, (parts[0][index], parts[1][index])):
                _, meta, (seed, _) = source.records[index]
                shape = meta.shapes()[1]
                words = expand_seed(seed, math.prod(shape))
                assert np.array_equal(v_part, words.astype(params.dtype).reshape(shape))

    @pytest.mark.parametrize("params", [P16, P64])
    def test_dealt_loaded_and_on_demand_sources_agree(self, params):
        cfg = TrainingConfig(eta=0.05, n_iter=2, params=params, seed=21)
        requests = training_randomness_requests(6, 4, cfg)
        streams = TrustedDealer(21, params).generate(requests)
        loaded = [deserialize_stream(serialize_stream(s), params) for s in streams]
        for role, dealt, back in zip((Role.ALICE, Role.BOB), streams, loaded):
            on_demand = OnDemandSource(21, role, params)
            for index, (tag, meta) in enumerate(requests):
                ours = [take(source, tag, meta) for source in (dealt, back, on_demand)]
                assert same_parts(ours[0], ours[1]) and same_parts(ours[0], ours[2])
                # every source writes the seed and hands out the masks
                for source, parts in zip((dealt, back, on_demand), ours):
                    assert source.records[index][2][0].shape == (2,)
                    if tag == TAG_MATMUL:
                        assert ([p.shape for p in parts[:2] if p is not None]
                                == [shape for shape in meta.shapes()[:2] if shape is not None])

    def test_expanded_parts_are_read_only(self):
        streams = TrustedDealer(8, P16).generate(self.REQUESTS)
        sources = [*streams, deserialize_stream(serialize_stream(streams[0]), P16),
                   OnDemandSource(8, Role.BOB, P16)]
        for source in sources:
            for request in self.REQUESTS:
                if request[0] != TAG_MATMUL:
                    take(source, *request)
                    continue
                masks = [p for p in source.take_matmul_triple(request[1])[:2] if p is not None]
                assert masks and all(p.shape != (2,) for p in masks)
                assert not any(p.flags.writeable for p in masks)
                with pytest.raises(ValueError):
                    masks[0][0] = 1

    def test_each_stream_holds_only_its_own_seeds(self):
        src_a, src_b = TrustedDealer(8, P64).generate(self.REQUESTS)
        bytes_a, bytes_b = bytes(serialize_stream(src_a)), bytes(serialize_stream(src_b))
        for index in range(len(self.REQUESTS)):
            seed_a, seed_b = (s.records[index][2][0] for s in (src_a, src_b))
            assert seed_a.shape == seed_b.shape == (2,)
            assert seed_a.tobytes() in bytes_a and seed_b.tobytes() in bytes_b
            assert seed_a.tobytes() not in bytes_b and seed_b.tobytes() not in bytes_a

    def test_loading_expands_every_seed_and_takes_expand_none(self, monkeypatch):
        calls = []
        real = expand_seed

        def counting(seed, count):
            calls.append(count)
            return real(seed, count)

        monkeypatch.setattr("mpclr.randomness.expand_seed", counting)
        src_a, _ = TrustedDealer(8, P64).generate(self.REQUESTS)
        dealt = len(calls)  # the dealer expands both parties' seeds of each record
        assert dealt == 2 * 5
        back = deserialize_stream(serialize_stream(src_a), P64)
        assert len(calls) == dealt + 5
        for request in self.REQUESTS:
            take(back, *request)
        assert len(calls) == dealt + 5
        for request in self.REQUESTS:  # a dealt stream expands at its first take
            take(src_a, *request)
        assert len(calls) == dealt + 10


class TestSeededPools:
    """Every pooled record (ring triples, AND tuples, daBits, prefix-network
    blocks) writes its pure masks as one 2-word seed per party and only the
    shares that depend on them in full; expanding the seed rebuilds the
    correlations."""

    @staticmethod
    def pools(params, batch):
        return [(TAG_SCALAR, batch), (TAG_BIT, batch), (TAG_CONVERSION, batch),
                (TAG_PREFIXNET, (params.ring_bits // 2 + 1, batch))]

    @pytest.mark.parametrize("params", [P16, P64])
    @pytest.mark.parametrize("batch", [1, 64, 225])
    def test_record_writes_a_seed_and_the_products(self, params, batch):
        words = word_count(batch)
        width = params.ring_bits // 2 + 1
        comps = len(cached_plan(width).compositions)
        written = {TAG_SCALAR: batch, TAG_BIT: 11 * words, TAG_CONVERSION: batch,
                   TAG_PREFIXNET: (width + 2 * comps) * words}
        for tag, meta in self.pools(params, batch):
            for source in TrustedDealer(3, params).generate([(tag, meta)]):
                assert len(serialize_stream(source)) == HEADER + RECORD + 8 * (2 + written[tag])
                (_, _, (seed, *rest)), = source.records
                assert seed.shape == (2,) and seed.dtype == np.uint64
                assert sum(part.size for part in rest) == written[tag]

    @pytest.mark.parametrize("shape", [(64, 9, 2), (8, 299, 2)])  # tall and wide, toy size
    def test_both_parties_streams_are_the_same_length(self, shape):
        n, features, iters = shape
        cfg = TrainingConfig(eta=2.0 ** -12, n_iter=iters, params=P64, seed=4)
        requests = training_randomness_requests(n, features, cfg)
        src_a, src_b = TrustedDealer(4, P64).generate(requests)
        sizes = len(serialize_stream(src_a)), len(serialize_stream(src_b))
        assert sizes[0] == sizes[1] == crn1_bytes(requests, P64)

    def test_tall_plan_takes_0_813_mb_per_iteration(self):
        # 16,000 x 10 for 20 iterations, the benchmark's tall workload: 1.692 MB
        # per iteration when every mask but X's was written whole, 0.973 MB
        # when the prefix network built every carry of 29 bits
        cfg = TrainingConfig(eta=2.0 ** -12, n_iter=20, params=P64, seed=0)
        requests = training_randomness_requests(16_000, 9, cfg)
        assert crn1_bytes(requests, P64) == 16_260_584 == 20 * 813_029.2

    @staticmethod
    def whole_records(source, requests):
        """Every record of `requests` taken whole, all 15 strings of a tuple."""
        out = []
        for tag, meta in requests:
            if tag == TAG_SCALAR:
                out.append(source.take_ring_triples(meta))
            elif tag == TAG_BIT:
                out.append(source.take_bit_triples(meta, 4))
            elif tag == TAG_CONVERSION:
                out.append(source.take_dabits(meta))
            else:
                out.append(take(source, tag, meta))
        return out

    @pytest.mark.parametrize("params", [P16, P64])
    @pytest.mark.parametrize("batch", [64, 225])
    def test_correlations_survive_expansion(self, params, batch):
        requests = self.pools(params, batch) * 2
        dealt = TrustedDealer(9, params).generate(requests)
        loaded = [deserialize_stream(serialize_stream(s), params) for s in dealt]
        on_demand = [OnDemandSource(9, role, params) for role in Role]
        (a, b), *others = [[self.whole_records(s, requests) for s in sources]
                           for sources in (loaded, dealt, on_demand)]
        for other in others:  # every kind of source hands out the same parts
            for ours, theirs in zip((a, b), other):
                assert all(same_parts(x, y) for x, y in zip(ours, theirs, strict=True))
        unused = ~tail_mask(batch)
        for (tag, meta), pa, pb in zip(requests, a, b):
            bits = {TAG_SCALAR: [], TAG_BIT: [pa, pb], TAG_CONVERSION: [pa[1], pb[1]],
                    TAG_PREFIXNET: [*pa, *pb]}[tag]
            assert not any((part[..., -1] & unused).any() for part in bits)  # tail bits zero
            if tag in (TAG_SCALAR, TAG_CONVERSION):
                assert all(p.dtype == params.dtype for p in (pa[0], pb[0]))
            if tag == TAG_SCALAR:
                (ua, va, wa), (ub, vb, wb) = pa, pb
                assert np.array_equal((ua + ub) * (va + vb), wa + wb)
                assert not any(p.flags.writeable for p in (*pa, *pb))
            elif tag == TAG_BIT:
                opened = pa ^ pb
                for subset in range(1, 16):
                    singles = [opened[(1 << i) - 1] for i in range(4) if subset >> i & 1]
                    assert np.array_equal(opened[subset - 1], np.bitwise_and.reduce(singles))
            elif tag == TAG_CONVERSION:
                (ring_a, bits_a), (ring_b, bits_b) = pa, pb
                r = unpack_rows(bits_a ^ bits_b, batch)[0].astype(params.dtype)
                assert np.array_equal(ring_a + ring_b, r)
            else:
                setup, mask_p, mask_g, prod_pp, prod_pg = (x ^ y for x, y in zip(pa, pb))
                assert np.array_equal(setup[2], setup[0] & setup[1])
                plan = cached_plan(meta[0])
                hi, lo = plan.comp_hi, plan.comp_lo
                assert np.array_equal(prod_pp, mask_p[hi] & mask_p[lo])
                assert np.array_equal(prod_pg, mask_p[hi] & mask_g[lo])
                # a take's setup triple is a new array; the other fields are the record's
                assert not any(p.flags.writeable for p in (*pa[1:], *pb[1:]))


class TestMaskCountFormula:
    @pytest.mark.parametrize("p", [8, 16, 17, 32, 64])
    def test_schedule_matches_closed_form(self, p):
        assert cached_plan(p).mask_bits_per_element() == closed_form_mask_bits(p)

    def test_block_sizes_follow_schedule(self):
        width, batch = 16, 4
        plan = cached_plan(width)
        src_a, _ = TrustedDealer(3, P16).generate([(TAG_PREFIXNET, (width, batch))])
        blk_a = src_a.take_prefix_block(width, batch)
        assert len(blk_a.mask_p) == len(plan.masked_nodes)
        assert len(blk_a.prod_pp) == len(plan.compositions)
