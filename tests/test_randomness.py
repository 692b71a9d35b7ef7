import math
import re
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
    encode_array,
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
    DaBits,
    MatmulDims,
    OnDemandSource,
    TrustedDealer,
    _meta,
    _parse_stream,
    _size,
    deserialize_stream,
    expand_seed,
    layout,
    part_shapes,
    serialize_stream,
    subset_products,
)
from mpclr.sharing import pack_rows, split_array, tail_mask, unpack_rows, word_count
from mpclr.training import Dataset, train_secure
from mpclr.transport import PROTOCOL_VERSION

from helpers import (
    dealt_parts,
    protocol_pair,
    separable_toy,
    take,
    whole,
)

P8 = FixedPointParams(frac_bits=1, int_bits=2, ring_bits=8)
P16 = FixedPointParams(frac_bits=4, int_bits=3, ring_bits=16)
P64 = FixedPointParams(frac_bits=12, int_bits=15, ring_bits=64)
# bytes of a CRN1 file header (magic, protocol version, ring width, party,
# session id, record count): the first record starts here
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
        # since protocol version 18 a record's generator draws the two
        # parties' seeds, then Alice's share of the middle element of each
        # written part of odd size, in part order, as raw words cast down in
        # the ring or with a row's tail bits zeroed when the middle ends its
        # row; every other share comes from a seed or is the rest.  A row of
        # 5 bits ends in every word; the middle of rows of 129 bits is the
        # second of a row's three words.
        for tag, meta in [(TAG_SCALAR, 5), (TAG_BIT, 5), (TAG_BIT, 129),
                          (TAG_CONVERSION, DaBits(3, 5, 1)), (TAG_PREFIXNET, (9, 129, 0)),
                          (TAG_PREFIXNET, (8, 129, 4)), (TAG_PREFIXNET, (8, 5, 4))]:
            a, b = TrustedDealer(4, P16).block(tag, meta)
            rng = TrustedDealer(4, P16)._rng(tag)
            seeds = rng.integers(0, 1 << 64, size=(2, 2), dtype=np.uint64)
            assert np.array_equal(a[0], seeds[0]) and np.array_equal(b[0], seeds[1])
            odd = [(part, spec) for part, spec in zip(a[1:], layout(tag, meta)[1], strict=True)
                   if math.prod(spec.shape) % 2]
            assert odd
            for word, (part, spec) in zip(rng.bit_generator.random_raw(len(odd)), odd):
                if spec.bits is None:
                    assert part[0] == word.astype(P16.dtype)
                    continue
                row = word_count(spec.bits)
                ends_row = math.prod(spec.shape) // 2 % row == row - 1
                assert part[0] == (word & tail_mask(spec.bits) if ends_row else word)

    def test_dealt_tuples_hold_the_subset_products(self):
        # a bit-pool record deals AND triples: u, v and w = u AND v
        for n in (1, 64, 77):
            (a,), (b,) = dealt_parts(TrustedDealer(n, P64), TAG_BIT, n)
            opened = a ^ b
            assert opened.shape == (3, word_count(n))
            assert np.array_equal(opened, subset_products(opened[:2]))

    def test_random_ring_triples_reconstruct(self):
        a, b = dealt_parts(TrustedDealer(31337, P64), TAG_SCALAR, 10_000)
        u = a[0] + b[0]
        v = a[1] + b[1]
        w = a[2] + b[2]
        assert np.array_equal(u * v, w)

    def test_matmul_block_reconstructs(self):
        # a block holds each party's seed of U or V and of its half of W,
        # Alice's the first 3 of W's 6 elements and Bob's the last 3, and
        # its shares of the other half of W
        dealer = TrustedDealer(5, P64)
        (ua,), (ub,) = dealer.block(TAG_MATMUL, MatmulDims(3, 4, 0, MATMUL_MASK))
        (va, wa), (vb, wb) = dealer.block(TAG_MATMUL, MatmulDims(3, 4, 2, MATMUL_REUSE))
        u = expand_seed(ua, 12) + expand_seed(ub, 12)
        sa, sb = expand_seed(va, 8 + 3), expand_seed(vb, 8 + 3)
        v = sa[:8] + sb[:8]
        w = np.concatenate([sa[8:], wa]) + np.concatenate([wb, sb[8:]])
        assert wa.shape == wb.shape == (3,)
        assert np.array_equal(u.reshape(3, 4) @ v.reshape(4, 2), w.reshape(3, 2))

    def test_prefix_block_consistency(self):
        width, batch = 8, 5
        src_a, src_b = TrustedDealer(7, P16).generate([(TAG_PREFIXNET, (width, batch))])
        blk_a, blk_b = src_a.take_prefix_block(width, batch), src_b.take_prefix_block(width, batch)
        plan = cached_plan(width)
        [setup_a], [setup_b] = blk_a.gates, blk_b.gates  # the setup ANDs alone
        su, sv, sw = setup_a ^ setup_b
        assert setup_a.shape == (3, width, 1)
        assert np.array_equal(sw, su & sv)
        mp = blk_a.mask_p ^ blk_b.mask_p
        mg = blk_a.mask_g ^ blk_b.mask_g
        for idx, comp in enumerate(plan.compositions):
            lo, hi = plan.masked_nodes.index(comp.left), plan.masked_nodes.index(comp.right)
            assert np.array_equal(blk_a.prod_pp[idx] ^ blk_b.prod_pp[idx], mp[hi] & mp[lo])
            assert np.array_equal(blk_a.prod_pg[idx] ^ blk_b.prod_pg[idx], mp[hi] & mg[lo])


    def test_zero_test_block_consistency(self):
        # the one-sided setup: each party's whole masks of its 10 operand
        # rows (positions 1..7, then the AND row of each of the 3 pairs) and
        # its shares of the 15 products; then one tuple group per gate
        # group: the 2-input gate over the terms below the top one, and the
        # final 3-input gate
        width, batch, start = 8, 5, 4
        src_a, src_b = (deserialize_stream(serialize_stream(s), P16) for s in
                        TrustedDealer(7, P16).generate([(TAG_PREFIXNET, (width, batch, start))]))
        assert src_a.records[0][1] == (width, batch, start)
        blk_a = src_a.take_prefix_block(width, batch, start)
        blk_b = src_b.take_prefix_block(width, batch, start)
        plan = cached_plan(width, start)
        assert plan.gate_groups == [(2, 1), (3, 1)]
        assert [g.shape for g in blk_a.gates] == [(3, 1, 1), (7, 1, 1)]
        (u, wa), (v, wb) = blk_a.setup, blk_b.setup
        assert u.shape == v.shape == (10, 1) and len(plan.fold.products) == 15
        alice, bob = plan.fold.products.T
        assert np.array_equal(whole(wa) ^ whole(wb), (u[alice] & v[bob]).reshape(-1))
        for ga, gb in zip(blk_a.gates, blk_b.gates):
            opened = ga ^ gb
            k = (len(opened) + 1).bit_length() - 1
            assert np.array_equal(opened, subset_products(opened[[(1 << i) - 1 for i in range(k)]]))
        mp, mg = blk_a.mask_p ^ blk_b.mask_p, blk_a.mask_g ^ blk_b.mask_g
        # the p masks of positions 1..7 and of (3, 4), (5, 6) and (5, 7), no
        # prefix's; the g masks of the leaves 5 and 6, which the terms read,
        # and 7, which the network composes, and of every node composed
        # after the first layer
        assert len(mp) == len(plan.p_nodes) == 7 + 3
        assert plan.p_nodes[7:] == [(3, 4), (5, 6), (5, 7)]
        assert len(mg) == len(plan.masked_nodes) == 8
        assert plan.masked_nodes == [(5, 5), (6, 6), (7, 7), (1, 2), (3, 4), (5, 6),
                                     (1, 4), (5, 7)]
        assert np.array_equal(mp[:7], u[:7] ^ v[:7])
        assert np.array_equal(blk_a.prod_pp ^ blk_b.prod_pp, mp[plan.pp_hi] & mp[plan.pp_lo])
        assert np.array_equal(blk_a.prod_pg ^ blk_b.prod_pg,
                              mp[plan.comp_hi] & mg[plan.comp_lo])


class TestStreams:
    REQUESTS = [
        (TAG_SCALAR, 10),
        (TAG_MATMUL, MatmulDims(2, 3, 0, MATMUL_MASK)),
        (TAG_MATMUL, MatmulDims(2, 3, 1, MATMUL_REUSE)),
        (TAG_BIT, 130),
        (TAG_CONVERSION, DaBits(2, 2, 1)),
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
        for request in self.REQUESTS[1:3]:  # the matrix records come before the pool
            assert same_parts(take(back, *request), take(src_a, *request))
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
            assert len(parts) == 14
            for part in parts:
                assert part.flags.aligned and not part.flags.writeable
                assert np.shares_memory(part, words)
        assert np.shares_memory(np.frombuffer(serialize_stream(back), np.uint8),
                                np.frombuffer(loaded, np.uint8))

    def test_serializing_a_dealt_stream_shares_its_memory(self):
        # half of w is written, u expands from the record's seed, and a
        # take joins w's halves into a new array
        src_a, src_b = TrustedDealer(42, P64).generate(self.REQUESTS)
        for source in (src_a, src_b):
            data = np.frombuffer(serialize_stream(source), np.uint8)
            _, _, (_, written) = source.records[0]
            u, _, w = source.take_ring_triples(10)
            assert np.shares_memory(written, data)
            assert not np.shares_memory(u, data) and not np.shares_memory(w, data)
            assert serialize_stream(source) is serialize_stream(source)

    def test_appended_records_serialize_to_the_dealt_bytes(self):
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        built = OnDemandSource(42, Role.ALICE, P64)
        for tag, meta in self.REQUESTS:
            take(built, tag, meta)
        assert serialize_stream(built) == serialize_stream(src_a)

    def test_setup_peaks_near_the_two_streams(self):
        # dealing writes each record once into its buffer, serializing
        # returns that buffer and loading views it and expands X's masks
        # alone, so setup holds little beyond the two streams and, at most,
        # their expanded masks; a first deal runs the lazy imports
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
        masks = sum(math.prod(part.shape) for tag, meta in requests
                    for part in layout(tag, meta)[0])
        assert peak <= 1.3 * (sum(len(blob) for blob in blobs) + 2 * 8 * masks)

    def test_serializing_ignores_takes(self):
        src_a, _ = TrustedDealer(42, P64).generate(self.REQUESTS)
        data = serialize_stream(src_a)
        for tag, meta in self.REQUESTS:  # the pool in two takes, every other record whole
            for part in ((meta // 2, meta - meta // 2) if tag == TAG_BIT else (meta,)):
                take(src_a, tag, part)
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

    def test_stream_names_its_party_and_an_unknown_one_is_refused(self):
        # the header's party byte follows the ring width: a take hands out
        # each part's halves in that party's order
        for source, party in zip(TrustedDealer(42, P64).generate(self.REQUESTS), (b"A", b"B")):
            raw = bytearray(serialize_stream(source))
            assert raw[6:8] == bytes([64]) + party
            assert deserialize_stream(bytes(raw), P64).role is source.role
            raw[7:8] = b"C"
            with pytest.raises(FormatError, match="unknown party b'C'"):
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
        assert raw[4:6] == PROTOCOL_VERSION.to_bytes(2, "little") == (20).to_bytes(2, "little")
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

    @pytest.mark.parametrize("tag,spare", [(TAG_BIT, (12345, 999)), (TAG_BIT, (1, 0)),
                                           (TAG_SCALAR, (0, 1))])
    def test_pool_header_with_spare_words_is_refused(self, tag, spare):
        # a pool's record header holds its count in the first word and
        # nothing in the other two
        src_a, _ = TrustedDealer(42, P64).generate([(tag, 100)])
        raw = bytearray(serialize_stream(src_a))
        raw[HEADER + 8:HEADER + 24] = struct.pack("<QQ", *spare)
        with pytest.raises(FormatError, match=f"tag {tag} record with header words "
                                              f"{spare[0]} and {spare[1]}, not 0"):
            deserialize_stream(bytes(raw), P64)

    @pytest.mark.parametrize("flag", [2, 1 << 63])
    def test_dabit_flag_other_than_0_or_1_is_refused(self, flag):
        # a daBit record's third header word says whether row 0 is factored
        src_a, _ = TrustedDealer(42, P64).generate([(TAG_CONVERSION, DaBits(2, 5, 1))])
        raw = bytearray(serialize_stream(src_a))
        raw[HEADER + 16:HEADER + 24] = flag.to_bytes(8, "little")
        with pytest.raises(FormatError, match=f"daBit record flag {flag} is not 0 or 1"):
            deserialize_stream(bytes(raw), P64)

    def test_dabit_record_larger_than_a_frame(self):
        # rows of no bits write no ring share, yet each expands one word from
        # the seed, so a claim above what one frame can open is refused
        src_a, _ = TrustedDealer(42, P64).generate([(TAG_CONVERSION, DaBits(2, 0))])
        raw = bytearray(serialize_stream(src_a))
        raw[HEADER:HEADER + TAG_BYTE] = ((1 << 27) + 1).to_bytes(TAG_BYTE, "little")
        with pytest.raises(FormatError, match=f"daBit record of {(1 << 27) + 1} rows of 0 "
                                              f"bits is over {1 << 27} words"):
            deserialize_stream(bytes(raw), P64)

    @pytest.mark.parametrize("rows,cols", [(1 << 20, 1 << 20), ((1 << 27) + 1, 1), (1, 1 << 28)])
    def test_matrix_record_larger_than_a_frame(self, rows, cols):
        # a 64-byte stream whose mask record claims an n x m U: loading would
        # expand U from the 2-word seed, so a claim above the 2^27 words that
        # one frame can open as X - U is refused before anything is allocated
        src_a, _ = TrustedDealer(42, P64).generate([(TAG_MATMUL, MatmulDims(2, 3, 0, MATMUL_MASK))])
        raw = bytearray(serialize_stream(src_a))
        assert len(raw) == 64
        raw[HEADER:HEADER + TAG_BYTE] = rows.to_bytes(TAG_BYTE, "little")
        raw[HEADER + 8:HEADER + 16] = cols.to_bytes(8, "little")
        with pytest.raises(FormatError, match=f"matrix record \\({rows}, {cols}, 0\\) has a "
                                              f"part over {1 << 27} words"):
            deserialize_stream(bytes(raw), P64)

    def test_matrix_record_of_one_frame_parses(self):
        # the bound itself passes; parsing alone expands no seed
        src_a, _ = TrustedDealer(42, P64).generate([(TAG_MATMUL, MatmulDims(2, 3, 0, MATMUL_MASK))])
        raw = bytearray(serialize_stream(src_a))
        raw[HEADER:HEADER + TAG_BYTE] = (1 << 27).to_bytes(TAG_BYTE, "little")
        raw[HEADER + 8:HEADER + 16] = (1).to_bytes(8, "little")
        [(_, dims, _)] = _parse_stream(bytes(raw), P64).records
        assert dims == MatmulDims(1 << 27, 1, 0, MATMUL_MASK)

    def test_cross_party_reconstruction(self):
        src_a, src_b = TrustedDealer(9, P64).generate([(TAG_SCALAR, 64)])
        ua, va, wa = src_a.take_ring_triples(64)
        ub, vb, wb = src_b.take_ring_triples(64)
        assert np.array_equal((ua + ub) * (va + vb), wa + wb)

    def test_underflow(self):
        src_a, _ = TrustedDealer(1, P64).generate([(TAG_BIT, 4), (TAG_SCALAR, 4)])
        src_a.take_bit_triples(3)
        with pytest.raises(RandomnessUnderflowError, match="requested 2, have 1$"):
            src_a.take_bit_triples(2)
        src_a.take_bit_triples(1)
        src_a.take_ring_triples(4)
        with pytest.raises(RandomnessUnderflowError, match="requested 1, have 0$"):
            src_a.take_ring_triples(4)

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
        src_b.take_ring_triples(0)  # the records before the pool, in plan order
        src_b.take_ring_triples(6)
        assert same_parts(od_b.take_bit_triples(40), src_b.take_bit_triples(40))


class TestPlanOrder:
    """A stream is read in plan order from one read position: a take reads
    the next record whole, of the kind and meta it requests, except a take
    of AND triples, which reads the next triples of the pool it is in."""

    def test_take_of_another_kind_names_the_next_record(self):
        # a take does not skip ahead to a later record of its kind, and a
        # refused take moves nothing
        mask = MatmulDims(2, 3, 0, MATMUL_MASK)
        requests = [(TAG_SCALAR, 4), (TAG_CONVERSION, DaBits(2, 5, 1)), (TAG_MATMUL, mask)]
        src_a, _ = TrustedDealer(5, P64).generate(requests)
        with pytest.raises(ProtocolError, match=re.escape(
                "randomness record 0 is scalar-mul 4, requested conversion DaBits(rows=2, "
                "batch=5, factored=1)")):
            take(src_a, *requests[1])
        take(src_a, *requests[0])
        with pytest.raises(ProtocolError, match=re.escape(
                f"randomness record 1 is conversion {DaBits(2, 5, 1)}, requested matmul {mask}")):
            take(src_a, *requests[2])
        for request in requests[1:]:
            take(src_a, *request)

    @pytest.mark.parametrize("n", [0, 3, 5])
    def test_ring_take_of_another_size_is_refused(self, n):
        # a record of ring triples is the triples of one product, taken whole
        src_a, _ = TrustedDealer(5, P64).generate([(TAG_SCALAR, 4)])
        with pytest.raises(ProtocolError,
                           match=f"^scalar-mul record mismatch: stream has 4, requested {n}$"):
            src_a.take_ring_triples(n)
        u, v, w = src_a.take_ring_triples(4)
        assert u.shape == v.shape == w.shape == (4,)

    def test_and_triple_takes_read_two_pools_in_order(self):
        # each pool in parts, its expansion kept until it is used up, and
        # the second pool read only after the first
        sizes, takes = (100, 70), ((30, 0, 70), (50, 20))
        for side in (0, 1):
            dealt = TrustedDealer(6, P64).generate([(TAG_BIT, n) for n in sizes])[side]
            fresh = TrustedDealer(6, P64).generate([(TAG_BIT, n) for n in sizes])[side]
            for index, (n, parts) in enumerate(zip(sizes, takes)):
                bits = unpack_rows(fresh.take_bit_triples(n)[:, 0], n)
                start = 0
                for count in parts:
                    got = dealt.take_bit_triples(count)
                    assert np.array_equal(got[:, 0], pack_rows(bits[:, start:start + count]))
                    start += count
                    assert list(dealt._expanded) == ([index] if start < n else [])
            with pytest.raises(RandomnessUnderflowError,
                               match=r"^bit-mul randomness exhausted: requested 1, have 0$"):
                dealt.take_bit_triples(1)


OLD_VERSION = ("dealt by another protocol version than this build's 20 \\(one dealt before "
               "version 8 has no version field\\); deal it again")


def same_parts(a, b):
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(a, b, strict=True))


def crn1_bytes(requests, params):
    """Size of one party's CRN1 stream, from the request metadata alone:
    of each part of s elements that depends on the masks, a party writes
    the s - s // 2 that its seed leaves."""
    def packed(nbits):
        return max(1, -(-nbits // 64))

    def half(size):
        return size - size // 2

    words = 0
    for tag, meta in requests:
        words += 2  # every record's seed of its pure masks and seeded halves
        if tag == TAG_SCALAR:
            words += half(meta)  # w
        elif tag == TAG_CONVERSION:
            rows, batch, factored = meta
            words += half(rows * batch) + half(factored * batch)  # r's ring shares, row 0's rho
        elif tag == TAG_BIT:
            words += half(packed(meta))  # w = u AND v
        elif tag == TAG_MATMUL:
            _, _, w = MatmulDims(*meta).shapes()
            words += 0 if w is None else half(w[0] * w[1])
        else:
            # the setup's products, one AND per position of a full
            # decomposition or a zero test's one-sided products, then the 4
            # or 1 products of each 3- or 2-input gate of the zero test, each
            # gate group's one part, then one pg product per composition of
            # the network and one pp per one that builds p
            width, batch, start = (*meta, 0)[:3]
            plan = cached_plan(width, start)
            groups = [plan.setup_ands] + [{3: 4, 2: 1}[k] * count
                                          for k, count in plan.gate_groups if start]
            groups += [len(plan.compositions) - plan.folded, len(plan.pp_rows)]
            words += sum(half(rows * packed(batch)) for rows in groups)
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

    def test_paper_run_provisions_12_55_mb_per_party(self):
        # the same run: 25,109,864 B when both parties' shares of every
        # product were written whole, 12,575,480 B when the zero test's
        # setup left the network's first layer to the network
        cfg = TrainingConfig(eta=0.001, n_iter=223, params=P64, seed=0)
        requests = training_randomness_requests(225, 12_634, cfg)
        assert crn1_bytes(requests, P64) == 12_550_504


class TestSeededRecords:
    """The pure mask U or V of a matmul record is written as one 2-word
    seed per party, and expanded once per record: U at load, and every
    other record, or any record of a dealt or on-demand stream, at its
    first take."""

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
        # the mask's header and seed, then the product's header, the seed of
        # V and of half of W, and the rest of W
        rest = self.N * k - self.N * k // 2
        size = HEADER + 2 * (RECORD + 8 * 2) + 8 * rest
        assert len(serialize_stream(src_a)) == size
        _, _, (seed, w) = src_a.records[1]
        assert seed.shape == (2,) and w.shape == (rest,)

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

    def test_loading_expands_x_masks_and_a_take_its_own_record_once(self, monkeypatch):
        # loading expands X's mask alone; every other record expands at its
        # first take, the AND-triple pool once across its takes, and a
        # record's expansion is dropped with the take that uses it up
        requests = [self.MASK, self.FORWARD, (TAG_BIT, 4), self.GRADIENT, self.FORWARD]
        calls = []
        real = expand_seed

        def recording(seed, count):
            calls.append(seed.tobytes())
            return real(seed, count)

        monkeypatch.setattr("mpclr.randomness.expand_seed", recording)
        src_a, _ = TrustedDealer(8, P64).generate(requests)
        assert len(calls) == 2 * 5  # the dealer expands both parties' seeds of each record
        calls.clear()
        back = deserialize_stream(serialize_stream(src_a), P64)
        seeds = [parts[0].tobytes() for _, _, parts in back.records]
        assert calls == seeds[:1] and list(back._expanded) == [0]
        # each take, the index of the record it reads, and the records
        # whose expansion is kept after it
        takes = [(self.MASK, 0, set()), (self.FORWARD, 1, set()), ((TAG_BIT, 1), 2, {2}),
                 ((TAG_BIT, 0), 2, {2}), ((TAG_BIT, 3), 2, set()),
                 (self.GRADIENT, 3, set()), (self.FORWARD, 4, set())]
        for source, at_load in ((back, 1), (src_a, 0)):  # a dealt stream expands none early
            calls[:] = seeds[:at_load]
            assert len(source._expanded) == at_load
            for request, index, kept in takes:
                take(source, *request)
                assert calls == seeds[:max(index + 1, at_load)], request
                assert set(source._expanded) == kept, request


class TestLoadedMemory:
    """What a loaded stream holds beyond its CRN1 buffer does not grow with
    the iteration count: loading expands X's mask alone, and the takes keep
    no expansion of a record they have used up."""

    N, FEATURES = 1000, 9

    def blobs(self, iterations):
        cfg = TrainingConfig(eta=0.05, n_iter=iterations, params=P64, seed=4)
        requests = training_randomness_requests(self.N, self.FEATURES, cfg)
        return cfg, [serialize_stream(s) for s in TrustedDealer(4, P64).generate(requests)]

    @staticmethod
    def traced(load, blob):
        """Bytes that `load(blob)` leaves allocated, and its result."""
        tracemalloc.start()
        try:
            source = load(blob, P64)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held, source

    def test_loading_holds_x_mask_alone_at_any_iteration_count(self):
        mask = 8 * self.N * (self.FEATURES + 1)
        expanded = []
        for iterations in (20, 160):
            _, (blob, _) = self.blobs(iterations)
            deserialize_stream(blob, P64)  # fills the caches of record layouts first
            parsed, _ = self.traced(_parse_stream, blob)
            loaded, source = self.traced(deserialize_stream, blob)
            assert list(source._expanded) == [0]
            expanded.append(loaded - parsed)
        # within what numpy's own bookkeeping of the parsed views moves by;
        # eager expansion held 2.5 to 3 times the stream here, and more with
        # every iteration
        assert all(abs(held - mask) <= 4096 for held in expanded), expanded

    def test_training_leaves_no_expansion_behind(self):
        cfg, blobs = self.blobs(20)
        feats, labels = separable_toy(self.N, self.FEATURES, seed=4)
        ds = Dataset.from_features(feats, labels)
        rng = np.random.default_rng(4)
        xa, xb = split_array(encode_array(ds.X, P64), P64, rng)
        ta, tb = split_array(encode_array(ds.t.astype(np.float64), P64), P64, rng)
        tracemalloc.start()
        try:
            sources = [deserialize_stream(blob, P64) for blob in blobs]
            loaded, _ = tracemalloc.get_traced_memory()
            run = protocol_pair(P64, lambda s: train_secure(s, xa.values, ta.values, cfg),
                                lambda s: train_secure(s, xb.values, tb.values, cfg),
                                sources=sources)
            del run
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # X's mask went to the masked matrix at the first product, and every
        # record is used up
        assert all(not source._expanded for source in sources)
        assert left <= loaded + 64 * 1024, f"{left - loaded} B more than after loading"


class TestTakesInPlace:
    """A take hands out each written part as its seeded half and its written
    rest, where they lie, so on a loaded stream it allocates the record's
    expansion and no array of a written part's size."""

    BATCH, COLUMNS = 16_000, 10  # the benchmark's tall shape
    DABITS = (TAG_CONVERSION, DaBits(2, BATCH, 1))
    MASK = (TAG_MATMUL, MatmulDims(BATCH, COLUMNS, 0, MATMUL_MASK))
    FORWARD = (TAG_MATMUL, MatmulDims(BATCH, COLUMNS, 1, MATMUL_REUSE))

    def test_each_take_peaks_at_its_records_expansion(self):
        streams = TrustedDealer(6, P64).generate([self.MASK, self.DABITS, self.FORWARD])
        for side, dealt in enumerate(streams):
            source = deserialize_stream(serialize_stream(dealt), P64)
            source.take_matmul_triple(self.MASK[1])
            for (tag, meta), take_it in ((self.DABITS, lambda: source.take_dabits(*meta)),
                                         (self.FORWARD, lambda: source.take_matmul_triple(meta))):
                expansion = 8 * _size(layout(tag, meta)[0])
                tracemalloc.start()
                try:
                    parts = take_it()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                # a joined copy of the written parts would add 384 KiB to the
                # daBits' 324 KiB, and 128 KiB to the product's 64 KiB
                assert expansion <= peak <= expansion + 4096, (side, meta, peak)
                written = [pieces[1 - side] for pieces in parts if isinstance(pieces, tuple)]
                assert written and all(np.shares_memory(part, np.frombuffer(
                    source.buffer, np.uint8)) for part in written)

    def test_zero_test_take_reads_the_setup_products_in_place(self):
        # the activation's zero test at 12/15: its setup's 71 product rows
        # are handed out as their two pieces, where they lie; a joined copy
        # of them would add 142 KB, and one of the setup's masks 80 KB more
        meta = (28, self.BATCH, 12)
        plan = cached_plan(28, 12)
        words = word_count(self.BATCH)
        # what the take builds beside the expansion: the p masks of the
        # leaves joined to those of the created nodes, the first-level
        # terms' derived masks, every gate group's tuples, and pp and pg
        tuples = sum(((1 << k) - 1) * count for k, count in plan.gate_groups)
        built = 8 * words * (len(plan.p_nodes) + plan.derived_terms + tuples
                             + len(plan.pp_rows) + len(plan.compositions) - plan.folded)
        expansion = 8 * _size(layout(TAG_PREFIXNET, meta)[0])
        for side, dealt in enumerate(TrustedDealer(6, P64).generate([(TAG_PREFIXNET, meta)])):
            source = deserialize_stream(serialize_stream(dealt), P64)
            tracemalloc.start()
            try:
                block = source.take_prefix_block(*meta)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert expansion + built <= peak <= expansion + built + 16384, (side, peak)
            mask, pieces = block.setup
            assert mask.shape == (plan.setup_rows, words)
            assert sum(map(len, pieces)) == plan.setup_ands * words
            assert np.shares_memory(pieces[1 - side], np.frombuffer(source.buffer, np.uint8))


class TestSeededPools:
    """Every record but a matrix one (ring triples, AND triples, daBits,
    prefix-network blocks) writes its pure masks as one 2-word seed per party and only the
    shares that depend on them in full; expanding the seed rebuilds the
    correlations."""

    @staticmethod
    def pools(params, batch):
        # the daBits of two rows, the first row's factored, as training deals them
        return [(TAG_SCALAR, batch), (TAG_BIT, batch), (TAG_CONVERSION, DaBits(2, batch, 1)),
                (TAG_PREFIXNET, (params.ring_bits // 2 + 1, batch))]

    @pytest.mark.parametrize("params", [P16, P64])
    @pytest.mark.parametrize("batch", [1, 64, 225])
    def test_record_writes_a_seed_and_the_products(self, params, batch):
        words = word_count(batch)
        width = params.ring_bits // 2 + 1
        comps = len(cached_plan(width).compositions)

        def half(size):  # what a seeded half of a part leaves written
            return size - size // 2

        written = {TAG_SCALAR: half(batch), TAG_BIT: half(words),
                   TAG_CONVERSION: half(2 * batch) + half(batch),
                   TAG_PREFIXNET: half(width * words) + 2 * half(comps * words)}
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

    def test_tall_plan_takes_0_379_mb_per_iteration(self):
        # 16,000 x 10 for 20 iterations, the benchmark's tall workload: 1.692 MB
        # per iteration when every mask but X's was written whole, 0.973 MB
        # when the prefix network built every carry of 29 bits, 0.813 MB when
        # the zero test's gates took whole 4-input tuples from a bit pool,
        # 0.791 MB when the conversion's product took a ring triple and the
        # pools had a 5% tail, 0.772 MB when both parties' shares of every
        # product were written whole, 0.386 MB when the network composed its
        # first layer and the prefixes' p and the tree had 4-input gates
        cfg = TrainingConfig(eta=2.0 ** -12, n_iter=20, params=P64, seed=0)
        requests = training_randomness_requests(16_000, 9, cfg)
        assert crn1_bytes(requests, P64) == 7_584_064 == 20 * 379_203.2
        src_a, src_b = TrustedDealer(0, P64).generate(requests)
        assert len(serialize_stream(src_a)) == len(serialize_stream(src_b)) == 7_584_064

    @pytest.mark.parametrize("params", [P16, P64])
    @pytest.mark.parametrize("batch", [64, 225])
    def test_correlations_survive_expansion(self, params, batch):
        requests = self.pools(params, batch) * 2
        dealt = TrustedDealer(9, params).generate(requests)
        loaded = [deserialize_stream(serialize_stream(s), params) for s in dealt]
        on_demand = [OnDemandSource(9, role, params) for role in Role]
        # every record taken whole
        (a, b), *others = [[[take(s, *request) for request in requests] for s in sources]
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
                assert all(p.dtype == params.dtype for p in (pa[0], pb[0], pa[-1], pb[-1]))
            if tag == TAG_SCALAR:
                (ua, va, wa), (ub, vb, wb) = pa, pb
                assert np.array_equal((ua + ub) * (va + vb), wa + wb)
                assert not any(p.flags.writeable for p in (*pa, *pb))
            elif tag == TAG_BIT:
                u, v, w = pa ^ pb
                assert np.array_equal(w, u & v)
            elif tag == TAG_CONVERSION:
                (ring_a, bits_a, va, rho_a), (ring_b, bits_b, vb, rho_b) = pa, pb
                r = unpack_rows(bits_a ^ bits_b, batch).reshape(-1).astype(params.dtype)
                assert np.array_equal(ring_a + ring_b, r)
                assert va.shape == rho_a.shape == (batch,)
                assert np.array_equal(rho_a + rho_b, r[:batch] * (va + vb))
            else:
                setup, mask_p, mask_g, prod_pp, prod_pg = (x ^ y for x, y in zip(pa, pb))
                assert np.array_equal(setup[2], setup[0] & setup[1])
                plan = cached_plan(meta[0])
                hi, lo = plan.comp_hi, plan.comp_lo
                assert np.array_equal(prod_pp, mask_p[hi] & mask_p[lo])
                assert np.array_equal(prod_pg, mask_p[hi] & mask_g[lo])
                # a take's setup triple is a new array; its masks and joined products are read-only
                assert not any(p.flags.writeable for p in (*pa[1:], *pb[1:]))


class TestGateGroupRecords:
    """A prefix-network record deals exactly the AND gates of its plan's
    `gate_groups`: each group's k single masks expand from the seed, its
    2^k - 1 - k products of two or more masks are written, and every tuple
    XORs to the subset products r_S of its masks.  A zero test's record
    also deals its one-sided setup's products."""

    # full decompositions, then zero tests: the default 12/15, P16's 4/3, a
    # final AND in a round of its own, and a test with no term but the first
    PLANS = [(8, 0), (29, 0), (64, 0), (28, 12), (8, 4), (33, 31), (2, 1)]
    BATCH = 77

    @pytest.mark.parametrize("width,start", PLANS)
    def test_shapes_follow_the_gate_groups(self, width, start):
        plan = cached_plan(width, start)
        groups = plan.gate_groups
        # a full decomposition's gates are its setup's ANDs, one per
        # position; a zero test's are its rounds' gates, in order
        assert groups == ([(2, width)] if not start else
                          [group for layer in plan.rounds for group in layer.gates])
        assert ((plan.setup_ands if start else 0) + sum((k - 1) * count for k, count in groups)
                + len(plan.compositions) - plan.folded + len(plan.pp_rows)) == (
            plan.setup_ands + sum(layer.and_count for layer in plan.rounds))
        words = word_count(self.BATCH)
        meta = (width, self.BATCH, start)
        g_nodes = (len(plan.masked_nodes), words)
        comps, pps = (len(plan.compositions) - plan.folded, words), (len(plan.pp_rows), words)
        seeded, written = layout(TAG_PREFIXNET, meta)
        assert {part.bits for part in seeded + written} == {self.BATCH}
        # a zero test's setup is one-sided: each party's seed expands to
        # the whole masks of its own operand rows
        assert [part.own for part in seeded] == [start > 0] + [False] * (len(seeded) - 1)
        tree = [((1 << k) - 1 - k, count, words) for k, count in groups]
        if start:
            # The operand rows, each round's opened gate inputs, one row
            # each, and the created nodes' p masks.  The masks that a zero
            # test derives are not seeded: the leaves' p masks are the
            # setup's, and round 1 opens no first-level term.
            rows, opened, created = {(28, 12): (40, [0, 6, 3], 21), (8, 4): (10, [0, 3], 3),
                                     (33, 31): (48, [2], 29), (2, 1): (1, [], 0)}[width, start]
            masks = [(1, rows, words), *((count, words) for count in opened),
                     (created, words), g_nodes]
            products = [(plan.setup_ands, words), *tree, pps, comps]
        else:
            masks = [(2, width, words), (len(plan.p_nodes), words), g_nodes]
            products = [*tree, pps, comps]
        assert [part.shape for part in written] == products
        # after the masks, a seed expands to its half of every written part,
        # and the record writes the rest of each, flat
        sizes = [math.prod(shape) for shape in products]
        assert [part.shape for part in seeded] == masks + [(size // 2,) for size in sizes]
        assert [part.half for part in seeded] == [0] * len(masks) + sizes
        assert [shape for shape, _ in part_shapes(TAG_PREFIXNET, meta, P64)] == [
            (2,), *((size - size // 2,) for size in sizes)]

    @pytest.mark.parametrize("width,start", PLANS)
    def test_every_dealt_tuple_opens_to_its_subset_products(self, width, start):
        meta = (width, self.BATCH, start)
        src_a, src_b = (deserialize_stream(serialize_stream(s), P64) for s in
                        TrustedDealer(width + start, P64).generate([(TAG_PREFIXNET, meta)]))
        blk_a, blk_b = src_a.take_prefix_block(*meta), src_b.take_prefix_block(*meta)
        plan = cached_plan(width, start)
        groups = plan.gate_groups
        assert len(blk_a.gates) == len(blk_b.gates) == len(groups)
        if start:
            # one-sided: Alice's whole masks u and Bob's v, and their shares
            # of each product of an Alice row's mask and a Bob row's
            (u, wa), (v, wb) = blk_a.setup, blk_b.setup
            alice, bob = plan.fold.products.T
            opened = whole(wa) ^ whole(wb)
            assert np.array_equal(opened, (u[alice] & v[bob]).reshape(-1))
            assert not (opened.reshape(len(alice), -1)[:, -1] & ~tail_mask(self.BATCH)).any()
        for (k, count), ga, gb in zip(groups, blk_a.gates, blk_b.gates):
            opened = ga ^ gb
            assert opened.shape == ((1 << k) - 1, count, word_count(self.BATCH))
            assert not (opened[..., -1] & ~tail_mask(self.BATCH)).any()
            for subset in range(1, 1 << k):
                singles = [opened[(1 << i) - 1] for i in range(k) if subset >> i & 1]
                assert np.array_equal(opened[subset - 1], np.bitwise_and.reduce(singles))

    @pytest.mark.parametrize("n,features,params", [
        (16_000, 9, P64),     # tall
        (225, 12_633, P64),   # wide
        (64, 9, P16),         # criterion 4's precision
    ])
    def test_training_deals_no_bit_pool(self, n, features, params):
        cfg = TrainingConfig(eta=0.25, n_iter=3, params=params)
        requests = training_randomness_requests(n, features, cfg)
        assert TAG_PREFIXNET in {tag for tag, _ in requests}
        assert TAG_BIT not in {tag for tag, _ in requests}


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


def opens(tag, meta, pa, pb, masks):
    """Whether two parties' takes of a record reconstruct its products;
    `masks` maps a matrix shape to the U last opened at it."""
    if tag == TAG_SCALAR:
        (ua, va, wa), (ub, vb, wb) = pa, pb
        return np.array_equal((ua + ub) * (va + vb), wa + wb)
    if tag == TAG_BIT:
        u, v, w = pa ^ pb
        return np.array_equal(u & v, w)
    if tag == TAG_CONVERSION:
        (ring_a, bits_a, va, rho_a), (ring_b, bits_b, vb, rho_b) = pa, pb
        r = unpack_rows(bits_a ^ bits_b, meta.batch).reshape(-1).astype(ring_a.dtype)
        return (np.array_equal(ring_a + ring_b, r)
                and np.array_equal(rho_a + rho_b, r[:len(va)] * (va + vb)))
    if tag == TAG_MATMUL:
        (ua, va, wa), (ub, vb, wb) = pa, pb
        if meta.kind == MATMUL_MASK:
            masks[meta[:2]] = ua + ub
            return wa is wb is None
        u = masks[meta[:2]]
        return np.array_equal((u if meta.kind == MATMUL_REUSE else u.T) @ (va + vb), wa + wb)
    width, _, start = meta
    plan = cached_plan(width, start)
    if start:  # one-sided: Alice's whole masks u, Bob's v, and their shares of the products
        (u, wa, *pa), (v, wb, *pb) = pa, pb
        alice, bob = plan.fold.products.T
        if not np.array_equal(wa ^ wb, (u[alice] & v[bob]).reshape(-1)):
            return False
    groups = len(plan.gate_groups)
    gates, (mask_p, mask_g, prod_pp, prod_pg) = (
        list(zip(pa[:groups], pb[:groups])), [x ^ y for x, y in zip(pa[groups:], pb[groups:])])
    for ga, gb in gates:
        opened = ga ^ gb
        k = len(opened).bit_length()
        if not np.array_equal(opened, subset_products(opened[[(1 << i) - 1 for i in range(k)]])):
            return False
    return (np.array_equal(prod_pp, mask_p[plan.pp_hi] & mask_p[plan.pp_lo])
            and np.array_equal(prod_pg, mask_p[plan.comp_hi] & mask_g[plan.comp_lo]))


def every_kind(params, batch):
    """One record of every kind, at `batch`: pools of ring and AND triples,
    factored and plain daBits, a full decomposition and a zero test, whose
    setup group is one-sided, and the three matrix kinds, the mask writing
    nothing."""
    width = params.ring_bits // 2 + 1
    return [(TAG_SCALAR, batch), (TAG_BIT, batch), (TAG_CONVERSION, DaBits(2, batch, 1)),
            (TAG_CONVERSION, DaBits(1, batch, 0)), (TAG_PREFIXNET, (width, batch, 0)),
            (TAG_PREFIXNET, (width, batch, width // 2)),
            (TAG_MATMUL, MatmulDims(batch, 3, 0, MATMUL_MASK)),
            (TAG_MATMUL, MatmulDims(batch, 3, 1, MATMUL_REUSE)),
            (TAG_MATMUL, MatmulDims(batch, 3, 2, MATMUL_REUSE_T))]


class TestBalancedHalves:
    """Of every part of s elements that depends on a record's masks, Alice's
    seed expands to her shares of the first s // 2 and Bob's to his of the
    last s // 2; each party writes the rest, and a take hands out the two.  At
    every batch some part is odd, with a middle element that both parties
    write, and at 225 a half ends inside a packed row of four words."""

    @pytest.mark.parametrize("params", [P16, P64], ids=["ring16", "ring64"])
    @pytest.mark.parametrize("batch", [1, 77, 225])
    def test_dealt_loaded_and_on_demand_takes_agree_and_reconstruct(self, params, batch):
        requests = every_kind(params, batch)
        written = [spec for tag, meta in requests for spec in layout(tag, _meta(tag, meta))[1]]
        assert any(math.prod(spec.shape) % 2 for spec in written)
        if batch == 225:  # some half ends inside a packed row
            assert any(spec.bits and math.prod(spec.shape) // 2 % 4 for spec in written)
        dealt = TrustedDealer(batch, params).generate(requests)
        loaded = [deserialize_stream(serialize_stream(s), params) for s in dealt]
        on_demand = [OnDemandSource(batch, role, params) for role in Role]
        (a, b), *others = [[[take(s, *request) for request in requests] for s in sources]
                           for sources in (dealt, loaded, on_demand)]
        for other in others:
            for ours, theirs in zip((a, b), other):
                assert all(same_parts(x, y) for x, y in zip(ours, theirs, strict=True))
        masks = {}
        for (tag, meta), pa, pb in zip(requests, a, b):
            assert opens(tag, _meta(tag, meta), pa, pb, masks), (tag, meta)

    @pytest.mark.parametrize("params", [P16, P64], ids=["ring16", "ring64"])
    def test_ring_takes_across_the_halves(self, params):
        # a record of 77 triples: Alice's seed gives w's first 38, Bob's its
        # last 38, and both write the middle one; records of 0, 1 and 2
        # triples have no seeded half, one a middle alone, and no middle
        sizes = (77, 0, 1, 2)
        dealt = TrustedDealer(3, params).generate([(TAG_SCALAR, n) for n in sizes])
        loaded = [deserialize_stream(serialize_stream(s), params) for s in dealt]
        for sources in (dealt, loaded):
            for index, n in enumerate(sizes):
                (ua, va, wa), (ub, vb, wb) = (s.take_ring_triples(n) for s in sources)
                assert np.array_equal((ua + ub) * (va + vb), wa + wb)
                (_, _, (_, rest_a)), (_, _, (_, rest_b)) = (s.records[index] for s in sources)
                assert len(rest_a) == len(rest_b) == n - n // 2
                assert np.array_equal(wa[n // 2:], rest_a)
                assert np.array_equal(wb[:n - n // 2], rest_b)

    def test_bit_takes_across_the_halves(self):
        # 1,064 triples in 17 words: Alice's seed gives words 0..7 of w, Bob's
        # words 9..16, and both write word 8, so w's cuts lie at bits 512 and
        # 576; the second take, of three rows of 30 bits, starts at bit 500
        n, takes = 1064, [(500, 1), (90, 3), (0, 2), (474, 6)]
        for side in (0, 1):
            dealt = TrustedDealer(8, P64).generate([(TAG_BIT, n)])[side]
            loaded = deserialize_stream(serialize_stream(dealt), P64)
            whole = TrustedDealer(8, P64).generate([(TAG_BIT, n)])[side].take_bit_triples(n)
            bits = unpack_rows(whole[:, 0], n)
            for source in (dealt, loaded):
                start = 0
                for count, rows in takes:
                    got = source.take_bit_triples(count, rows=rows)
                    cut = bits[:, start:start + count].reshape(3 * rows, -1)
                    want = pack_rows(cut).reshape(3, rows, -1)
                    assert np.array_equal(got, want), (side, count)
                    start += count


class TestSeededHalvesSecurity:
    """A party's seeded halves are its own: they come from its seed alone,
    its peer's stream holds none of them, and a change of its seed moves
    only them (aim 3)."""

    REQUESTS = [request for request in every_kind(P64, 225)
                if request[1] != MatmulDims(225, 3, 0, MATMUL_MASK)]

    @staticmethod
    def products(source):
        """Every record's parts that depend on its masks, each its two
        pieces joined, flat."""
        return [[whole(pieces) for pieces in source._take(tag, _meta(tag, meta))[1]]
                for tag, meta in TestSeededHalvesSecurity.REQUESTS]

    def streams(self):
        requests = [(TAG_MATMUL, MatmulDims(225, 3, 0, MATMUL_MASK)), *self.REQUESTS]
        return TrustedDealer(12, P64).generate(requests)

    def test_each_half_is_the_own_seeds_expansion_past_the_masks(self):
        for side, source in enumerate(self.streams()):
            source.take_matmul_triple(MatmulDims(225, 3, 0, MATMUL_MASK))
            for (tag, meta), parts, (_, _, (seed, *_)) in zip(
                    self.REQUESTS, self.products(source), source.records[1:]):
                masks, written = layout(tag, _meta(tag, meta))
                words = expand_seed(seed, sum(math.prod(spec.shape) for spec in masks))
                seeded = words[sum(math.prod(spec.shape) for spec in masks[:-len(written)]):]
                for part, spec in zip(parts, written):
                    size = math.prod(spec.shape)
                    half, seeded = seeded[:size // 2], seeded[size // 2:]
                    first = size - size // 2 if side else 0
                    if spec.bits is not None:  # each row's tail bits are zeroed
                        count = word_count(spec.bits)
                        ends = np.arange(first, first + len(half)) % count == count - 1
                        half = np.where(ends, half & tail_mask(spec.bits), half)
                    got = part.reshape(-1)[first:first + size // 2]
                    assert np.array_equal(got, half.astype(got.dtype)), (tag, meta)

    def test_no_stream_holds_its_peers_seeded_halves(self):
        # where a product is 0, as an AND of four masks often is in a word
        # of a row's 33 tail bits, the peer's share of it equals the own one
        # by the sharing itself, so only words of nonzero products count
        sources = self.streams()
        words = [np.frombuffer(serialize_stream(s), np.uint64) for s in sources]
        for source in sources:
            source.take_matmul_triple(MatmulDims(225, 3, 0, MATMUL_MASK))
        products = [self.products(source) for source in sources]
        for (tag, meta), parts_a, parts_b in zip(self.REQUESTS, *products):
            for spec, pa, pb in zip(layout(tag, _meta(tag, meta))[1], parts_a, parts_b):
                value = (pa + pb if spec.bits is None else pa ^ pb).reshape(-1)
                size = len(value)
                for side, (own, peer) in enumerate(((pa, words[1]), (pb, words[0]))):
                    cut = slice(size - size // 2, None) if side else slice(None, size // 2)
                    half = own.reshape(-1)[cut][value[cut] != 0]
                    assert not np.isin(half, peer).any(), (tag, meta)

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_changed_seed_moves_only_its_partys_halves(self, side):
        dealt, changed = self.streams(), list(self.streams())
        raw = bytearray(serialize_stream(changed[side]))
        for _, _, (seed, *_) in changed[side].records[1:]:
            at = raw.find(seed.tobytes())
            raw[at:at + 16] = (~seed).tobytes()
        changed[side] = deserialize_stream(bytes(raw), P64)
        opened = []
        for sources in (dealt, changed):
            for source in sources:
                source.take_matmul_triple(MatmulDims(225, 3, 0, MATMUL_MASK))
            opened.append([self.products(source) for source in sources])
        for index, (tag, meta) in enumerate(self.REQUESTS):
            for part, spec in enumerate(layout(tag, _meta(tag, meta))[1]):
                plus = np.add if spec.bits is None else np.bitwise_xor
                was, now = (plus(a[index][part], b[index][part]).reshape(-1) for a, b in opened)
                size = len(was)
                moved = np.zeros(size, bool)
                moved[slice(size - size // 2, None) if side else slice(None, size // 2)] = True
                assert np.array_equal(was != now, moved), (tag, meta)
