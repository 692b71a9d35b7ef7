"""Packed bit strings: uint64 word rows against per-bit and big-integer
references."""

import re

import numpy as np
import pytest

from mpclr import (
    FixedPointParams,
    Role,
    TrainingConfig,
    local_session_pair,
    run_sessions,
    training_randomness_requests,
)
from mpclr.activation import batch_activate
from mpclr.bitops import _from_slices, _to_slices
from mpclr.errors import ProtocolError, RandomnessUnderflowError
from mpclr.randomness import (
    TAG_BIT,
    TAG_CONVERSION,
    DaBits,
    MaterializedSource,
    OnDemandSource,
    TrustedDealer,
    deserialize_stream,
    expand_seed,
    serialize_stream,
)
from mpclr.sharing import ones_row, pack_rows, tail_mask, unpack_rows, word_count
from mpclr.transport import FRAME_HEADER

from helpers import dealt_parts, protocol_pair, take, take_dabits, whole_record

P16 = FixedPointParams(frac_bits=4, int_bits=3, ring_bits=16)
P64 = FixedPointParams()

BATCHES = [1, 63, 64, 65, 225, 16_000]


def words_to_int(words, nbits):
    """The low `nbits` bits of a packed string as one Python integer."""
    return int.from_bytes(np.asarray(words, dtype=np.uint64).tobytes(), "little") % (1 << nbits)


def per_bit_rows(values, width):
    """Row j as the integer whose bit i is bit j of values[i]."""
    rows = []
    for j in range(width):
        bits = "".join(str((v >> j) & 1) for v in reversed(values))
        rows.append(int(bits, 2))
    return rows


def random_values(batch, seed):
    rng = np.random.default_rng(seed)
    return np.frombuffer(rng.bytes(8 * batch), dtype=np.uint64)


class TestTranspose:
    @pytest.mark.parametrize("width", [2, 29, 64])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_rows_match_per_bit_loop_and_round_trip(self, batch, width):
        values = random_values(batch, batch * width)
        rows = _to_slices(values, width)
        assert rows.dtype == np.uint64 and rows.shape == (width, -(-batch // 64))
        expected = per_bit_rows([int(v) for v in values], width)
        for row, want in zip(rows, expected, strict=True):
            # tail bits past the batch are zero
            assert int.from_bytes(row.tobytes(), "little") == want
        low = values if width == 64 else values & np.uint64((1 << width) - 1)
        assert np.array_equal(_from_slices(rows, batch), low)
        assert np.array_equal(_from_slices(list(rows), batch), low)

    def test_narrow_ring(self):
        values = np.arange(256, dtype=np.uint8)
        rows = _to_slices(values, 8)
        assert per_bit_rows(list(range(256)), 8) == [words_to_int(r, 256) for r in rows]
        assert np.array_equal(_from_slices(rows, 256), values)


class TestWireLayout:
    @pytest.mark.parametrize("nrows", [0, 1, 3, 58])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_rows_travel_as_their_padded_words(self, nrows, batch):
        # after the opening's ring words, a bit matrix's frame bytes are the
        # word rows it is held in, each padded with zero bits to a whole word
        rng = np.random.default_rng(nrows * 7 + batch)
        ring = np.frombuffer(rng.bytes(8 * 3), dtype=np.uint64)
        rows, mask = rng.integers(0, 1 << 64, (2, nrows, word_count(batch)), dtype=np.uint64)
        rows[:, -1] &= tail_mask(batch)
        mask[:, -1] &= tail_mask(batch)
        sess_a, sess_b = local_session_pair(P64)
        sent = []
        send = sess_a.channel.send_bytes
        sess_a.channel.send_bytes = lambda data: send(data) or sent.append(bytes(data))
        zero_ring, zero_rows = np.zeros_like(ring), np.zeros_like(rows)
        opened = run_sessions(sess_a, sess_b,
                              lambda s: s.open(ring=[(ring, zero_ring)], bits=[(rows, zero_rows)]),
                              lambda s: s.open(ring=[(ring, zero_ring)], bits=[(mask, zero_rows)]))
        [frame] = sent
        assert frame[FRAME_HEADER.size:] == ring.tobytes() + rows.tobytes()
        for _, bits in opened:
            assert np.array_equal(bits, rows ^ mask)

    def test_ones_row(self):
        for batch in BATCHES:
            assert words_to_int(ones_row(batch), 64 * word_count(batch)) == (1 << batch) - 1


class BigIntPool:
    """The bit pool before word rows: one integer per string of a triple,
    shifted on every take."""

    def __init__(self, nparts=3):
        self.parts = [0] * nparts
        self.nbits = 0

    def append(self, nbits, parts):
        for i, words in enumerate(parts):
            self.parts[i] |= words_to_int(words, nbits) << self.nbits
        self.nbits += nbits

    def take(self, nbits):
        out = tuple(p & ((1 << nbits) - 1) for p in self.parts)
        self.parts = [p >> nbits for p in self.parts]
        self.nbits -= nbits
        return out


def row_reads(tag, seed, role, on_demand, sizes):
    """A `role` source of `tag` and, for each take of `sizes` units in turn,
    the parts of the record it reads and where in them it starts: one
    record of all the takes dealt up front, or one record per take dealt
    on demand."""
    dealer = TrustedDealer(seed, P64)
    side = role is Role.BOB
    if on_demand:
        return OnDemandSource(seed, role, P64), [(dealt_parts(dealer, tag, n)[side], 0)
                                                 for n in sizes]
    source = TrustedDealer(seed, P64).generate([(tag, sum(sizes))])[side]
    parts = dealt_parts(dealer, tag, sum(sizes))[side]
    return source, [(parts, start) for start in np.cumsum([0, *sizes[:-1]])]


def expected_rows(strings, start, nrows, batch):
    """`nrows` rows of `batch` bits from bit `start` on of a packed string,
    or of each string of a matrix, cut out of its unpacked bits and packed
    again row by row."""
    bits = np.unpackbits(np.ascontiguousarray(strings).view(np.uint8), axis=-1,
                         bitorder="little")
    cut = bits[..., start:start + nrows * batch]
    return pack_rows(cut.reshape(-1, batch)).reshape(*strings.shape[:-1], nrows, -1)


ROW_BATCHES = pytest.mark.parametrize("batch", [1, 63, 64, 65, 225])
# `rows` rows and then one more from a record of rows + 1: unless the batch
# is whole words, the second take starts inside a word
ROW_COUNTS = pytest.mark.parametrize("rows", [1, 2, 4])


class TestBitPool:
    RECORDS = [130, 7, 64, 1000, 77, 1]
    # the takes from each record in turn: each stays inside its record and
    # every record of more than one bit is cut off a word boundary
    TAKES = [[5, 64, 58, 3], [3, 4], [1, 62, 1], [200, 1, 128, 63, 600, 8], [48, 29], [1]]

    def reference(self, seed):
        ref = BigIntPool()
        dealer = TrustedDealer(seed, P64)
        for n in self.RECORDS:
            ref.append(n, dealt_parts(dealer, TAG_BIT, n)[0][0])
        return ref

    def check_takes(self, source, ref, takes):
        # each take is u, v and w of its triples
        for n in takes:
            got = source.take_bit_triples(n)
            assert got.shape == (3, 1, word_count(n))
            assert tuple(int.from_bytes(w.tobytes(), "little") for w in got) == ref.take(n)

    @pytest.mark.parametrize("through_file", [False, True])
    def test_takes_at_unaligned_cursors(self, through_file):
        assert [sum(takes) for takes in self.TAKES] == self.RECORDS
        for takes in self.TAKES[:-1]:
            assert any(cut % 64 for cut in np.cumsum(takes)[:-1])
        src_a, _ = TrustedDealer(4, P64).generate([(TAG_BIT, n) for n in self.RECORDS])
        if through_file:
            src_a = deserialize_stream(serialize_stream(src_a), P64)
        self.check_takes(src_a, self.reference(4), sum(self.TAKES, []))

    def test_appends_after_takes(self):
        source = MaterializedSource(P64, Role.ALICE)
        ref = BigIntPool()
        dealer = TrustedDealer(6, P64)
        for n in (70, 33):
            parts = dealer.block(TAG_BIT, n)[0]
            source.append(TAG_BIT, n, parts)
            ref.append(n, whole_record(TAG_BIT, n, parts, P64, Role.ALICE)[0])
            self.check_takes(source, ref, [n - 9, 9])

    def test_take_past_its_record_underflows(self):
        # a later record of the tag holding enough does not help: a take
        # reads inside one record
        source, _ = TrustedDealer(5, P64).generate([(TAG_BIT, 100), (TAG_BIT, 300)])
        source.take_bit_triples(60)
        with pytest.raises(RandomnessUnderflowError,
                           match=r"^bit-mul randomness exhausted: requested 41, have 40$"):
            source.take_bit_triples(41)
        source.take_bit_triples(40)
        source.take_bit_triples(300)
        with pytest.raises(RandomnessUnderflowError,
                           match=r"^bit-mul randomness exhausted: requested 1, have 0$"):
            source.take_bit_triples(1)

    @ROW_BATCHES
    @ROW_COUNTS
    @pytest.mark.parametrize("on_demand", [False, True])
    def test_row_takes_are_cut_from_the_record_strings(self, on_demand, rows, batch):
        for role in Role:
            source, reads = row_reads(TAG_BIT, 20 + rows, role, on_demand, [rows * batch, batch])
            for nrows, ((strings,), start) in zip((rows, 1), reads):
                got = source.take_bit_triples(nrows * batch, rows=nrows)
                assert got.shape == (3, nrows, word_count(batch))
                assert np.array_equal(got, expected_rows(strings, start, nrows, batch))

    # the last record is criterion 2's pool of 22 x 4096 triples
    @pytest.mark.parametrize("n,size", [(1, 72), (64, 72), (65, 72), (22 * 4096, 5_696)])
    def test_record_is_a_seed_and_w(self, n, size):
        # the file and record headers, the 2-word seed of u, v and one half
        # of w = u AND v, then the other half of w, odd middle word included
        rest = -(-word_count(n) // 2)
        for source in TrustedDealer(8, P64).generate([(TAG_BIT, n)]):
            assert len(serialize_stream(source)) == size == 24 + 24 + 8 * (2 + rest)
            (_, _, (seed, w)), = source.records
            assert seed.shape == (2,) and w.shape == (rest,)


class TestDabitPool:
    """A daBit record deals the daBits of one conversion, random bits r
    shared both in Z_2 and in the ring, as the packed rows it opens, and a
    take reads the whole record."""

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 225])
    def test_ring_shares_sum_to_the_xor_of_bit_shares(self, batch):
        dealer = TrustedDealer(batch, P64)
        for rows in (1, 2):
            (ring_a, bits_a, *_), (ring_b, bits_b, *_) = dealt_parts(
                dealer, TAG_CONVERSION, DaBits(rows, batch))
            assert ring_a.shape == (rows * batch,) and bits_a.shape == (rows, word_count(batch))
            r = bits_a ^ bits_b
            assert not (r[:, -1] & ~tail_mask(batch)).any()  # tail bits are zero
            assert [int(v) for v in ring_a + ring_b] == unpack_rows(r, batch).ravel().tolist()

    def test_take_past_its_record_underflows(self):
        source, _ = TrustedDealer(8, P64).generate([(TAG_CONVERSION, DaBits(2, 77, 1))])
        source.take_dabits(2, 77, 1)
        with pytest.raises(RandomnessUnderflowError,
                           match=r"^conversion randomness exhausted: requested 1, have 0$"):
            source.take_dabits(2, 77, 1)

    def test_empty_takes(self):
        # a conversion of no values reads a record of rows of no bits: one
        # zero word a row, and no ring share
        for factored in (0, 1):
            meta = DaBits(2, 0, factored)
            for source in TrustedDealer(9, P64).generate([(TAG_CONVERSION, meta)]):
                ring, bits, v, rho = take_dabits(source, *meta)
                assert ring.shape == v.shape == rho.shape == (0,) and ring.dtype == P64.dtype
                assert np.array_equal(bits, np.zeros((2, 1), np.uint64))

    @ROW_BATCHES
    @ROW_COUNTS
    @pytest.mark.parametrize("on_demand", [False, True])
    def test_row_takes_are_cut_from_the_record_strings(self, on_demand, rows, batch):
        # a record's seed expands to one string of words, cut into its Z_2
        # rows of word_count(batch) words, the tail bits zeroed, row 0's ring
        # masks v if it is factored, then the party's seeded halves of the
        # ring shares and of rho, handed out with the written rest of each
        # as two pieces: Alice's half first, Bob's last; a conversion of
        # `rows` rows, then a factored one of a single row, each reads its
        # own record
        metas = [DaBits(rows, batch), DaBits(1, batch, 1)]
        words = word_count(batch)
        for role in Role:
            side = role is Role.BOB
            source = (OnDemandSource(rows, role, P64) if on_demand else TrustedDealer(
                rows, P64).generate([(TAG_CONVERSION, meta) for meta in metas])[side])
            dealer = TrustedDealer(rows, P64)
            for meta in metas:
                seed, ring, rho = dealer.block(TAG_CONVERSION, meta)[side]
                got_ring, got_bits, got_v, got_rho = source.take_dabits(*meta)
                masks = meta.rows * words + meta.factored * batch
                halves = [int(meta) // 2, meta.factored * batch // 2]
                string = expand_seed(seed, masks + sum(halves))
                want = string[:meta.rows * words].reshape(meta.rows, words)
                want[:, -1] &= tail_mask(batch)
                assert np.array_equal(got_bits, want)
                assert np.array_equal(got_v, string[meta.rows * words:masks])
                ring_half, rho_half = np.split(string[masks:], halves[:1])
                for got, half, rest in ((got_ring, ring_half, ring), (got_rho, rho_half, rho)):
                    want = (rest, half) if side else (half, rest)
                    assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))

    @pytest.mark.parametrize("role", [Role.ALICE, Role.BOB])
    def test_on_demand_takes(self, role):
        # each take deals the record of exactly its conversion
        source = OnDemandSource(9, role, P64)
        dealer = TrustedDealer(9, P64)
        for meta in (DaBits(2, 77, 1), DaBits(1, 64), DaBits(3, 5, 1)):
            want = dealt_parts(dealer, TAG_CONVERSION, meta)[role is Role.BOB]
            got = take_dabits(source, *meta)
            assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))
            assert source.records[-1][1] == meta


class TestFactoredDabits:
    """A daBit record of DaBits(rows, batch, 1) also deals, with row 0's
    daBits r, a ring mask v from its seed and the written shares of
    rho = r·v: the conversion's product of row 0 with a ring factor."""

    @pytest.mark.parametrize("params", [P16, P64], ids=["ring16", "ring64"])
    @pytest.mark.parametrize("batch", [1, 64, 65, 225])
    def test_loaded_and_on_demand_takes_agree_and_rho_is_r_times_v(self, params, batch):
        # the takes of a conversion of two rows, the first factored, among
        # every take of the plan, in plan order
        cfg = TrainingConfig(eta=0.05, n_iter=2, params=params, seed=batch)
        requests = training_randomness_requests(batch, 2, cfg)
        metas = [meta for tag, meta in requests if tag == TAG_CONVERSION]
        assert metas == [DaBits(2, batch, 1)] * 2
        dealt = TrustedDealer(batch, params).generate(requests)
        takes = []
        for role, source in zip(Role, dealt):
            loaded = deserialize_stream(serialize_stream(source), params)
            on_demand = OnDemandSource(batch, role, params)
            parts = [[got for (tag, _), got in zip(requests, (take(s, *r) for r in requests))
                      if tag == TAG_CONVERSION] for s in (loaded, on_demand)]
            for ours, theirs in zip(*parts):
                assert all(np.array_equal(x, y) for x, y in zip(ours, theirs, strict=True))
            takes.append(parts[0])
        for (ring_a, bits_a, va, rho_a), (ring_b, bits_b, vb, rho_b) in zip(*takes):
            assert va.shape == rho_a.shape == (batch,) and rho_a.dtype == params.dtype
            r = unpack_rows(bits_a ^ bits_b, batch).reshape(-1).astype(params.dtype)
            assert np.array_equal(ring_a + ring_b, r)
            assert np.array_equal(rho_a + rho_b, r[:batch] * (va + vb))

    @pytest.mark.parametrize("batch", [0, 1, 37, 100])
    def test_record_writes_rho_after_the_ring_shares(self, batch):
        # the header words are the rows, the batch and the factored flag; a
        # factored record writes what the seed leaves of row 0's rho after
        # what it leaves of the ring shares of both rows: half of each,
        # rounded up
        for factored in (0, 1):
            meta = DaBits(2, batch, factored)
            rest = batch, -(-factored * batch // 2)
            for source in TrustedDealer(3, P64).generate([(TAG_CONVERSION, meta)]):
                data = serialize_stream(source)
                assert len(data) == 24 + 24 + 8 * (2 + sum(rest))
                header = np.frombuffer(data, np.uint64)[3:6]
                assert header.tolist() == [TAG_CONVERSION << 56 | 2, batch, factored]
                (_, loaded, (seed, ring, rho)), = deserialize_stream(data, P64).records
                assert loaded == meta and int(loaded) == 2 * batch
                assert (seed.shape, ring.shape, rho.shape) == ((2,), (rest[0],), (rest[1],))

    def test_take_of_another_record_is_a_protocol_error(self):
        source, _ = TrustedDealer(4, P64).generate([(TAG_CONVERSION, DaBits(2, 10, 1))])
        for meta in (DaBits(2, 10), DaBits(1, 10, 1), DaBits(2, 11, 1)):
            with pytest.raises(ProtocolError, match=re.escape(
                    f"conversion record mismatch: stream has {DaBits(2, 10, 1)}, "
                    f"requested {meta}")):
                source.take_dabits(*meta)
        source.take_dabits(2, 10, 1)


def test_empty_batch_sends_the_same_frames():
    # sent-frame digest of an activation over no values: every opened bit
    # row, the conversion's two daBit-masked rows among them, is one zero
    # word; each party opens 40 setup rows for the zero test, one per
    # position below the top one and one per first-layer pair, then 40, 17,
    # 7 and 6 rows in the network's four rounds
    empty = np.zeros(0, dtype=np.uint64)
    ra, _, sa, sb = protocol_pair(P64, lambda s: batch_activate(s, empty),
                                  lambda s: batch_activate(s, empty))
    assert ra.shape == (0,)
    assert sa.transcript.bytes_sent == 974
    expected = "be9a99e8db7d1a5e74c74fadc918adb5d92445b9bdfb74e4af2b7d819d524777"
    assert sa.transcript.sent_digest() == sb.transcript.sent_digest() == expected
