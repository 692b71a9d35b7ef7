"""Packed bit strings: uint64 word rows against per-bit and big-integer
references."""

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
from mpclr.errors import RandomnessUnderflowError
from mpclr.randomness import (
    TAG_BIT,
    TAG_CONVERSION,
    TAG_SCALAR,
    MaterializedSource,
    OnDemandSource,
    TrustedDealer,
    deserialize_stream,
    serialize_stream,
)
from mpclr.sharing import ones_row, random_bit_rows, random_bits, word_count
from mpclr.transport import FRAME_HEADER

from helpers import protocol_pair

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
        rows, mask = random_bit_rows(rng, nrows, batch), random_bit_rows(rng, nrows, batch)
        sess_a, sess_b = local_session_pair(P64)
        sent = []
        send = sess_a.channel.send_bytes
        sess_a.channel.send_bytes = lambda data: send(data) or sent.append(bytes(data))
        opened = run_sessions(sess_a, sess_b, lambda s: s.open(ring=[ring], bits=[rows]),
                              lambda s: s.open(ring=[ring], bits=[mask]))
        [frame] = sent
        assert frame[FRAME_HEADER.size:] == ring.tobytes() + rows.tobytes()
        for _, bits in opened:
            assert np.array_equal(bits, rows ^ mask)

    def test_ones_row(self):
        for batch in BATCHES:
            assert words_to_int(ones_row(batch), 64 * word_count(batch)) == (1 << batch) - 1

    @pytest.mark.parametrize("nbits", [1, 7, 8, 63, 64, 65, 1000])
    def test_random_bits_draws_the_same_bytes(self, nbits):
        ours, theirs = np.random.default_rng(nbits), np.random.default_rng(nbits)
        words = random_bits(ours, nbits)
        expected = int.from_bytes(theirs.bytes((nbits + 7) // 8), "little") & ((1 << nbits) - 1)
        assert len(words) == word_count(nbits)
        assert int.from_bytes(words.tobytes(), "little") == expected
        assert ours.bytes(16) == theirs.bytes(16)


class BigIntPool:
    """The bit pool before word rows: one integer per string of a tuple,
    shifted on every take."""

    def __init__(self, nparts=15):
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


class TestBitPool:
    RECORDS = [130, 7, 64, 1000, 77, 1]
    # the takes from each record in turn: each stays inside its record and
    # every record of more than one bit is cut off a word boundary
    TAKES = [[5, 64, 58, 3], [3, 4], [1, 62, 1], [200, 1, 128, 63, 600, 8], [48, 29], [1]]

    def reference(self, seed):
        ref = BigIntPool()
        dealer = TrustedDealer(seed, P64)
        for n in self.RECORDS:
            ref.append(n, dealer.block(TAG_BIT, n)[0][0])
        return ref

    def check_takes(self, source, ref, takes):
        # gates of 2, 3 and 4 inputs in turn read the first 3, 7 or 15 strings
        for i, n in enumerate(takes):
            k = 2 + i % 3
            got = source.take_bit_triples(n, k)
            assert all(len(w) == word_count(n) for w in got)
            expected = ref.take(n)[:(1 << k) - 1]
            assert tuple(int.from_bytes(w.tobytes(), "little") for w in got) == expected

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
        source = MaterializedSource(P64)
        ref = BigIntPool()
        dealer = TrustedDealer(6, P64)
        for n in (70, 33):
            parts = dealer.block(TAG_BIT, n)[0]
            source.append(TAG_BIT, n, parts)
            ref.append(n, parts[0])
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

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_empty_takes_are_one_zero_word(self, k):
        # before, between and after word-multiple records used up, and from
        # a stream of none
        source, _ = TrustedDealer(7, P64).generate([(TAG_BIT, 64), (TAG_BIT, 128)])
        empty = np.zeros(((1 << k) - 1, 1), np.uint64)
        for n in (0, 64, 0, 128, 0, 0):
            got = source.take_bit_triples(n, k)
            if not n:
                assert np.array_equal(got, empty) and got.dtype == np.uint64
        assert np.array_equal(MaterializedSource(P64).take_bit_triples(0, k), empty)


def bit_list(words, nbits):
    """Bits 0 .. nbits - 1 of a packed string, one at a time."""
    return [int(words[i // 64]) >> (i % 64) & 1 for i in range(nbits)]


class PerBitDabits:
    """The daBit pool as a list of (ring share, bit share) pairs, one per
    daBit, cut off the front on every take."""

    def __init__(self):
        self.pairs = []

    def append(self, nbits, parts):
        ring, bits = parts
        self.pairs += zip((int(v) for v in ring), bit_list(bits, nbits), strict=True)

    def take(self, nbits):
        out, self.pairs = self.pairs[:nbits], self.pairs[nbits:]
        return out


class TestDabitPool:
    # 77 samples for 3 iterations: three records of 154 daBits, then a
    # POOL_SLACK tail of 24
    CFG = TrainingConfig(eta=0.05, n_iter=3, params=P64, seed=8)
    # the takes from each record in turn, each inside its record
    TAKES = [[5, 64, 85], [1, 63, 90], [65, 2, 87], [24]]

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 225])
    def test_ring_shares_sum_to_the_xor_of_bit_shares(self, batch):
        (ring_a, bits_a), (ring_b, bits_b) = TrustedDealer(batch, P64).block(TAG_CONVERSION, batch)
        assert ring_a.shape == (batch,) and bits_a.shape == (word_count(batch),)
        r = bits_a ^ bits_b
        assert words_to_int(r, 64 * len(r)) < 1 << batch  # tail bits are zero
        assert [int(v) for v in ring_a + ring_b] == bit_list(r, batch)

    def plan_records(self):
        requests = training_randomness_requests(77, 4, self.CFG)
        sizes = [meta for tag, meta in requests if tag == TAG_CONVERSION]
        assert sizes == [154, 154, 154, 24] == [sum(takes) for takes in self.TAKES]
        return requests, sizes

    def check_takes(self, source, ref, takes):
        for n in takes:
            ring, bits = source.take_dabits(n)
            assert ring.shape == (n,) and bits.shape == (word_count(n),)
            want = ref.take(n)
            assert [int(v) for v in ring] == [r for r, _ in want]
            # equal as integers, so the tail bits are zero
            assert words_to_int(bits, 64 * len(bits)) == sum(b << i for i, (_, b) in enumerate(want))

    @pytest.mark.parametrize("through_file", [False, True])
    def test_takes_cut_the_plan_records(self, through_file):
        requests, sizes = self.plan_records()
        src_a, _ = TrustedDealer(8, P64).generate(requests)
        if through_file:
            src_a = deserialize_stream(serialize_stream(src_a), P64)
        ref = PerBitDabits()
        dealer = TrustedDealer(8, P64)
        for n in sizes:
            ref.append(n, dealer.block(TAG_CONVERSION, n)[0])
        self.check_takes(src_a, ref, sum(self.TAKES, []))

    def test_take_past_its_record_underflows(self):
        requests, _ = self.plan_records()
        src_a, _ = TrustedDealer(8, P64).generate(requests)
        src_a.take_dabits(150)
        with pytest.raises(RandomnessUnderflowError,
                           match=r"^conversion randomness exhausted: requested 5, have 4$"):
            src_a.take_dabits(5)

    def test_empty_takes(self):
        # before, between and after records of 64 used up, ring triples alike
        source, _ = TrustedDealer(9, P64).generate([(TAG_CONVERSION, 64), (TAG_SCALAR, 64)] * 2)
        for n in (0, 64, 0, 64, 0, 0):
            ring, bits = source.take_dabits(n)
            triples = source.take_ring_triples(n)
            assert all(part.shape == (n,) and part.dtype == P64.dtype for part in (ring, *triples))
            assert bits.shape == (word_count(n),)
            if not n:
                assert np.array_equal(bits, np.zeros(1, np.uint64))
        ring, bits = MaterializedSource(P64).take_dabits(0)
        assert ring.shape == (0,) and np.array_equal(bits, np.zeros(1, np.uint64))

    @pytest.mark.parametrize("role", [Role.ALICE, Role.BOB])
    def test_on_demand_takes(self, role):
        source = OnDemandSource(9, role, P64)
        ref = PerBitDabits()
        dealer = TrustedDealer(9, P64)
        for n in sum(self.TAKES, []):
            ref.append(n, dealer.block(TAG_CONVERSION, n)[role is Role.BOB])
            self.check_takes(source, ref, [n])


def test_empty_batch_sends_the_same_frames():
    # sent-frame digest of an activation over no values: every opened bit
    # row, the conversion's two daBit-masked rows among them, is one zero word
    empty = np.zeros(0, dtype=np.uint64)
    ra, _, sa, sb = protocol_pair(P64, lambda s: batch_activate(s, empty),
                                  lambda s: batch_activate(s, empty))
    assert ra.shape == (0,)
    assert sa.transcript.bytes_sent == 1922
    expected = "0368f6ab46f284aeb0fb8660e27228b4aae66ff14402ee8c90ef9c499979f063"
    assert sa.transcript.sent_digest() == sb.transcript.sent_digest() == expected
