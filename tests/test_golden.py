"""Golden bytes: the CRN1 streams, the frames each party sends and the weight
shares of two small training runs, pinned as digests.

Any change to how bit strings are held in memory must leave every byte on the
wire and in files, and every dealt value, exactly as it is.  The batch of 64
fills whole 64-bit words; the batch of 77 leaves a partial word in every bit
row.  The weight shares depend only on the matrix records and the opened
values, so a change of protocol that computes the same values, such as the
daBit conversion of protocol version 5, moves the stream and frame digests
but not them.  Protocol version 6 sends every opening under one message
type, so only the frame digests moved: a bit opening's frame differs from
before in its type byte alone.  Protocol version 7 sends each opened bit
matrix, and keeps each prefix-network setup triple, as the word rows it is
held in instead of one contiguous string of all rows.  At the batch of 64
the two layouts are the same bytes and nothing moved; at the batch of 77
the stream and frame digests moved and the weight shares did not.
Protocol version 8 ANDs the OR tree's rows four at a time, against pooled
tuples of fifteen dealt subset products, and writes the version into the
CRN1 header: the stream and frame digests moved at both batches, and the
weight shares and every record of the other tags did not.  Protocol version
9 widens the CRN1 record count to a word and packs each record header into
three words, so every part starts on a word boundary: only the stream
digests moved, and every part's bytes stayed as they were.  Protocol version
10 opens the activation's product in the conversion's frame, against the
ring triples already dealt for it: the frame digests moved, and the stream
digests moved through the version field of the file header alone.  Protocol
version 11 writes the matrix masks U and V as one seed per party, so they
take new values: the stream and frame digests moved, and so did the weight
shares, since the local truncation's error of up to one unit in the last
place per truncation depends on the shares it truncates; the weights they
reconstruct to moved by at most two such units.  Protocol version 12 writes
the pure masks of every other record as one seed per party too, so those
masks take new values: the stream and frame digests moved, and the weight
shares, which depend only on the matrix records and the opened values, did
not.  Protocol version 13 tests the activation's integer field for zero
inside a prefix network pruned to the two carries it needs, on 28 bits
instead of 29, and drops the OR tree: the stream and frame digests moved,
and the weight shares did not.  Protocol version 14 deals every AND gate of
the decomposition, and no unread one, in its prefix-network record: the
stream and frame digests moved, and the weight shares did not.  Protocol
version 15 deals a bit-pool record as AND triples, u and v from the seed and
w written, instead of 4-input tuples; training deals no such record, so the
stream digests moved through the version field of the file header alone.
Protocol version 16 opens only what needs opening: the conversion's product
runs against its own daBits, with rho = r·v dealt in their record in place
of a ring triple, and the zero test's setup ANDs are one-sided, each
party's operand masked by a mask only it holds; the pools lost their 5%
tail.  The stream and frame digests moved, and the weight shares did not.
Protocol version 17 deals a conversion's daBits as the packed rows it
opens, one record taken whole, with a flag in place of the factored count:
each record's seed expands to one word-aligned row per converted row
instead of one string of all of them.  At the batch of 64 the two layouts
are the same bits and only the stream digests moved, through the record
headers; at the batch of 77 the stream and frame digests moved.  The
weight shares moved at neither.
"""

import hashlib

import numpy as np
import pytest

from mpclr import FixedPointParams, TrainingConfig, TrustedDealer, training_randomness_requests
from mpclr.fixedpoint import encode_array
from mpclr.randomness import serialize_stream
from mpclr.sharing import split_array
from mpclr.training import Dataset, train_secure

from helpers import protocol_pair, separable_toy

GOLDEN = {
    64: {
        "crn1": ("308274bddac7a2a5f1b7e71728d25482731cec16eb5b3d85a4c0e30913533965",
                 "9bf8286b97298493d464e577612ebf6cecb65af7c7cabad2aaafde1f8cff0405"),
        "sent": ("84c8550fa0c1b48f736670c594993ad2f34e576ea3b4e64446c0501349defe47",
                 "02574ed07f863cf3896cf1ca586d99f59b31262bb2d0ae4804be7e6873d1c297"),
        "weights": ([19138880305724, 24006652041723, 27370254117660, 29159159964231,
                     20729159496846],
                    [18446724934829245821, 18446720067057510807, 18446716703455434286,
                     18446714914549587355, 18446723344550054877]),
    },
    77: {
        "crn1": ("1c7f7624858b8e7405f0184ffb0f7e864fd0dd861f92bac9e5461975f4c790a2",
                 "1ede26dad3696fc25a35cc99c6faff1455299f438ecf0ad8a5ba48c8f3c23465"),
        "sent": ("1ce1f5143d1ece020b4a040ee5418431ea34310a65a062ba585812246d6bacc4",
                 "8d823504f3b355946ebd6c351c6986402de19436d75081f26ff70a8db8bd76ff"),
        "weights": ([28066745343120, 29264249119107, 33640938008250, 9058849979089,
                     40782814463658],
                    [18446716006964208446, 18446714809460433486, 18446710432771543850,
                     18446735014859572545, 18446703290895087714]),
    },
}


def golden_run(n_samples: int):
    cfg = TrainingConfig(eta=2.0 ** -8, n_iter=3, params=FixedPointParams(), seed=2024)
    feats, labels = separable_toy(n_samples, 4, seed=n_samples)
    ds = Dataset.from_features(feats, labels)
    rng = np.random.default_rng(5)
    xa, xb = split_array(encode_array(ds.X, cfg.params), cfg.params, rng)
    ta, tb = split_array(encode_array(ds.t.astype(np.float64), cfg.params), cfg.params, rng)
    requests = training_randomness_requests(ds.n_samples, ds.n_weights - 1, cfg)
    sources = TrustedDealer(cfg.seed, cfg.params).generate(requests)
    crn1 = tuple(hashlib.sha256(serialize_stream(s)).hexdigest() for s in sources)
    wa, wb, sa, sb = protocol_pair(
        cfg.params,
        lambda s: train_secure(s, xa.values, ta.values, cfg),
        lambda s: train_secure(s, xb.values, tb.values, cfg),
        seed=cfg.seed,
        sources=sources,
    )
    return {
        "crn1": crn1,
        "sent": (sa.transcript.sent_digest(), sb.transcript.sent_digest()),
        "weights": ([int(v) for v in wa], [int(v) for v in wb]),
    }


@pytest.mark.parametrize("n_samples", sorted(GOLDEN))
def test_bytes_and_shares_are_pinned(n_samples):
    assert golden_run(n_samples) == GOLDEN[n_samples]
