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
and the weight shares did not.
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
        "crn1": ("6d54874491cb1ee411999ee788e3ad5dc81448369fc873ad1fb267e6c7b74494",
                 "6a785ceb8dc88e6851fe803ae24a9cc8c20da410f26a5377b17fd8e0bf0a8354"),
        "sent": ("89fd06d08c037d248755546adbc0613714998f835c5b510bc4449b6f2bf93198",
                 "35c48469ae1e44eef1b7918562173df1045b9a039e192f3e06557e2f7c5316ff"),
        "weights": ([19138880305724, 24006652041723, 27370254117660, 29159159964231,
                     20729159496846],
                    [18446724934829245821, 18446720067057510807, 18446716703455434286,
                     18446714914549587355, 18446723344550054877]),
    },
    77: {
        "crn1": ("345c5576b6c9cb492762489110dfe925befe3d2e3ba9847cdcbd92600324a841",
                 "8a8654e59963dce7099042417eb6df2ea2ee265d4cc81db5797d9fc20c4402f1"),
        "sent": ("a8d521f8c8509dd59a0e8dcc36457dc3aad8d60006e6971ed534f65ddea51203",
                 "bbea6c066ae6cb0d3d46cf422a6d8875f7b8eb0034705104d9d046c7a5085945"),
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
