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
        "crn1": ("67f0f94f2f0073d826e4360a40537d211c28f965347006cecae1b2b945d634a7",
                 "a6067f2fc2f2afbc4e44dc12c13e140806ff4f84eacbf1a4bc9b6208377ef58a"),
        "sent": ("f5ccb5ec807b39cfb3431043488f415da3e9500275be5251042b1b00a181f62f",
                 "6b80694d6af139153671295056c4681ac08fbc43231a19cb930ce2f45b480dbc"),
        "weights": ([19138880305724, 24006652041723, 27370254117660, 29159159964231,
                     20729159496846],
                    [18446724934829245821, 18446720067057510807, 18446716703455434286,
                     18446714914549587355, 18446723344550054877]),
    },
    77: {
        "crn1": ("42c7f5158deb25f61f01fdaaa2cfa3d6382647652e2d6a94af5769473f6db6d8",
                 "8812d1b2671c31b025ee3dc56b5f7ad8097aaa8bfa5d50a2170ca6b0dc0788c3"),
        "sent": ("3559e10832de4e5bafc423bd9aedfde519aa2371c32e3a00b79bfbcffce02a67",
                 "57352ee7c391f559474a196c7533a15c95ae0ec7eff9fa35298a4ef3715bd4d7"),
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
