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
weight shares moved at neither.  Protocol version 18 writes each record's
products in balanced halves, Alice's shares of a part's first half and Bob's
of its last half expanded from their seeds: the masks and the opened masked
inputs stay as they were, but W's shares, and so the local truncations of
the products and every frame after them, take new values.  The stream,
frame and weight-share digests moved at both batches; the weights they
reconstruct to stayed the same at the batch of 64 and moved by one unit in
the last place in three of five at the batch of 77.  Protocol version 19
reuses the zero test's setup openings in its first network round: each
leaf's p is masked by the setup's own masks and no longer opened, and nor
is any first-level term but the top one, whose mask is the XOR of its
signals' masks.  The derived masks leave each record's seed, so the stream
and frame digests moved; the weight shares did not, because the
conversion reads the bit shares only through their opening c = d XOR r.
Protocol version 20 finishes the zero test's first carry layer in its setup
swap, from one-sided products of each pair's bits and of their AND, so the
network runs one round fewer; it opens, composes and deals no p of a prefix
(1, j), and its AND tree has 3-input gates.  The stream and frame digests
moved at both batches, and the weight shares did not, for the same reason.
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
        "crn1": ("d4f88820c17b52ccdd0366a2ec0e1ea50c7c162874b76a8a625569b76e77544c",
                 "954faea7e1e83dd5266dc095d6717771b23ee5220b60e454ff6eb991362a6bab"),
        "sent": ("9d027167e3ab1a2dc121dca869e4738ab7840699b55f773e04fffeb255fb797d",
                 "ce976004b9f90e74e72aef9f37031d2a53e89b943f3f19943dd092c191f98f4c"),
        "weights": ([28196557140571, 27832120828833, 15796391437527, 33146138486755,
                     23444095067466],
                    [18446715877152410974, 18446716241588723697, 18446728277318114419,
                     18446710927571064831, 18446720629614484257]),
    },
    77: {
        "crn1": ("0b30ad3bfdc464df69329fdb0f443a5f52ef6a877cb1e1b22263449086d65b1c",
                 "4809c6e87c0e178613a8e6b6a613fa5e6da03cd0e05d1da17319ea4427d21fa2"),
        "sent": ("3e203a6c82edaa24a5e6a5de3663171bbff7572ebd61b1b8511cdfe27e4f6f6c",
                 "a0c08face0839a560864f12a24836cd32d3f713f221b85084f7e868583b21c1b"),
        "weights": ([26258040937676, 32855961416937, 31964977179578, 31998794512683,
                     22529888981087],
                    [18446717815668613891, 18446711217748135656, 18446712108732372522,
                     18446712074915038950, 18446721543820570286]),
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
