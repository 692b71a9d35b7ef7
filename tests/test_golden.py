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
weight shares and every record of the other tags did not.
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
        "crn1": ("c04d6848bc8565022ca127c69e96d8124900801c804fb4b3662221999b812348",
                 "36a7daf70b79b70e388995d1a1b9a50fd8c1dc9c8dbef506507869122ce59724"),
        "sent": ("7d2262a5f74c397934931f799c7ff3326487a0cd3f9abe143daba2ebdda01d7f",
                 "bd9c36e8d314d647379fb084b5ca738e12f0e26c7fb14d24652a3ff8fcaab956"),
        "weights": ([28974219521733, 32862988747754, 26978605660032, 17389233348734,
                     28549017062738],
                    [18446715099490029812, 18446711210720804777, 18446717095103891915,
                     18446726684476202852, 18446715524692488985]),
    },
    77: {
        "crn1": ("ce0e5b97573ac0770e181f3b89a57b7b22d0029597ac03068972b27f37816fef",
                 "ea09e2e95223d04854a5f0b2e9b220f5c3123171b66f0df931ca2ac03d442e31"),
        "sent": ("75654fd8f272a8077b51efcceb0d052b432f12f506bab400529740dca28c03e4",
                 "57f3449dd2438f7ad7f98e65823f3e29b07848285dacd7750dba62f5aa5c601f"),
        "weights": ([37109802231382, 17307203006669, 13562539591937, 36318760248600,
                     19894510230177],
                    [18446706963907320185, 18446726766506545925, 18446730511169960164,
                     18446707754949303034, 18446724179199321197]),
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
