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
        "crn1": ("81ab308fdd5c3bcc9833ca1b986703d56ccd6726b69cc296ff5efdc40b838c1f",
                 "d7552b52a0a1aa76495fd4036f3d58b2f41889e3c6dc5a7c21638d4b73e65789"),
        "sent": ("616fbb86fafa67f682bfd2dbd13c551b809ae7f5da7fb62994396346adca72bb",
                 "375ae83230c9b93078686c41b8af9c6035366fa33a1152ea13b81190dfcf6639"),
        "weights": ([28974219521733, 32862988747754, 26978605660032, 17389233348734,
                     28549017062738],
                    [18446715099490029812, 18446711210720804777, 18446717095103891915,
                     18446726684476202852, 18446715524692488985]),
    },
    77: {
        "crn1": ("5364baa70c273fc6778afd77de7462a136bf69bf1cb53a1abab24cbf0afd7312",
                 "40f61b74bb59e0b0fde5db218904e57feda4999c9792bac33f3146ba13f6a00b"),
        "sent": ("815396d2cc1dea24ba52745cfc57482a43011c20f383257bb7623a36b37fc1ba",
                 "4d68281f4e939490ae1563360eb80657feaef8bb35de58fb2a7c970271838e84"),
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
