"""Golden bytes: the CRN1 streams, the frames each party sends and the weight
shares of two small training runs, pinned as digests.

Any change to how bit strings are held in memory must leave every byte on the
wire and in files, and every dealt value, exactly as it is.  The batch of 64
fills whole 64-bit words; the batch of 77 leaves a partial word in every bit
row.
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
        "crn1": ("7c317270ee7e8d87577d36cbeac76b1890058b6f5a557662a621f18eaaa5913e",
                 "d6400b0edf8cf4530505f40ccddda5d742984c1f5c8e92aef9cef40c89c2b10a"),
        "sent": ("c1565489844aa96b93be94f0da27d52d54bde5f28d46dc8842c3b97bea97f84d",
                 "dd85c05180df68c852ed56ea46ced361a3f9e8ee62a31a4dfa2426fb284fd3e1"),
        "weights": ([28974219521733, 32862988747754, 26978605660032, 17389233348734,
                     28549017062738],
                    [18446715099490029812, 18446711210720804777, 18446717095103891915,
                     18446726684476202852, 18446715524692488985]),
    },
    77: {
        "crn1": ("d76598875b716759536610e15953b840bdbdbdfdd7f6cb6714658f784b0335a2",
                 "537218ba07d87700f94e133bde2da20f4036d0168a2bf997beb73989862dec84"),
        "sent": ("6a7eb9bbd8026e4e756e9c7887b6403d5f396d6f73459fee534a3a24b2caff3b",
                 "f4ef8fa2fa7b990ed87a1dc20a0dce919a513e32aa59d30bca543212be78d674"),
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
