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
        "crn1": ("476b9116ae60f750367933871bcb0cdd07181f1d57473c9c1518ace11d61654f",
                 "41c11686e4f252ed9b5145ed1fa537fb2941f9036ddc509ff0eb8942e8711613"),
        "sent": ("9774a2869220682e6778cfaa5170c01a476996cb3068a024be15b6b245fbfb4e",
                 "6a23fece15cc649e5b94b6d335c1d8832191c8053e5c3fe32c28f32bbcfd1ffe"),
        "weights": ([28974219521733, 32862988747754, 26978605660032, 17389233348734,
                     28549017062738],
                    [18446715099490029812, 18446711210720804777, 18446717095103891915,
                     18446726684476202852, 18446715524692488985]),
    },
    77: {
        "crn1": ("146fffab7c0887cbb2cfe1c271049921c95d066b7c4dfd26917c5bc4d1fdb021",
                 "3b46cec24a6b15e719ea220a11f82503b7ab4fdd610b60716c1ad2190caf079e"),
        "sent": ("0b7278ae2e69156f4b2e7075464b275d56a2ae242ca63fb0e4852434ece01750",
                 "ad7183aac193b2c5f3224603d656a0c955ba4030ed1e31ecf60688773d62a542"),
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
