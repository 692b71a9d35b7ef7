"""Secure logistic regression training and its plaintext reference trainers.

One secure iteration runs three strictly separated phases, everything inside
a phase batched into single rounds: (1) one matrix product X·w computes every
example's weighted sum, truncated locally; (2) one batched activation; (3) one
matrix product Xᵀ·(t - o) forms the gradient summed over the examples, which
is truncated, scaled by the public learning rate and truncated once more, all
locally.  Both products run against one mask of X that the dealer deals once:
X - U is opened in the first round of the run, so each later product opens
only its vector operand.  The learning rate is applied at the weight
update as a public fixed-point constant, so its quantized value (for example
encode(0.001) with 12 fractional bits is 4, an effective rate of about
0.00098) is what the model actually trains with.

`iteration_steps` lists the rounds of one iteration once; the trusted
initializer's request plan, `count_multiplications` and `count_traffic` are
all sums and filters over that list.  The plan deals exactly the records a
run takes, with no tail: one matrix record per product, one prefix-network
record per decomposition, and one daBit record per conversion, which also
deals the activation product's mask and its product with the daBits.

The two plaintext trainers bracket the secure one: `train_plain_float` is
textbook full gradient descent on reals, while `train_plain_fixed` replays
the secure schedule on plaintext ring integers with exact truncation,
isolating share-truncation noise from fixed-point quantization.  No early
stopping anywhere: the iteration count is fixed up front.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .activation import batch_activate, clipped_relu, clipped_relu_fixed
from .engine import MaskedMatrix, Session, batch_mul, matmul
from .errors import ProtocolError
from .fixedpoint import FixedPointParams, decode_array, encode, encode_array, exact_truncate
from .prefixnet import cached_plan
from .randomness import (
    MATMUL_MASK,
    MATMUL_REUSE,
    MATMUL_REUSE_T,
    TAG_CONVERSION,
    TAG_MATMUL,
    TAG_PREFIXNET,
    DaBits,
    MatmulDims,
)
from .sharing import word_count
from .transport import FRAME_HEADER


@dataclass(frozen=True)
class TrainingConfig:
    eta: float = 0.001
    n_iter: int = 10
    params: FixedPointParams = field(default_factory=FixedPointParams)
    seed: int = 0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("learning rate must be positive")
        if self.n_iter < 0:
            raise ValueError("iteration count cannot be negative")


@dataclass
class Dataset:
    """Feature matrix with the leading all-ones dummy column, labels in {0,1}."""

    X: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.t = np.asarray(self.t)
        if self.X.ndim != 2 or self.t.ndim != 1 or self.X.shape[0] != self.t.shape[0]:
            raise ValueError(f"inconsistent dataset shapes {self.X.shape} / {self.t.shape}")
        if not np.all(self.X[:, 0] == 1.0):
            raise ValueError("first column must be the all-ones dummy feature")
        if not np.isin(self.t, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")

    @classmethod
    def from_features(cls, features, labels) -> "Dataset":
        features = np.asarray(features, dtype=np.float64)
        dummy = np.ones((features.shape[0], 1))
        return cls(np.hstack([dummy, features]), np.asarray(labels))

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_weights(self) -> int:
        return self.X.shape[1]


def train_plain_float(X: np.ndarray, t: np.ndarray, cfg: TrainingConfig) -> np.ndarray:
    """Full gradient descent on reals; the fixed-point-free reference."""
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    w = np.zeros(X.shape[1])
    for _ in range(cfg.n_iter):
        o = clipped_relu(X @ w)
        w = w + cfg.eta * ((t - o) @ X)
    return w


def _check_field_overflow(values: np.ndarray, params: FixedPointParams, what: str):
    limit = 1 << (params.frac_bits + params.int_bits)
    if np.any(np.abs(values.view(params.signed_dtype).astype(np.int64)) >= limit):
        warnings.warn(
            f"{what} overflowed the {params.int_bits}-bit integer field; "
            "results degrade but training continues",
            RuntimeWarning,
            stacklevel=3,
        )


def train_plain_fixed(X: np.ndarray, t: np.ndarray, cfg: TrainingConfig) -> np.ndarray:
    """Replay of the secure schedule on plaintext ring integers.

    Uses exact floored truncation everywhere, so it bounds what the secure
    protocol computes up to local-truncation noise.  Returns decoded reals.
    """
    params = cfg.params
    x_enc = encode_array(X, params)
    t_enc = encode_array(np.asarray(t, dtype=np.float64), params)
    eta_enc = params.dtype(encode(cfg.eta, params))
    w = np.zeros(x_enc.shape[1], dtype=params.dtype)
    for _ in range(cfg.n_iter):
        z = exact_truncate(x_enc @ w, params)
        _check_field_overflow(z, params, "weighted sum")
        o = clipped_relu_fixed(z, params)
        grad = (t_enc - o)[:, None] * x_enc
        delta = exact_truncate(grad.sum(axis=0, dtype=params.dtype), params)
        _check_field_overflow(delta, params, "weight differential")
        w = w + exact_truncate(eta_enc * delta, params)
    return decode_array(w, params)


def train_secure(sess: Session, x_share: np.ndarray, t_share: np.ndarray,
                 cfg: TrainingConfig) -> np.ndarray:
    """Run the secure training protocol; returns this party's weight shares.

    X is wrapped once as a MaskedMatrix, so the first iteration's forward
    product also opens X - U; every iteration runs the rounds that
    :func:`iteration_steps` lists.
    """
    params = sess.params
    x_share = np.asarray(x_share, dtype=params.dtype)
    t_share = np.asarray(t_share, dtype=params.dtype)
    if x_share.ndim != 2 or t_share.ndim != 1 or x_share.shape[0] != t_share.shape[0]:
        raise ProtocolError(
            f"share dimension mismatch: X {x_share.shape}, labels {t_share.shape}"
        )
    x = MaskedMatrix(x_share)
    eta_enc = params.dtype(encode(cfg.eta, params))
    w = np.zeros(x.shape[1], dtype=params.dtype)
    for _ in range(cfg.n_iter):
        z = matmul(sess, x, w.reshape(-1, 1)).ravel()
        z = sess.truncate(z)
        o = batch_activate(sess, z)
        delta = batch_mul(sess, x, t_share - o)
        delta = sess.truncate(delta)
        w = w + sess.truncate(eta_enc * delta)
    return w


def predict_and_score(weights: np.ndarray, X: np.ndarray, t: np.ndarray) -> float:
    """Fraction of examples classified correctly at activation threshold 0.5."""
    o = clipped_relu(np.asarray(X, dtype=np.float64) @ np.asarray(weights, dtype=np.float64))
    predicted = (o >= 0.5).astype(np.int64)
    return float(np.mean(predicted == np.asarray(t, dtype=np.int64)))


@dataclass(frozen=True)
class Step:
    """One round of a training iteration: its phase (the tracer's span name),
    the (tag, meta) requests of the randomness records it starts to take, in
    the order it takes them and empty for a round that starts none, the
    64-bit words each party sends in its frame, and its ring and Z_2
    multiplications."""

    phase: str
    requests: tuple
    words: int
    ring: int = 0
    bit: int = 0


def iteration_steps(n: int, m1: int, params: FixedPointParams) -> list:
    """The rounds of one :func:`train_secure` iteration over n samples and m1
    weights, in order; every iteration runs the same rounds.  At the default
    12/15 precision they are 8: the forward product, 5 of the decomposition
    with its zero test (the setup round, which also finishes the network's
    first layer, and 4 network rounds), the conversion and the gradient."""
    a = params.frac_bits
    width = a + params.int_bits + 1  # the fractional, integer and sign bits of z'
    plan = cached_plan(width, a)
    row = word_count(n)  # words of one opened bit row, one bit per sample
    # one prefix-network record deals every product and AND gate below
    return [
        Step("engine.matmul", ((TAG_MATMUL, MatmulDims(n, m1, 1, MATMUL_REUSE)),), m1,
             ring=n * m1),
        # setup round: each party's own operand rows opened alone, from
        # which it finishes the network's first layer and the generate
        # signal of every other position that the test reads
        Step("bitops.decompose", ((TAG_PREFIXNET, (width, n, a)),),
             plan.setup_rows * row, bit=plan.setup_ands * n),
        # the network's rounds, which also carry the zero test's gates
        *(Step("bitops.decompose", (), layer.opened_rows * row, bit=layer.and_count * n)
          for layer in plan.rounds),
        # both bits are converted to ring shares against daBits, opened as two
        # rows; the same frame opens z' - v for d's daBit times z', against
        # the mask v and rho = r·v dealt with d's daBits
        Step("activation.convert", ((TAG_CONVERSION, DaBits(2, n, 1)),), 2 * row + n, ring=n),
        Step("engine.gradient", ((TAG_MATMUL, MatmulDims(n, m1, 1, MATMUL_REUSE_T)),), n,
             ring=n * m1),
    ]


def count_multiplications(n_samples: int, n_features: int, n_iter: int,
                          params: FixedPointParams) -> dict:
    """Closed-form tally of the secure multiplications one training run costs.

    `n_features` excludes the dummy column.  Returned per ring: plain ring
    multiplications and Z_2 bit multiplications.
    """
    steps = iteration_steps(n_samples, n_features + 1, params)
    ring = n_iter * sum(step.ring for step in steps)
    bit = n_iter * sum(step.bit for step in steps)
    return {"ring": ring, "bit": bit, "total": ring + bit}


def count_traffic(n_samples: int, n_features: int, n_iter: int,
                  params: FixedPointParams) -> dict:
    """Closed-form rounds and bytes that each party sends in one training run.

    `n_features` excludes the dummy column.  Every round sends one frame.
    `open_x_bytes` is the one-off opening of X - U, which rides in the first
    iteration's forward round; `iter_bytes` is what every iteration sends
    besides it, O(n + m1) words.
    """
    n, m1 = n_samples, n_features + 1
    steps = iteration_steps(n, m1, params)
    iter_bytes = sum(FRAME_HEADER.size + 8 * step.words for step in steps)
    open_x_bytes = 8 * n * m1 if n_iter else 0
    return {
        "rounds": n_iter * len(steps),
        "bytes": n_iter * iter_bytes + open_x_bytes,
        "open_x_bytes": open_x_bytes,
        "iter_bytes": iter_bytes,
    }


def training_randomness_requests(n_samples: int, n_features: int, cfg: TrainingConfig) -> list:
    """Request plan the trusted initializer uses to provision one training run.

    One mask record for X, then every iteration's records in the order its
    rounds take them, and nothing more: a run takes every unit it is dealt.
    Every record writes its pure masks as one 2-word seed (see
    `randomness.layout`), so the mask record is 2 words whatever n x m1,
    the record for X·w is 2 + n words and the one for Xᵀ·(t - o) 2 + m1.
    """
    if not cfg.n_iter:
        return []
    n, m1 = n_samples, n_features + 1
    per_iter = [request for step in iteration_steps(n, m1, cfg.params)
                for request in step.requests]
    return [(TAG_MATMUL, MatmulDims(n, m1, 0, MATMUL_MASK))] + per_iter * cfg.n_iter
