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
    TAG_BIT,
    TAG_CONVERSION,
    TAG_MATMUL,
    TAG_PREFIXNET,
    TAG_SCALAR,
    MatmulDims,
)
from .transport import FRAME_HEADER

# Share of each pooled tag's planned use that the dealer adds as a tail, so
# statistical paths never starve mid-run.
POOL_SLACK = 0.05


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

    X is wrapped once as a MaskedMatrix: the first iteration's forward
    product also opens X - U, and afterwards each iteration sends m1 words
    for X·w and n words for the gradient Xᵀ·(t - o), plus the activation.
    Every iteration costs the same number of rounds.
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


def count_multiplications(n_samples: int, n_features: int, n_iter: int,
                          params: FixedPointParams) -> dict:
    """Closed-form tally of the secure multiplications one training run costs.

    `n_features` excludes the dummy column.  Returned per ring: plain ring
    multiplications and Z_2 bit multiplications.
    """
    m1 = n_features + 1
    width = params.frac_bits + params.int_bits + 2
    comps = len(cached_plan(width).compositions)
    ring_per_iter = n_samples * m1 * 2 + 4 * n_samples
    bit_per_iter = n_samples * (width + 2 * comps + (params.int_bits - 1))
    return {
        "ring": n_iter * ring_per_iter,
        "bit": n_iter * bit_per_iter,
        "total": n_iter * (ring_per_iter + bit_per_iter),
    }


def count_traffic(n_samples: int, n_features: int, n_iter: int,
                  params: FixedPointParams) -> dict:
    """Closed-form rounds and bytes that each party sends in one training run.

    `n_features` excludes the dummy column.  Every round sends one frame, a
    header plus 64-bit words; bit strings are packed into whole words each.
    `open_x_bytes` is the one-off opening of X - U, which rides in the first
    iteration's forward round; `iter_bytes` is what every iteration sends
    besides it, O(n + m1) words.
    """
    n, m1 = n_samples, n_features + 1
    width = params.frac_bits + params.int_bits + 2
    plan = cached_plan(width)

    def packed(nbits):
        return max(1, -(-nbits // 64))

    words = [m1, 2 * packed(width * n)]          # forward product, decomposition setup
    for layer in range(1, plan.depth + 1):
        published = len(plan.publish_at.get(layer, []))
        if published or plan.layers[layer - 1]:
            words.append(packed(2 * n * published))
    slices = params.int_bits
    while slices > 1:                            # OR tree, one level per round
        words.append(2 * packed(slices // 2 * n))
        slices -= slices // 2
    # re-share, conversion product, two activation products, gradient
    words += [2 * n, 4 * n, 2 * n, 2 * n, n]

    iter_bytes = len(words) * FRAME_HEADER.size + 8 * sum(words)
    open_x_bytes = 8 * n * m1 if n_iter else 0
    return {
        "rounds": n_iter * len(words),
        "bytes": n_iter * iter_bytes + open_x_bytes,
        "open_x_bytes": open_x_bytes,
        "iter_bytes": iter_bytes,
    }


def training_randomness_requests(n_samples: int, n_features: int, cfg: TrainingConfig) -> list:
    """Request plan the trusted initializer uses to provision one training run.

    Mirrors the consumption order of :func:`train_secure` exactly: one mask
    record for X, then per iteration a record that reuses it for X·w, the
    activation's records and a record that reuses it for Xᵀ·(t - o).  The
    mask is n x m1 words once; each reuse record is only n + m1 words.
    Pooled tags get a POOL_SLACK tail.
    """
    params = cfg.params
    m1 = n_features + 1
    width = params.frac_bits + params.int_bits + 2
    requests = [(TAG_MATMUL, MatmulDims(n_samples, m1, 0, MATMUL_MASK))] if cfg.n_iter else []
    for _ in range(cfg.n_iter):
        requests.append((TAG_MATMUL, MatmulDims(n_samples, m1, 1, MATMUL_REUSE)))
        requests.append((TAG_PREFIXNET, (width, n_samples)))
        if params.int_bits > 1:
            requests.append((TAG_BIT, (params.int_bits - 1) * n_samples))
        requests.append((TAG_CONVERSION, 2 * n_samples))
        requests.append((TAG_SCALAR, n_samples))
        requests.append((TAG_SCALAR, n_samples))
        requests.append((TAG_MATMUL, MatmulDims(n_samples, m1, 1, MATMUL_REUSE_T)))
    if cfg.n_iter:
        bit_total = (params.int_bits - 1) * n_samples * cfg.n_iter
        scalar_total = 2 * n_samples * cfg.n_iter
        conv_total = 2 * n_samples * cfg.n_iter
        if bit_total:
            requests.append((TAG_BIT, int(np.ceil(bit_total * POOL_SLACK))))
        requests.append((TAG_SCALAR, int(np.ceil(scalar_total * POOL_SLACK))))
        requests.append((TAG_CONVERSION, int(np.ceil(conv_total * POOL_SLACK))))
    return requests
