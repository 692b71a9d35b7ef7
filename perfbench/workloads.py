"""Benchmark workloads: shapes, learning rate and seeded synthetic data.

Shapes count the all-ones dummy column.  Every workload trains with the
smallest learning rate the default 12-fractional-bit encoding can express
(2^-12, one ulp), which keeps full gradient descent stable at all three
shapes, so the secure run tracks the plaintext fixed-point replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ETA = 2.0 ** -12
GRID = 256  # features are multiples of 1/GRID in [-1, 1], exact in fixed point


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int
    columns: int      # including the dummy column
    iterations: int
    toy: tuple        # (samples, columns, iterations) for the smoke test
    why: str

    def shape(self, toy: bool = False) -> tuple:
        return self.toy if toy else (self.samples, self.columns, self.iterations)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "tall", 16_000, 10, 20, (64, 10, 2),
            "16,000 activations per iteration: bit decomposition, OR tree, conversion "
            "and the per-frame digest dominate; the 10-column products are small",
        ),
        Workload(
            "wide", 225, 12_635, 3, (8, 300, 2),
            "the paper's genome shape: the two products over X carry almost all time, "
            "bytes and randomness, while the activation batch of 225 costs almost nothing",
        ),
        Workload(
            "long", 4_000, 10, 200, (32, 4, 12),
            "3,200 small rounds: per-round overhead and per-take randomness cost "
            "dominate; each bit-triple take shifts the whole remaining pool",
        ),
    )
}


def make_dataset(samples: int, columns: int, seed: int):
    """Features on the 1/GRID grid in [-1, 1] and labels from a random plane.

    Returns (features, labels); `features` excludes the dummy column.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x62656E63, int(seed)]))
    features = rng.integers(-GRID, GRID + 1, (samples, columns - 1)) / GRID
    plane = rng.normal(size=columns - 1)
    labels = (features @ plane > 0).astype(np.int64)
    return features, labels
