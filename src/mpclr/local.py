"""Helpers for running both parties inside one process.

Local mode wires the two protocol threads together with an in-memory channel
pair that speaks the exact wire format, so transcripts are interchangeable
with networked runs.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from .engine import Session
from .fixedpoint import FixedPointParams
from .randomness import MaterializedSource, OnDemandSource
from .sharing import Role
from .transport import memory_channel_pair


def party_rng(master_seed: int, role: Role) -> np.random.Generator:
    """Per-party generator for protocol-local randomness (re-sharing)."""
    seq = np.random.SeedSequence([0x7061727479, int(master_seed) & (2 ** 64 - 1),
                                  0 if role is Role.ALICE else 1])
    return np.random.default_rng(seq)


def local_session_pair(params: FixedPointParams, seed: int = 0,
                       randomness_a: MaterializedSource | None = None,
                       randomness_b: MaterializedSource | None = None,
                       trunc_oracle=None):
    """Two sessions joined by an in-memory channel, dealer derived from seed."""
    ch_a, ch_b = memory_channel_pair()
    if randomness_a is None:
        randomness_a = OnDemandSource(seed, Role.ALICE, params)
    if randomness_b is None:
        randomness_b = OnDemandSource(seed, Role.BOB, params)
    sess_a = Session(Role.ALICE, ch_a, randomness_a, params,
                     rng=party_rng(seed, Role.ALICE), trunc_oracle=trunc_oracle)
    sess_b = Session(Role.BOB, ch_b, randomness_b, params,
                     rng=party_rng(seed, Role.BOB), trunc_oracle=trunc_oracle)
    return sess_a, sess_b


def run_pair(fn_a, fn_b, timeout: float = 120.0):
    """Run the two party closures on two threads; re-raise the first failure."""
    results = {}
    errors = {}

    def runner(name, fn):
        try:
            results[name] = fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller below
            errors[name] = exc

    ta = threading.Thread(target=runner, args=("A", fn_a), daemon=True)
    tb = threading.Thread(target=runner, args=("B", fn_b), daemon=True)
    ta.start()
    tb.start()
    deadline = time.monotonic() + timeout
    for thread in (ta, tb):
        thread.join(max(0.0, deadline - time.monotonic()))
    if ta.is_alive() or tb.is_alive():
        raise TimeoutError("party thread did not finish; protocol deadlock?")
    for name in ("A", "B"):
        if name in errors:
            raise errors[name]
    return results["A"], results["B"]
