"""Helpers for running both parties inside one process.

Local mode wires the two protocol threads together with an in-memory channel
pair that speaks the exact wire format, so transcripts are interchangeable
with networked runs.  A run has no overall deadline, so it may take as long
as its iterations need: every wait inside a party is bounded on its own
(a channel's receive, the truncation oracle's rendezvous), and a failing
party closes its channel, so a stuck or failed peer still ends the run.
"""

from __future__ import annotations

import threading

from .engine import Session
from .fixedpoint import FixedPointParams
from .randomness import MaterializedSource, OnDemandSource
from .sharing import Role
from .transport import memory_channel_pair


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
    sess_a = Session(Role.ALICE, ch_a, randomness_a, params, trunc_oracle=trunc_oracle)
    sess_b = Session(Role.BOB, ch_b, randomness_b, params, trunc_oracle=trunc_oracle)
    return sess_a, sess_b


def run_pair(fn_a, fn_b):
    """Run the two party closures on two threads; re-raise the earliest failure."""
    return run_sessions(None, None, lambda _: fn_a(), lambda _: fn_b())


def run_sessions(sess_a: Session | None, sess_b: Session | None, fn_a, fn_b):
    """Run fn_a(sess_a) and fn_b(sess_b) on two threads until both end, with
    no deadline; re-raise the earliest failure.  A failing party closes its
    channel once its failure is recorded, so its peer fails next, at its
    next receive, not at the channel's timeout."""
    results = [None, None]
    failures = []  # in the order the parties failed

    def runner(index, sess, fn):
        try:
            results[index] = fn(sess)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller below
            failures.append(exc)
            if sess is not None:
                sess.channel.close()

    threads = [threading.Thread(target=runner, args=(0, sess_a, fn_a), daemon=True),
               threading.Thread(target=runner, args=(1, sess_b, fn_b), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return tuple(results)
