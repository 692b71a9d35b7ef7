"""Span tracing of mpclr's layers, installed from outside the package.

Modules import functions by name, so each wrapper replaces the name where
its caller looks it up: ``mpclr.training.matmul`` rather than
``mpclr.engine.matmul``.  Methods are wrapped on their class.  Every call of
a wrapped name records one span (name, party, parent span, start, end); phase
spans also record the transcript's round and byte deltas across the call.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
from contextlib import contextmanager

import mpclr.activation
import mpclr.engine
import mpclr.randomness
import mpclr.training
import mpclr.transport

# Protocol phases: (module, name looked up there, span name).  Together they
# cover every round of one training iteration.
PHASES = [
    (mpclr.training, "matmul", "engine.matmul"),
    (mpclr.training, "batch_mul", "engine.gradient"),
    (mpclr.activation, "decompose_batch_slices", "bitops.decompose"),
    (mpclr.activation, "or_tree_slices", "bitops.or_tree"),
    (mpclr.activation, "convert_bits_to_ring", "activation.convert"),
    (mpclr.activation, "batch_mul", "activation.mul"),
]
# Wraps the phases above; only its self time is reported.
ACTIVATION = (mpclr.training, "batch_activate", "activation")

# Leaf calls: (owner, attribute, span name).
LEAVES = [
    (mpclr.engine.Transcript, "record_send", "engine.digest"),
    (mpclr.engine, "encode_frame", "transport.encode"),
    (mpclr.transport, "decode_frame", "transport.decode"),
    (mpclr.randomness.MaterializedSource, "take_ring_triples", "randomness.take_ring"),
    (mpclr.randomness.MaterializedSource, "take_matmul_triple", "randomness.take_matmul"),
    (mpclr.randomness.MaterializedSource, "take_bit_triples", "randomness.take_bit"),
    (mpclr.randomness.MaterializedSource, "take_prefix_block", "randomness.take_prefix"),
]

TAG_NAMES = {
    mpclr.randomness.TAG_SCALAR: "scalar",
    mpclr.randomness.TAG_MATMUL: "matmul",
    mpclr.randomness.TAG_BIT: "bit",
    mpclr.randomness.TAG_CONVERSION: "conversion",
    mpclr.randomness.TAG_PREFIXNET: "prefixnet",
}


class Span:
    __slots__ = ("name", "party", "parent", "start", "end", "rounds", "nbytes", "tag", "units")

    def __init__(self, name, party, parent, start):
        self.name = name
        self.party = party
        self.parent = parent
        self.start = start
        self.end = start
        self.rounds = 0
        self.nbytes = 0
        self.tag = None
        self.units = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _take_units(name: str, args) -> tuple:
    """(tag name, units consumed) of one randomness take, from its arguments."""
    if name == "randomness.take_ring":
        tag = args[2] if len(args) > 2 else mpclr.randomness.TAG_SCALAR
        return TAG_NAMES[tag], int(args[1])
    if name == "randomness.take_bit":
        return "bit", int(args[1])
    if name == "randomness.take_matmul":
        return "matmul", 1
    return "prefixnet", 1


class Tracer:
    """Records spans per thread; the party of a thread is set by `party()`."""

    def __init__(self):
        self.spans: list = []
        self.recv_digests: dict = {}
        self._local = threading.local()
        self._undo: list = []

    # -- recording -------------------------------------------------------------

    def party(self, name: str):
        self._local.party = name
        self._local.stack = []
        self.recv_digests[name] = hashlib.sha256()

    @contextmanager
    def span(self, name: str, sess=None):
        stack = self._local.stack
        sp = Span(name, self._local.party, stack[-1] if stack else None, time.perf_counter())
        if sess is not None:
            r0, b0 = sess.transcript.rounds, sess.transcript.bytes_sent
        stack.append(sp)
        try:
            yield sp
        finally:
            stack.pop()
            sp.end = time.perf_counter()
            if sess is not None:
                sp.rounds = sess.transcript.rounds - r0
                sp.nbytes = sess.transcript.bytes_sent - b0
            self.spans.append(sp)

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def install(self):
        tracer = self

        def phase(name):
            def make(original):
                def wrapped(sess, *args, **kwargs):
                    with tracer.span(name, sess):
                        return original(sess, *args, **kwargs)
                return wrapped
            return make

        def leaf(name):
            is_take = name.startswith("randomness.take")

            def make(original):
                def wrapped(*args, **kwargs):
                    with tracer.span(name) as sp:
                        if is_take:
                            sp.tag, sp.units = _take_units(name, args)
                        return original(*args, **kwargs)
                return wrapped
            return make

        def recv(original):
            # The received-bytes digest is its own span, so it is charged to
            # neither the receive wait nor the enclosing phase.
            header = mpclr.transport.FRAME_HEADER
            magic = mpclr.transport.FRAME_MAGIC

            def wrapped(channel):
                with tracer.span("transport.recv"):
                    frame = original(channel)
                with tracer.span("trace.recv_digest"):
                    digest = tracer.recv_digests[tracer._local.party]
                    digest.update(header.pack(magic, frame.msg_type, len(frame.payload)))
                    digest.update(frame.payload)
                return frame
            return wrapped

        for owner, attr, name in PHASES + [ACTIVATION]:
            self._replace(owner, attr, phase(name))
        for owner, attr, name in LEAVES:
            self._replace(owner, attr, leaf(name))
        self._replace(mpclr.transport.MemoryChannel, "recv_frame", recv)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict:
    """Span -> duration minus the time its direct children cover."""
    covered = {}
    for sp in spans:
        if sp.parent is not None:
            covered[id(sp.parent)] = covered.get(id(sp.parent), 0.0) + sp.duration
    return {id(sp): sp.duration - covered.get(id(sp), 0.0) for sp in spans}


def enclosing_phase(sp, phase_names) -> str | None:
    """Name of the innermost phase span around `sp`, or None."""
    cur = sp.parent
    while cur is not None:
        if cur.name in phase_names:
            return cur.name
        cur = cur.parent
    return None
