"""Benchmark cycles in one fresh process, run by run.py.

One cycle follows the file-mode deployment path through mpclr's public API:
the trusted initializer deals both parties' randomness
(``TrustedDealer.generate``), it is serialized to CRN1 streams, each party
loads its stream, and both parties train in local mode.  The process runs
cycles until its time budget is spent, checks each one and prints one JSON
line per cycle.  The first cycle warms the process up.  With ``--trace 1``
every other cycle has its layers wrapped (see tracing.py) and adds the
per-layer numbers of Alice's side.

    PYTHONPATH=src python3 perfbench/rep.py --workload tall --seed 1 --trace 0 --budget 20
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import time

import numpy as np

from mpclr import (
    Dataset,
    FixedPointParams,
    TrainingConfig,
    TrustedDealer,
    count_multiplications,
    decode_array,
    deserialize_stream,
    encode_array,
    local_session_pair,
    run_pair,
    serialize_stream,
    split_array,
    train_plain_fixed,
    train_secure,
    training_randomness_requests,
)
from mpclr.randomness import TAG_BIT, TAG_CONVERSION, TAG_SCALAR

from metrics import PHASE_NAMES, TAGS
from tracing import TAG_NAMES, Tracer, enclosing_phase, self_times
from workloads import ETA, WORKLOADS, make_dataset

SELF = resource.RUSAGE_SELF
POOLED = (TAG_SCALAR, TAG_CONVERSION, TAG_BIT)  # requests counted in units, not blocks


def provisioned_units(requests) -> dict:
    """Units the dealer provisions per tag: triples or bits for pooled tags,
    blocks for matmul and prefix-network records."""
    out = dict.fromkeys(TAGS, 0)
    for tag, meta in requests:
        out[TAG_NAMES[tag]] += int(meta) if tag in POOLED else 1
    return out


def stream_mb_per_tag(seed, params, requests, iters) -> dict:
    """Serialized CRN1 megabytes per party and iteration that each tag adds."""
    def size(reqs):
        src_a, _ = TrustedDealer(seed, params).generate(reqs)
        return len(serialize_stream(src_a))

    empty = size([])
    out = {}
    for tag, name in TAG_NAMES.items():
        reqs = [r for r in requests if r[0] == tag]
        out[name] = (size(reqs) - empty) / 1e6 / iters if reqs else 0.0
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Alice's per-layer numbers from the recorded spans."""
    spans = [sp for sp in tracer.spans if sp.party == "alice"]
    own = self_times(spans)
    phases = set(PHASE_NAMES)
    out = {}
    for phase in PHASE_NAMES:
        mine = [sp for sp in spans if sp.name == phase]
        out[f"{phase}.self_s"] = sum(own[id(sp)] for sp in mine)
        out[f"{phase}.wait_s"] = 0.0
        out[f"{phase}.rounds"] = sum(sp.rounds for sp in mine)
        out[f"{phase}.bytes"] = sum(sp.nbytes for sp in mine)

    def total(name, self_only=False):
        return sum(own[id(sp)] if self_only else sp.duration for sp in spans if sp.name == name)

    for sp in spans:
        if sp.name == "transport.recv":
            phase = enclosing_phase(sp, phases)
            if phase is not None:
                out[f"{phase}.wait_s"] += own[id(sp)]
    takes = [sp for sp in spans if sp.name.startswith("randomness.take")]
    out.update({
        "activation.self_s": total("activation", self_only=True),
        "training.self_s": total("training", self_only=True),
        "engine.digest_s": total("engine.digest"),
        "transport.recv_wait_s": total("transport.recv", self_only=True),
        "transport.frames": sum(1 for sp in spans if sp.name == "transport.encode"),
        "transport.frame_s": total("transport.encode") + total("transport.decode"),
        "randomness.take_bit_s": total("randomness.take_bit"),
        "randomness.take_s": sum(sp.duration for sp in takes),
    })

    # An iteration runs from one training-level matmul to the next.
    starts = sorted(sp.start for sp in spans
                    if sp.name == "engine.matmul" and sp.parent is not None
                    and sp.parent.name == "training")
    (train,) = [sp for sp in spans if sp.name == "training"]
    bounds = starts + [train.end]
    per_iter = [b - a for a, b in zip(bounds, bounds[1:])]
    k = max(1, len(per_iter) // 10)
    out["training.iter_s"] = statistics.median(per_iter)
    out["training.iter_growth"] = (sum(per_iter[-k:]) / k) / (sum(per_iter[:k]) / k)

    consumed = dict.fromkeys(TAGS, 0)
    for sp in takes:
        consumed[sp.tag] += sp.units
    out["consumed"] = consumed
    out["iterations_seen"] = len(per_iter)
    return out


def phase_totals(tracer: Tracer, party: str) -> tuple:
    spans = [sp for sp in tracer.spans if sp.party == party and sp.name in PHASE_NAMES]
    return sum(sp.rounds for sp in spans), sum(sp.nbytes for sp in spans)


class Prepared:
    """One workload's dataset, shares and request plan, made once per process."""

    def __init__(self, name: str, seed: int, toy: bool):
        self.n, self.m1, self.iters = WORKLOADS[name].shape(toy)
        self.seed = seed
        self.params = FixedPointParams()
        self.cfg = TrainingConfig(eta=ETA, n_iter=self.iters, params=self.params, seed=seed)
        features, labels = make_dataset(self.n, self.m1, seed)
        self.ds = Dataset.from_features(features, labels)
        table = np.hstack([self.ds.X, self.ds.t.reshape(-1, 1).astype(np.float64)])
        share_a, share_b = split_array(encode_array(table, self.params), self.params,
                                       np.random.default_rng([0x73706C69, seed]))
        self.alice = share_a.values[:, :-1], share_a.values[:, -1]
        self.bob = share_b.values[:, :-1], share_b.values[:, -1]
        self.requests = training_randomness_requests(self.n, self.m1 - 1, self.cfg)


def cycle(w: Prepared, traced: bool) -> tuple:
    """Set up and train once; returns (result, weights, tracer or None).

    Times are CPU seconds of this process (see README, Measurement notes);
    the wall-clock times of setup and training are reported beside them.
    Everything the cycle allocates is freed when it returns.
    """
    params = w.params
    c0, t0 = time.process_time(), time.perf_counter()
    src_a, src_b = TrustedDealer(w.seed, params).generate(w.requests)
    c1 = time.process_time()
    blob_a, blob_b = serialize_stream(src_a), serialize_stream(src_b)
    del src_a, src_b
    c2 = time.process_time()
    rnd_a, rnd_b = deserialize_stream(blob_a, params), deserialize_stream(blob_b, params)
    c3, t3 = time.process_time(), time.perf_counter()
    stream_bytes = len(blob_a)
    del blob_a, blob_b

    sess_a, sess_b = local_session_pair(params, seed=w.seed, randomness_a=rnd_a,
                                        randomness_b=rnd_b)
    del rnd_a, rnd_b
    tracer = Tracer() if traced else None

    def party(name, sess, x, t):
        if tracer is None:
            return train_secure(sess, x, t, w.cfg)
        tracer.party(name)
        with tracer.span("training", sess):
            return train_secure(sess, x, t, w.cfg)

    if tracer is not None:
        tracer.install()
    try:
        c4, t4, r4 = time.process_time(), time.perf_counter(), resource.getrusage(SELF)
        wa, wb = run_pair(lambda: party("alice", sess_a, *w.alice),
                          lambda: party("bob", sess_b, *w.bob))
        c5, t5, r5 = time.process_time(), time.perf_counter(), resource.getrusage(SELF)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = r5.ru_maxrss / 1024.0

    problems = []
    counted = count_multiplications(w.n, w.m1 - 1, w.iters, params)
    tr_a, tr_b = sess_a.transcript, sess_b.transcript
    for role, tr in (("alice", tr_a), ("bob", tr_b)):
        if (tr.ring_mults, tr.bit_mults) != (counted["ring"], counted["bit"]):
            problems.append(f"{role} multiplications {tr.ring_mults}/{tr.bit_mults} != "
                            f"count_multiplications {counted['ring']}/{counted['bit']}")
    if (tr_a.rounds, tr_a.bytes_sent) != (tr_b.rounds, tr_b.bytes_sent):
        problems.append(f"parties disagree: rounds {tr_a.rounds}/{tr_b.rounds}, "
                        f"bytes {tr_a.bytes_sent}/{tr_b.bytes_sent}")
    if tracer is not None:
        for role, sess, peer in (("alice", sess_a, "bob"), ("bob", sess_b, "alice")):
            rounds, nbytes = phase_totals(tracer, role)
            if (rounds, nbytes) != (sess.transcript.rounds, sess.transcript.bytes_sent):
                problems.append(f"{role} phases sum to {rounds} rounds / {nbytes} bytes, "
                                f"transcript has {sess.transcript.rounds} / "
                                f"{sess.transcript.bytes_sent}")
            if sess.transcript.sent_digest() != tracer.recv_digests[peer].hexdigest():
                problems.append(f"{role}'s sent_digest differs from the digest of what "
                                f"{peer} received")

    result = {
        "traced": traced,
        "samples": w.n, "iterations": w.iters,
        "deal_s": c1 - c0, "serialize_s": c2 - c1, "load_s": c3 - c2, "setup_s": c3 - c0,
        "setup_wall_s": t3 - t0,
        "train_s": c5 - c4, "train_wall_s": t5 - t4,
        "train_sys_s": r5.ru_stime - r4.ru_stime, "train_faults": r5.ru_minflt - r4.ru_minflt,
        "rounds": tr_a.rounds, "bytes_sent": tr_a.bytes_sent,
        "ring_mults": tr_a.ring_mults, "bit_mults": tr_a.bit_mults,
        "digests": [tr_a.sent_digest(), tr_b.sent_digest()],
        "stream_bytes": stream_bytes,
        "peak_rss_mb": rss_mb,
        "problems": problems,
    }
    return result, wa + wb, tracer


def check_weights(w: Prepared, weights) -> list:
    """The reconstructed weights against train_plain_fixed, within the
    truncation-noise envelope of acceptance criterion 8."""
    decoded = decode_array(weights, w.params)
    reference = train_plain_fixed(w.ds.X, w.ds.t, w.cfg)
    divergence = float(np.max(np.abs(decoded - reference)))
    envelope = w.params.ulp * w.iters * (2 + ETA * w.n * float(np.abs(w.ds.X).max()))
    if not divergence <= envelope:
        return [f"weights diverge from train_plain_fixed by {divergence} > {envelope}"]
    return []


def add_layers(w: Prepared, result: dict, tracer: Tracer, stream_mb: dict):
    """Alice's per-layer numbers of one traced cycle, into `result`."""
    layers = layer_metrics(tracer)
    if layers.pop("iterations_seen") != w.iters:
        result["problems"].append("traced iteration count differs from the configured one")
    provisioned = provisioned_units(w.requests)
    for tag in TAGS:
        used = layers["consumed"][tag]
        layers[f"randomness.used_share.{tag}"] = used / provisioned[tag] if provisioned[tag] else 0.0
    del layers["consumed"]
    for tag, mb in stream_mb.items():
        layers[f"randomness.mb.{tag}"] = mb
    for name in ("deal_s", "serialize_s", "load_s"):
        layers[f"randomness.{name}"] = result[name]
    result["layers"] = layers


def run(workload: str, seed: int, trace: bool, budget: float, toy: bool = False):
    """Yield one checked result per cycle until `budget` seconds have passed.

    The first cycle warms the process up and is not timed.  Under `trace`
    the timed cycles alternate traced and untraced, starting traced.  Every
    cycle must produce the first cycle's weights, counts and digests.
    """
    start = time.perf_counter()
    w = Prepared(workload, seed, toy)
    stream_mb = None
    first = None
    longest = 0.0
    minimum = 3 if trace else 2
    for k in itertools.count():
        elapsed = time.perf_counter() - start
        if k >= minimum and elapsed + 1.2 * longest > budget:
            return
        traced = bool(trace) and k % 2 == 1
        t0 = time.perf_counter()
        result, weights, tracer = cycle(w, traced)
        if first is None:
            result["problems"] += check_weights(w, weights)
            first = result, weights
        else:
            ref, ref_weights = first
            if not np.array_equal(weights, ref_weights):
                result["problems"].append("weights differ from the first cycle's")
            for key in ("rounds", "bytes_sent", "ring_mults", "bit_mults", "digests"):
                if result[key] != ref[key]:
                    result["problems"].append(f"{key} differs from the first cycle's")
        if tracer is not None:
            if stream_mb is None:
                stream_mb = stream_mb_per_tag(seed, w.params, w.requests, w.iters)
            add_layers(w, result, tracer, stream_mb)
        del tracer
        gc.collect()
        result["warmup"] = k == 0
        result["wall_s"] = time.perf_counter() - t0
        longest = max(longest, result["wall_s"])
        yield result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, required=True,
                    help="start no cycle that would end after this many seconds")
    ap.add_argument("--toy", action="store_true", help="tiny shapes, for the smoke test")
    args = ap.parse_args(argv)
    # Both party threads share one GIL; on one CPU their hand-offs do not wait
    # for a second CPU to be scheduled, which keeps times steady on a shared
    # host.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for result in run(args.workload, args.seed, bool(args.trace), args.budget, args.toy):
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
