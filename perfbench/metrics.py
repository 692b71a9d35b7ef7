"""Metric names, units and directions, shared by run.py, the repetition
process and the smoke test (which checks them against BENCHMARK.json)."""

from __future__ import annotations

# Network model presets: (round-trip time in seconds, bandwidth in bit/s).
LAN = (0.2e-3, 1e9)
WAN = (40e-3, 100e6)

# name -> (unit, better); all measured with tracing off.
END_TO_END = {
    "train_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "sample_iters_per_s": ("1/s", "higher"),
    "sent_mb_per_iter": ("MB", "lower"),
    "rounds_per_iter": ("count", "lower"),
    "randomness_mb_per_iter": ("MB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "lan_s": ("s", "lower"),
    "wan_s": ("s", "lower"),
}

PHASE_NAMES = [
    "engine.matmul",
    "engine.gradient",
    "bitops.decompose",
    "bitops.or_tree",
    "activation.convert",
    "activation.mul",
]
TAGS = ["scalar", "matmul", "bit", "conversion", "prefixnet"]


def _layer_metrics() -> dict:
    out = {}
    for phase in PHASE_NAMES:
        out[f"{phase}.self_s"] = ("s", "lower")
        out[f"{phase}.wait_s"] = ("s", "lower")
        out[f"{phase}.rounds"] = ("count", "lower")
        out[f"{phase}.bytes"] = ("B", "lower")
    out.update({
        "activation.self_s": ("s", "lower"),
        "training.self_s": ("s", "lower"),
        "training.iter_s": ("s", "lower"),
        "training.iter_growth": ("ratio", "lower"),
        "engine.digest_s": ("s", "lower"),
        "transport.recv_wait_s": ("s", "lower"),
        "transport.frames": ("count", "lower"),
        "transport.frame_s": ("s", "lower"),
        "randomness.take_bit_s": ("s", "lower"),
        "randomness.take_s": ("s", "lower"),
        "randomness.deal_s": ("s", "lower"),
        "randomness.serialize_s": ("s", "lower"),
        "randomness.load_s": ("s", "lower"),
    })
    for tag in TAGS:
        out[f"randomness.mb.{tag}"] = ("MB", "lower")
    for tag in TAGS:
        out[f"randomness.used_share.{tag}"] = ("ratio", "higher")
    out["trace.overhead_s"] = ("s", "lower")
    return out


PER_LAYER = _layer_metrics()
