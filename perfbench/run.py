"""Training benchmark: runs one workload and prints its metrics.

Runs cycles of one workload in a fresh process (rep.py) for ``--seconds``,
checks every cycle, and prints the metrics by name with units.  The first
cycle of a process warms it up and is checked but not timed.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced cycles.
``--trace 1`` alternates traced and untraced cycles and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 60 --trace 0

Run it from the repository root; it imports mpclr from ``src/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, LAN, PER_LAYER, WAN
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT = 150.0    # no process gets a budget that ends after this many seconds


def run_process(root: Path, args, budget: float) -> list:
    """Cycles of one fresh process; a crash or timeout adds a failed attempt."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--budget", f"{budget:.3f}"]
    if args.toy:
        cmd.append("--toy")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    timeout = budget + 25
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return [{"problems": [f"process timed out after {timeout:.0f} s"]}]
    cycles = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    for c in cycles:
        if "train_s" in c:
            print(f"cycle warmup={int(c['warmup'])} traced={int(c['traced'])} "
                  f"setup_s={c['setup_s']:.3f} train_s={c['train_s']:.3f} "
                  f"train_wall_s={c['train_wall_s']:.3f} train_sys_s={c['train_sys_s']:.3f} "
                  f"train_faults={c['train_faults']} rss_mb={c['peak_rss_mb']:.0f}",
                  file=sys.stderr)
    if proc.returncode != 0 or not cycles:
        tail = proc.stderr.strip().splitlines()[-5:]
        cycles.append({"problems": [f"process exited with code {proc.returncode}: {tail}"]})
    return cycles


def run_cycles(root: Path, args) -> list:
    """Processes until --seconds have passed; another process starts only
    while there is time for its warm-up and a timed cycle."""
    cycles = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        budget = min(args.seconds - elapsed, TIME_LIMIT - elapsed)
        longest = max((c["wall_s"] for c in cycles if "wall_s" in c), default=0.0)
        if cycles and budget < 2.5 * longest:
            return cycles
        cycles += run_process(root, args, max(budget, 0.0))
        if any(c["problems"] and "train_s" not in c for c in cycles):
            return cycles  # a process crashed: do not start another


def end_to_end(cycles: list, warmups: list, n: int, iters: int) -> dict:
    """Medians over the timed untraced cycles; peak memory is that of the
    warm-up cycles, as in a process that sets up and trains once."""
    def med(fn):
        return statistics.median(fn(r) for r in cycles)

    def network(rtt, bandwidth):
        return med(lambda r: r["train_s"] + r["rounds"] * rtt + r["bytes_sent"] * 8 / bandwidth)

    return {
        "train_s": med(lambda r: r["train_s"]),
        "setup_s": med(lambda r: r["setup_s"]),
        "sample_iters_per_s": med(lambda r: n * iters / r["train_s"]),
        "sent_mb_per_iter": med(lambda r: r["bytes_sent"]) / 1e6 / iters,
        "rounds_per_iter": med(lambda r: r["rounds"]) / iters,
        "randomness_mb_per_iter": med(lambda r: r["stream_bytes"]) / 1e6 / iters,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in warmups),
        "lan_s": network(*LAN),
        "wan_s": network(*WAN),
    }


def per_layer(traced: list, untraced: list) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(r["train_s"] for r in traced)
                               - statistics.median(r["train_s"] for r in untraced))
    return out


def cross_checks(done: list) -> list:
    """Every cycle of one run, traced or not, must send the same bytes."""
    keys = ("rounds", "bytes_sent", "ring_mults", "bit_mults", "digests")
    first = {k: done[0][k] for k in keys}
    return [f"cycle {i} {'traced' if c['traced'] else 'untraced'} differs from "
            f"cycle 0 in {k}" for i, c in enumerate(done) for k in keys
            if c[k] != first[k]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mpclr training benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny shapes, for the smoke test")
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "mpclr" / "__init__.py").is_file():
        print(f"no mpclr sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    cycles = run_cycles(root, args)
    done = [c for c in cycles if "train_s" in c]
    failed = [c for c in cycles if c["problems"]]
    for c in failed:
        print("FAILED: " + "; ".join(c["problems"]), file=sys.stderr)
    if not done:
        print("no cycle completed", file=sys.stderr)
        return 1
    run_problems = cross_checks(done)
    for p in run_problems:
        print("FAILED: " + p, file=sys.stderr)

    untraced = [c for c in done if not c["traced"] and not c["warmup"]]
    traced = [c for c in done if c["traced"]]
    n, iters = done[0]["samples"], done[0]["iterations"]
    if not untraced or (args.trace and not traced):
        print("no timed cycle of each kind completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = per_layer(traced, untraced), PER_LAYER
    else:
        warmups = [c for c in done if c["warmup"]]
        metrics, units = end_to_end(untraced, warmups, n, iters), END_TO_END

    correct = not failed and not run_problems
    print(f"workload {args.workload}: {n} samples x {WORKLOADS[args.workload].shape(args.toy)[1]} "
          f"columns, {iters} iterations, seed {args.seed}; {len(untraced)} untraced and "
          f"{len(traced)} traced timed cycles, medians")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name][0]}")
    print(f"  {'failed_share':36s} {len(failed) / len(cycles):14.6g} ratio")
    wall = statistics.median(c["train_wall_s"] for c in untraced)
    print(f"  {'train_wall_s (not gated)':36s} {wall:14.6g} s")
    print(json.dumps({
        "correct": correct,
        "attempted": len(cycles),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
