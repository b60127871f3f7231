"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload read-hot --seed 7 --seconds 30 \\
        --trace 0

From the repository root.  ``--trace 0`` times every mode
configuration round-robin and prints the end-to-end metrics;
``--trace 1`` runs the traced pass and prints the per-layer metrics
(plus a Chrome trace under ``perfbench/out/``).  Every sample's output
is checked against a stream-order serial oracle; a failed check exits
1 without printing a result.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh processes ``setup_s`` is the median of.
SETUP_PROBES = 7


def _paths() -> None:
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup_probe(workload: str, seed: int) -> float:
    """Wall seconds from starting a fresh process until it has imported
    every backend and materialised its streams."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline().strip()
        ready = time.perf_counter()
        child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait(timeout=60)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return ready - started


def timed(args, setup, oracles) -> tuple[dict, int, int]:
    """The end-to-end pass; ``(metrics, attempted, failed)``."""
    from perfbench.metrics import end_to_end, host_speed, quartiles, raw_tps
    from perfbench.suite import TIMED_CONFIGS, timed_rounds

    timings = timed_rounds(
        setup, oracles, args.seconds, probes=SETUP_PROBES,
        probe=lambda: setup_probe(args.workload, args.seed),
    )
    print(f"{args.workload} seed {args.seed}: "
          f"{len(setup.streams)} streams of "
          f"{len(setup.streams[0].items)} txns, {timings.rounds} rounds, "
          f"host speed factor {host_speed(timings):.3f}")
    print("  raw wall-clock throughput (uncorrected):")
    for config in TIMED_CONFIGS:
        tps = raw_tps(timings, config)
        q1, med, q3 = quartiles(tps)
        lost = sum(timings.expected[config]) - sum(timings.committed[config])
        print(f"  {config:<20} n={len(tps):<3} txn/s median {med:9.1f} "
              f"q1 {q1:9.1f} q3 {q3:9.1f}  lost {lost}")
    # Attempted: the transactions the oracle commits, summed over every
    # sample; failed: those a mode did not commit (gave up or cascaded).
    # Injected logic aborts are the workload's intent, in neither.
    attempted = sum(sum(v) for v in timings.expected.values())
    failed = attempted - sum(sum(v) for v in timings.committed.values())
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return end_to_end(timings, peak_rss_mb), attempted, failed


def traced(args, setup, oracles) -> tuple[dict, int, int]:
    """The per-layer pass; ``(metrics, attempted, failed)``."""
    from perfbench.tracing import traced_pass

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}.trace.json.gz"
    )
    metrics, samples, lost = traced_pass(
        setup, oracles, args.seconds, trace_path
    )
    print(f"{args.workload} seed {args.seed}: chrome trace {trace_path}")
    return metrics, samples * len(oracles[0].committed), lost


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the "
              "repository root of a full checkout", file=sys.stderr)
        return 2
    _paths()
    from perfbench.suite import (
        WORKLOADS,
        CheckFailed,
        build,
        oracles_for,
        warm_up,
    )

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup = build(args.workload, args.seed)
    oracles = oracles_for(setup)
    # The streams and oracles live as long as the run; freezing them
    # keeps the collector from re-scanning them in every sample, so a
    # sample's GC cost is the program's own.
    gc.collect()
    gc.freeze()
    try:
        warm_up(setup, oracles)
        run = traced if args.trace else timed
        metrics, attempted, failed = run(args, setup, oracles)
    except CheckFailed as error:
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
        return 1
    from perfbench.metrics import END_TO_END, HARNESS, PER_LAYER

    units = dict(END_TO_END) if not args.trace else {
        **{layer.name: layer.unit for layer in PER_LAYER}, **dict(HARNESS),
    }
    for name, value in metrics.items():
        print(f"  {name:<46} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
