#!/usr/bin/env python3
"""Replay-throughput benchmark for padovanheap.

Run from the repository root:

    python3 perfbench/run.py --workload random --seed 1 --seconds 24 --trace 0

For the chosen workload the benchmark generates its traces from the seed
(iter_workload -> format_trace -> parse_trace, timed as setup_s), then
replays them through trace.replay on a fresh PadovanHeap, FibonacciHeap and
Oracle, and through the two auditor paths, round-robin until --seconds have
passed. Every F/D output is checked against the oracle's, and every audit
and budget violation counts as a failed event. Load comes from this one
process and thread in a closed loop: the next event is sent only when the
previous one returns. Timed figures are calibrated for machine speed with
the frozen kernel in perfbench/reference.py; the plain wall-clock medians
are printed as wallclock.<metric>.

--trace 0 reports the end-to-end metrics (perfbench/harness.py); --trace 1
runs the traced pass (perfbench/layers.py) instead and reports the
per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 1 when any output
or count check fails, and when the package sources are missing from src/.
"""

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("random", "competition", "audit")


def load_package():
    """Put this checkout's src/ first on sys.path, or exit with code 1."""
    if not (SRC / "padovanheap" / "__init__.py").is_file():
        sys.exit("perfbench: no padovanheap sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import padovanheap
    if Path(padovanheap.__file__).resolve().parent != SRC / "padovanheap":
        sys.exit("perfbench: imported padovanheap from %s, not from %s"
                 % (padovanheap.__file__, SRC))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import harness
    import layers

    checker = harness.Checker()
    wl = harness.Workload(args.workload, args.seed)
    if not wl.roundtrip:
        print("format_trace -> parse_trace did not round-trip",
              file=sys.stderr)
        checker.failed += 1
    counts_repeat = True
    wallclock = {}
    if args.trace:
        metrics, counts_repeat = layers.per_layer(wl, args.seconds, checker)
        if not counts_repeat:
            print("counts differ between two traced passes", file=sys.stderr)
    else:
        metrics, wallclock = harness.end_to_end(wl, args.seconds, checker)
    correct = checker.failed == 0 and counts_repeat
    attempted = max(checker.attempted, 1)
    print("workload=%s seed=%d events=%d trace=%d"
          % (args.workload, args.seed, wl.events, args.trace))
    for name, (value, unit) in metrics.items():
        print("%-44s %16.6g %s" % (name, value, unit))
    for name, (value, unit) in wallclock.items():
        print("%-44s %16.6g %s" % ("wallclock." + name, value, unit))
    print("%-44s %16.6g %s" % ("failed_frac", checker.failed / attempted,
                               "frac"))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
