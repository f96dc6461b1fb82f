#!/usr/bin/env python3
"""Run the benchmark twice over seeds 1-10 and check that the two sets agree.

    python3 perfbench/spread.py --workload random

Each set is ten sequential `--trace 0` runs of BENCHMARK.json's command, one
per seed 1-10, each for run_seconds. For every end-to-end metric and set this
prints the median, the quartiles and the spread (interquartile distance over
the median), and how much worse the second set's median is than the first's,
as a share of the first. A metric is over its bound when that drift exceeds
its bound, or when a set's spread does (setup_s is exempt from the spread
test). The last line is one JSON object with both sets' summaries, the
printed wallclock.* figures included; perfbench/baseline.json holds these
lines. The exit code is 1 when a run fails or a metric is over its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(spec, workload, seed):
    """One run: {name: value} from its printed lines."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180)
    if run.returncode != 0:
        sys.exit("seed %d failed (exit %d): %s"
                 % (seed, run.returncode, run.stderr[-2000:]))
    values = {}
    for line in run.stdout.strip().splitlines()[1:-1]:
        name, value, _unit = line.split()
        values[name] = float(value)
    return values


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    args = p.parse_args()

    sets = []
    for _ in range(SETS):
        runs = [run_once(spec, args.workload, seed) for seed in SEEDS]
        names = [m["name"] for m in spec["end_to_end"]]
        names += [n for n in runs[0] if n.startswith("wallclock.")]
        sets.append({name: summary([r[name] for r in runs])
                     for name in names})

    over = 0
    drifts = {}
    print("%-24s %12s %8s %12s %8s %8s %6s" % (
        "metric", "median 1", "spread 1", "median 2", "spread 2", "drift",
        "bound"))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = sets[0][name], sets[1][name]
        sign = 1 if metric["better"] == "lower" else -1
        drifts[name] = sign * (b["median"] - a["median"]) / a["median"]
        spreads = [s["spread"] for s in (a, b)] if name != "setup_s" else []
        flag = "ok"
        if drifts[name] > bound or any(x > bound for x in spreads):
            flag = "OVER"
            over += 1
        print("%-24s %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %5.0f%%  %s" % (
            name, a["median"], 100 * a["spread"], b["median"],
            100 * b["spread"], 100 * drifts[name], 100 * bound, flag))
    print(json.dumps({"workload": args.workload, "seeds": list(SEEDS),
                      "seconds": spec["run_seconds"], "sets": sets,
                      "drift": drifts}))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
