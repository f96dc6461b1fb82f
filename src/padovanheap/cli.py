"""Command-line front end: trace replay, workload generation, benchmarks.

Subcommands
    run <file> [--impl X] [--audit] [--differential] [--stats CSV] [--dot DOT]
    gen --mode M --n N [--seed S] [-o FILE]
    bench --impl X --mode M --n N [--seed S] --csv FILE

Exit codes: 0 success, 1 check or runtime failure, 2 usage/parse error.
run prints one line per f/d event with the returned key; those lines are
byte-identical across implementations for any valid trace.

run replays the trace in one loop: through --impl alone, or with
--differential through padovan, fibonacci and the oracle in that order,
each diffed against padovan's output. The first implementation is the
reference; --stats and --dot report on it, and --audit (padovan only)
audits it after every event: the state first, and the amortized budget
only on a state that passed, so a broken forest is reported, not walked.
"""

import argparse
import contextlib
import csv
import sys
from itertools import islice, zip_longest

from .auditor import (BudgetAudit, audit_state, check_root_safety, children,
                      iter_vertices)
from .errors import HeapError
from .fibonacci import FibonacciHeap
from .node_store import OUTER_PLACED, status_label
from .oracle import Oracle
from .padovan import PadovanHeap
from .trace import TraceError, format_trace, iter_workload, parse_trace, replay

CSV_HEADER = ["impl", "mode", "n", "ops", "total_steps", "max_rank",
              "steps_per_op", "phi0", "phi1", "phi2", "phi3", "phi4",
              "phi5", "phi6"]

# name -> class; --differential replays them in this order, padovan first
IMPLS = {"padovan": PadovanHeap, "fibonacci": FibonacciHeap, "oracle": Oracle}

MODES = ("random", "ascending", "competition")

GEN_CHUNK = 8192  # events that gen formats and writes at a time


def _stats_row(impl, mode, n, ops, heap):
    # the oracle's row: it does no pointer work worth modeling
    total = max_rank = 0
    phis = (0,) * 7
    if impl == "padovan":
        total = heap.arena.counters.total
        max_rank = heap.max_rank_seen
        phis = heap.potentials()
    elif impl == "fibonacci":
        total = heap.counters.total
        max_rank = heap.max_degree_seen
    per_op = (total / ops) if ops else 0.0
    return ([impl, mode, n, ops, total, max_rank, "%.6f" % per_op]
            + list(phis))


def _write_csv(path, row):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        w.writerow(row)


def write_dot(heap, stream):
    """Emit the padovan forest as DOT; outer children get dashed edges."""
    roots = set(heap.roots())
    stream.write("digraph padovan_forest {\n")
    stream.write("  node [shape=box];\n")
    for v in iter_vertices(heap):
        status = "-" if v in roots else status_label(v.status)
        stream.write('  n%d [label="%s/%d/%s"];\n'
                     % (id(v), v.key, v.rank, status))
        for w in children(v):
            dashed = " [style=dashed]" if w.status >= OUTER_PLACED else ""
            stream.write("  n%d -> n%d%s;\n" % (id(v), id(w), dashed))
    stream.write("}\n")


class _AuditFailure(Exception):

    def __init__(self, violations, index, event):
        super().__init__("audit failed at event %d (%r)" % (index, event))
        self.violations = violations
        self.index = index
        self.event = event


def _audited_replay(events, heap):
    """Replay with a full state audit and a budget check after every op."""
    budget = BudgetAudit(heap)

    def after(idx, ev):
        violations = audit_state(heap)
        if not violations:
            # potentials() trusts the root list: read it on a sound state
            budget.after(idx, ev)
        if ev[0] == "f":
            # the consolidated root must have been made safe
            violations.extend(check_root_safety(heap))
        violations.extend(budget.violations)  # this event's, if any
        if violations:
            raise _AuditFailure(violations, idx, ev)

    return replay(events, heap, after=after)


def _cmd_run(args):
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as e:
        print("cannot read trace: %s" % e, file=sys.stderr)
        return 2
    try:
        events = parse_trace(text)
    except TraceError as e:
        print(str(e), file=sys.stderr)
        return 2
    names = list(IMPLS) if args.differential else [args.impl]
    for flag in ("audit", "dot"):
        if getattr(args, flag) and names[0] != "padovan":
            print("--%s requires --impl padovan" % flag, file=sys.stderr)
            return 2
    n_inserts = sum(1 for ev in events if ev[0] == "i")

    out = heap = None
    try:
        for name in names:
            h = IMPLS[name]()
            if out is None:  # the first is the reference
                heap = h
                out = (_audited_replay if args.audit else replay)(events, h)
                continue
            got = replay(events, h)
            for i, (want, have) in enumerate(zip_longest(out, got)):
                if want != have:
                    print("differential mismatch at output %d: "
                          "padovan=%r %s=%r" % (i, want, name, have),
                          file=sys.stderr)
                    return 1
    except _AuditFailure as e:
        print("audit failed at event %d (%s):"
              % (e.index, " ".join(str(x) for x in e.event)),
              file=sys.stderr)
        for v in e.violations:
            print("  " + v.render(), file=sys.stderr)
        return 1
    except HeapError as e:
        print("replay failed: %s" % e, file=sys.stderr)
        return 1

    for key in out:
        print(key)
    if args.stats:
        _write_csv(args.stats, _stats_row(names[0], "trace", n_inserts,
                                          len(events), heap))
    if args.dot:
        with open(args.dot, "w") as fh:
            write_dot(heap, fh)
    return 0


def _cmd_gen(args):
    events = iter_workload(args.mode, args.n, args.seed)
    # each chunk's text ends in a newline, so the chunks concatenate to
    # format_trace of the whole trace
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        for chunk in iter(lambda: list(islice(events, GEN_CHUNK)), []):
            fh.write(format_trace(chunk))
    return 0


def _cmd_bench(args):
    heap = IMPLS[args.impl]()
    counted = [0]

    def events():
        for ev in iter_workload(args.mode, args.n, args.seed):
            counted[0] += 1
            yield ev

    try:
        replay(events(), heap, collect_output=False)
    except HeapError as e:
        print("replay failed: %s" % e, file=sys.stderr)
        return 1
    row = _stats_row(args.impl, args.mode, args.n, counted[0], heap)
    _write_csv(args.csv, row)
    print("impl=%s mode=%s n=%d ops=%d total_steps=%s steps_per_op=%s"
          % (args.impl, args.mode, args.n, counted[0], row[4], row[6]))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="padovan-heap",
        description="Padovan heap trace runner, workload generator, "
                    "and benchmark harness.")
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("run", help="replay a trace file")
    pr.add_argument("file")
    pr.add_argument("--impl", choices=IMPLS, default="padovan")
    pr.add_argument("--audit", action="store_true",
                    help="auditor checks + amortized budget after every op")
    pr.add_argument("--differential", action="store_true",
                    help="run all three implementations and diff the output")
    pr.add_argument("--stats", metavar="CSV",
                    help="write a one-row stats CSV")
    pr.add_argument("--dot", metavar="DOT",
                    help="write the final forest as a DOT graph")
    pr.set_defaults(func=_cmd_run)

    pg = sub.add_parser("gen", help="generate a workload trace")
    pg.add_argument("--mode", choices=MODES, required=True)
    pg.add_argument("--n", type=int, required=True,
                    help="ops (random), inserts (ascending), or rounds "
                         "(competition)")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("-o", "--out", metavar="FILE")
    pg.set_defaults(func=_cmd_gen)

    pb = sub.add_parser("bench", help="run a generated workload, write CSV")
    pb.add_argument("--impl", choices=IMPLS, default="padovan")
    pb.add_argument("--mode", choices=MODES, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--csv", required=True, metavar="CSV")
    pb.set_defaults(func=_cmd_bench)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", 1) < 1:
        parser.error("argument --n: must be at least 1, got %d" % args.n)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
