"""Command-line front end: trace replay, workload generation, benchmarks.

Subcommands
    run <file> [--impl X] [--audit] [--differential] [--stats CSV] [--dot DOT]
    gen --mode M --n N [--seed S] [-o FILE]
    bench --impl X --mode M --n N [--seed S] --csv FILE

Exit codes: 0 success, 1 check or runtime failure, 2 usage/parse error.
run prints one line per f/d event with the returned key; those lines are
byte-identical across implementations for any valid trace.
"""

import argparse
import contextlib
import csv
import sys
from itertools import islice, zip_longest

from .auditor import BudgetAudit, audit_state, check_root_safety, children
from .errors import HeapError
from .fibonacci import FibonacciHeap
from .node_store import OUTER_PLACED, STATUS_NAMES
from .oracle import Oracle
from .padovan import PadovanHeap
from .trace import TraceError, format_trace, iter_workload, parse_trace, replay

CSV_HEADER = ["impl", "mode", "n", "ops", "total_steps", "max_rank",
              "steps_per_op", "phi0", "phi1", "phi2", "phi3", "phi4",
              "phi5", "phi6"]

IMPLS = ("padovan", "fibonacci", "oracle")

GEN_CHUNK = 8192  # events that gen formats and writes at a time


def _make_heap(impl):
    if impl == "padovan":
        return PadovanHeap()
    if impl == "fibonacci":
        return FibonacciHeap()
    return Oracle()


def _stats_row(impl, mode, n, ops, heap):
    if impl == "padovan":
        total = heap.arena.counters.total
        max_rank = heap.max_rank_seen
        phis = heap.potentials()
    elif impl == "fibonacci":
        total = heap.counters.total
        max_rank = heap.max_degree_seen
        phis = (0,) * 7
    else:  # the oracle does no pointer work worth modeling
        total = 0
        max_rank = 0
        phis = (0,) * 7
    per_op = (total / ops) if ops else 0.0
    return ([impl, mode, n, ops, total, max_rank, "%.6f" % per_op]
            + list(phis))


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for row in rows:
            w.writerow(row)


def write_dot(heap, stream):
    """Emit the padovan forest as DOT; outer children get dashed edges."""
    stream.write("digraph padovan_forest {\n")
    stream.write("  node [shape=box];\n")
    for root in heap.roots():
        stack = [(root, True)]
        while stack:
            v, is_root = stack.pop()
            status = "-" if is_root else STATUS_NAMES[v.status]
            stream.write('  n%d [label="%s/%d/%s"];\n'
                         % (id(v), v.key, v.rank, status))
            for w in children(v):
                dashed = " [style=dashed]" if w.status >= OUTER_PLACED else ""
                stream.write("  n%d -> n%d%s;\n" % (id(v), id(w), dashed))
                stack.append((w, False))
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
        budget.after(idx, ev)
        violations = audit_state(heap)
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
    if args.audit and not args.differential and args.impl != "padovan":
        print("--audit requires --impl padovan", file=sys.stderr)
        return 2
    if args.dot and not args.differential and args.impl != "padovan":
        print("--dot requires --impl padovan", file=sys.stderr)
        return 2
    n_inserts = sum(1 for ev in events if ev[0] == "i")

    try:
        if args.differential:
            outputs = {}
            heaps = {}
            for impl in IMPLS:
                heaps[impl] = _make_heap(impl)
                if impl == "padovan" and args.audit:
                    outputs[impl] = _audited_replay(events, heaps[impl])
                else:
                    outputs[impl] = replay(events, heaps[impl])
            ref = outputs["padovan"]
            for impl in ("fibonacci", "oracle"):
                for i, (want, got) in enumerate(
                        zip_longest(ref, outputs[impl])):
                    if want != got:
                        print("differential mismatch at output %d: "
                              "padovan=%r %s=%r" % (i, want, impl, got),
                              file=sys.stderr)
                        return 1
            heap = heaps["padovan"]
            impl_name = "padovan"
            out = ref
        else:
            impl_name = args.impl
            heap = _make_heap(impl_name)
            if args.audit:
                out = _audited_replay(events, heap)
            else:
                out = replay(events, heap)
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
        _write_csv(args.stats, [_stats_row(impl_name, "trace", n_inserts,
                                           len(events), heap)])
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
    heap = _make_heap(args.impl)
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
    _write_csv(args.csv, [row])
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
    pg.add_argument("--mode", choices=("random", "ascending", "competition"),
                    required=True)
    pg.add_argument("--n", type=int, required=True,
                    help="ops (random), inserts (ascending), or rounds "
                         "(competition)")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("-o", "--out", metavar="FILE")
    pg.set_defaults(func=_cmd_gen)

    pb = sub.add_parser("bench", help="run a generated workload, write CSV")
    pb.add_argument("--impl", choices=IMPLS, default="padovan")
    pb.add_argument("--mode", choices=("random", "ascending", "competition"),
                    required=True)
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
