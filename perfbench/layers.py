"""Traced pass: per-layer metrics, timed from the benchmark's own files.

Nothing inside src/ is instrumented. Each layer is timed at its boundary:

  TimedHeap    a proxy around the heap handed to trace.replay; per-op latency
               of padovan, fibonacci and oracle.
  TimedArena   an Arena subclass passed as PadovanHeap(arena=...); calls into
               node_store and their time.
  CountingHeap a proxy that splits the arena's step counters by op call.
  StandInHeap  answers replay's calls from a table made in set-up, so only
               replay's own loop is timed.

trace and auditor functions are timed by direct calls. Every per-call time
has the calibrated cost of a perf_counter_ns pair (timer_overhead_ns)
subtracted. The exact counts (steps, ranks, degrees, roots, charges) come
from a counting pass that runs twice; per_layer reports whether both passes
agree.
"""

import gc
import statistics
from time import perf_counter, perf_counter_ns

from padovanheap import FibonacciHeap, Oracle, PadovanHeap
from padovanheap.auditor import (check_root_safety, check_size_bounds,
                                 check_structure, verify_tallies)
from padovanheap.node_store import Arena
from padovanheap.trace import replay

import harness

OPS = ("insert", "find_min", "delete_min", "decrease_key", "delete", "key_of")
ARENA_METHODS = ("alloc", "free", "detach", "push_front", "push_back",
                 "concat", "position_probe", "is_live")
COUNTERS = ("link_writes", "comparisons", "rank_steps", "placings")
# The step counters each op moves. Only find_min compares keys: insert only
# links, decrease_key and delete cut and cascade, and replay issues a `d` as
# find_min + delete_min, so delete_min's internal find_min sees the single
# root find_min left. On all three workloads that root was never dangerous,
# so delete_min spent only link writes.
OP_COUNTERS = {"insert": ("link_writes",),
               "find_min": COUNTERS,
               "delete_min": ("link_writes",),
               "decrease_key": ("link_writes", "rank_steps", "placings"),
               "delete": ("link_writes", "rank_steps", "placings")}
AUDIT_FUNCS = ("check_structure", "check_size_bounds", "verify_tallies",
               "check_root_safety")
_CONST_OPS = ("i", "f", "k")
_LOG_OPS = ("d", "x")
# per-op statistics reported for each heap
OP_STATS = {"padovan": ("calls", "ns_p50", "ns_p99", "ns_max", "ns_total"),
            "fibonacci": ("ns_p50", "ns_p99", "ns_total"),
            "oracle": ("ns_p50", "ns_total")}
HEAP_NEW_SAMPLES = 20_000
TIMER_SAMPLES = 200_000
REPLAY_LOOP_SAMPLES = 5
COUNT_PASSES = 2


def timer_overhead_ns():
    """Median cost of one perf_counter_ns pair."""
    pc = perf_counter_ns
    xs = []
    for _ in range(TIMER_SAMPLES):
        t0 = pc()
        xs.append(pc() - t0)
    return statistics.median(xs)


def _proxy(op):
    def method(self, *args):
        fn = getattr(self.heap, op)
        t0 = perf_counter_ns()
        r = fn(*args)
        t1 = perf_counter_ns()
        self.samples[op].append(t1 - t0)
        return r
    method.__name__ = op
    return method


class TimedHeap:
    """Proxy around the heap handed to replay(); records per-op latencies."""

    def __init__(self, heap, samples):
        self.heap = heap
        self.samples = samples

    insert = _proxy("insert")
    find_min = _proxy("find_min")
    delete_min = _proxy("delete_min")
    decrease_key = _proxy("decrease_key")
    delete = _proxy("delete")
    key_of = _proxy("key_of")


class TimedArena(Arena):
    """Arena that counts and times every call the heap makes into it."""

    def __init__(self):
        super().__init__()
        self.calls = dict.fromkeys(ARENA_METHODS, 0)
        self.ns = dict.fromkeys(ARENA_METHODS, 0)

    def _timed(self, name, fn, *args):
        t0 = perf_counter_ns()
        r = fn(*args)
        t1 = perf_counter_ns()
        self.ns[name] += t1 - t0
        self.calls[name] += 1
        return r

    def alloc(self, key):
        return self._timed("alloc", super().alloc, key)

    def free(self, v):
        return self._timed("free", super().free, v)

    def detach(self, v, owner=None):
        return self._timed("detach", super().detach, v, owner)

    def push_front(self, owner, v):
        return self._timed("push_front", super().push_front, owner, v)

    def push_back(self, owner, v):
        return self._timed("push_back", super().push_back, owner, v)

    def concat(self, target, donor):
        return self._timed("concat", super().concat, target, donor)

    def position_probe(self, v):
        return self._timed("position_probe", Arena.position_probe, v)

    def is_live(self, v):
        return self._timed("is_live", super().is_live, v)


def _counting(op):
    def method(self, *args):
        heap = self.heap
        if op == "find_min":
            self.roots_in.append(sum(1 for _ in heap.roots()))
        c = heap.arena.counters
        s0 = c.snapshot()
        r = getattr(heap, op)(*args)
        acc = self.by_op[op]
        for j, (a, b) in enumerate(zip(s0, c.snapshot())):
            acc[j] += b - a
        self.calls[op] += 1
        return r
    method.__name__ = op
    return method


class CountingHeap:
    """Proxy around a PadovanHeap that adds each call's step-counter deltas
    to by_op[op], and walks the roots before every find_min.

    A `d` event reaches it as one find_min call and one delete_min call, so
    each op is charged only for its own steps.
    """

    def __init__(self, heap, by_op, calls, roots_in):
        self.heap = heap
        self.by_op = by_op
        self.calls = calls
        self.roots_in = roots_in

    insert = _counting("insert")
    find_min = _counting("find_min")
    delete_min = _counting("delete_min")
    decrease_key = _counting("decrease_key")
    delete = _counting("delete")

    def key_of(self, h):
        return self.heap.key_of(h)


class _MinRecorder(Oracle):
    """Oracle that records, per find_min call, the insert ordinal it returns."""

    def __init__(self):
        super().__init__()
        self.first = None
        self.mins = []

    def insert(self, key):
        h = super().insert(key)
        if self.first is None:
            self.first = h
        return h

    def find_min(self):
        h = super().find_min()
        self.mins.append(h - self.first + 1)
        return h


class StandInHeap:
    """Answers find_min from a precomputed table; every other op is a no-op.

    Handles are insert ordinals, which is what the table holds.
    """

    def __init__(self, mins):
        self._next_min = iter(mins).__next__
        self._n = 0

    def insert(self, key):
        self._n += 1
        return self._n

    def find_min(self):
        return self._next_min()

    def key_of(self, h):
        return h

    def delete_min(self):
        return 0

    def decrease_key(self, h, key):
        pass

    def delete(self, h):
        pass


def _op_stats(samples, overhead):
    """{op: {stat: value}} for one traced pass, timer overhead subtracted."""
    out = {}
    for op, xs in samples.items():
        n = len(xs)
        if n == 0:
            out[op] = dict.fromkeys(("calls", "ns_p50", "ns_p99", "ns_max",
                                     "ns_total"), 0)
            continue
        xs.sort()
        out[op] = {"calls": n,
                   "ns_p50": xs[n // 2] - overhead,
                   "ns_p99": xs[min(n - 1, (99 * n) // 100)] - overhead,
                   "ns_max": xs[-1] - overhead,
                   "ns_total": sum(xs) - n * overhead}
    return out


def _traced_pass(cls, wl, checker, passes_out, overhead):
    """A callable that replays every trace through TimedHeap(cls())."""
    def one_pass():
        samples = {op: [] for op in OPS}
        for events, want in zip(wl.traces, wl.expected):
            checker.replay(TimedHeap(cls(), samples), events, want)
        passes_out.append(_op_stats(samples, overhead))
        return wl.events
    return one_pass


def _counting_pass(wl, checker):
    """Exact counts of one padovan, fibonacci and budget-audit pass.

    Returns (counts, node_store ns totals). Padovan runs on a TimedArena
    behind a CountingHeap, so its step counters are split by the op call
    that spent them.
    """
    counts = {}
    calls = dict.fromkeys(ARENA_METHODS, 0)
    ns = dict.fromkeys(ARENA_METHODS, 0)
    steps = [0] * len(COUNTERS)
    by_op = {op: [0] * len(COUNTERS) for op in OP_COUNTERS}
    op_calls = dict.fromkeys(OP_COUNTERS, 0)
    roots_in = []
    max_rank = 0
    for events, want in zip(wl.traces, wl.expected):
        arena = TimedArena()
        heap = PadovanHeap(arena=arena)
        checker.replay(CountingHeap(heap, by_op, op_calls, roots_in), events,
                       want)
        max_rank = max(max_rank, heap.max_rank_seen)
        for j, v in enumerate(arena.counters.snapshot()):
            steps[j] += v
        for m in ARENA_METHODS:
            calls[m] += arena.calls[m]
            ns[m] += arena.ns[m]
    for m in ARENA_METHODS:
        counts["node_store.%s.calls" % m] = calls[m]
    for j, name in enumerate(COUNTERS):
        counts["node_store.%s_per_op" % name] = steps[j] / wl.events
    counts["node_store.steps_per_op"] = sum(steps) / wl.events
    for op, names in OP_COUNTERS.items():
        for name in names:
            j = COUNTERS.index(name)
            counts["node_store.%s.%s_per_call" % (op, name)] = (
                by_op[op][j] / op_calls[op] if op_calls[op] else 0)
    counts["padovan.find_min.roots_in_mean"] = statistics.fmean(roots_in)
    counts["padovan.find_min.roots_in_max"] = max(roots_in)
    counts["padovan.max_rank"] = max_rank

    links = comparisons = max_degree = 0
    for events, want in zip(wl.traces, wl.expected):
        fib = FibonacciHeap()
        checker.replay(fib, events, want)
        links += fib.counters.link_writes
        comparisons += fib.counters.comparisons
        max_degree = max(max_degree, fib.max_degree_seen)
    counts["fibonacci.link_writes_per_op"] = links / wl.events
    counts["fibonacci.comparisons_per_op"] = comparisons / wl.events
    counts["fibonacci.max_degree"] = max_degree

    charges = []
    headroom = []
    for events in wl.traces:
        for op, _s, _dw, _n, charge, bound in checker.budget_audit(events):
            if op in _CONST_OPS:
                charges.append(charge)
            elif op in _LOG_OPS:
                headroom.append(bound - charge)
    counts["auditor.max_charge_const"] = max(charges)
    counts["auditor.min_headroom_log"] = min(headroom)
    return counts, ns


def _heap_new_ns(overhead):
    pc = perf_counter_ns
    xs = []
    for _ in range(HEAP_NEW_SAMPLES):
        t0 = pc()
        PadovanHeap()
        xs.append(pc() - t0)
    return statistics.median(xs) - overhead


def _replay_loop_ns_per_op(wl):
    """replay() against StandInHeap: replay's own cost per event."""
    tables = []
    for events in wl.traces:
        rec = _MinRecorder()
        replay(events, rec)
        tables.append(rec.mins)
    samples = []
    for _ in range(REPLAY_LOOP_SAMPLES):
        gc.collect()
        t0 = perf_counter()
        for events, mins in zip(wl.traces, tables):
            replay(events, StandInHeap(mins))
        samples.append((perf_counter() - t0) / wl.events * 1e9)
    return statistics.median(samples)


def _auditor_ns(wl, checker, overhead):
    """Per-call time of each audit function over the audited replays."""
    ns = dict.fromkeys(AUDIT_FUNCS, 0)
    calls = dict.fromkeys(AUDIT_FUNCS, 0)
    funcs = {"check_structure": check_structure,
             "check_size_bounds": check_size_bounds,
             "verify_tallies": verify_tallies,
             "check_root_safety": check_root_safety}
    vertices = []

    def timed(name, heap):
        t0 = perf_counter_ns()
        vs = funcs[name](heap)
        t1 = perf_counter_ns()
        ns[name] += t1 - t0
        calls[name] += 1
        return vs

    def state_audit(heap):
        # the same calls, in the same order, as audit_state
        vertices.append(heap.size)
        vs = timed("check_structure", heap)
        if not vs:
            vs = timed("check_size_bounds", heap)
            vs.extend(timed("verify_tallies", heap))
        return vs

    def root_audit(heap):
        return timed("check_root_safety", heap)

    for events, want in zip(wl.traces, wl.expected):
        checker.audited_replay(events, want, wl.audit_stride, state_audit,
                               root_audit)
    out = {"auditor.%s.ns_per_call" % f: (ns[f] / calls[f] - overhead
                                          if calls[f] else 0)
           for f in AUDIT_FUNCS}
    out["auditor.vertices_per_audit"] = statistics.fmean(vertices)
    return out


def _potentials_ns(wl, checker, overhead):
    """heap.potentials() timed twice per event, as audit_amortized calls it."""
    total = calls = 0
    for events, want in zip(wl.traces, wl.expected):
        heap = PadovanHeap()

        def observe(idx, ev):
            nonlocal total, calls
            t0 = perf_counter_ns()
            heap.potentials()
            t1 = perf_counter_ns()
            total += t1 - t0
            calls += 1

        checker.replay(heap, events, want, before=observe, after=observe)
    return total / calls - overhead


def per_layer(wl, seconds, checker):
    """Traced pass: ({metric: (value, unit)}, counts repeated exactly)."""
    overhead = timer_overhead_ns()
    traced = {impl: [] for impl in harness.HEAPS}
    contenders = {}
    for impl in ("padovan", "fibonacci"):
        contenders[impl] = harness.replay_pass(harness.HEAPS[impl], wl,
                                               checker)
    for impl, cls in harness.HEAPS.items():
        contenders["traced_" + impl] = _traced_pass(cls, wl, checker,
                                                    traced[impl], overhead)
    rates = {name: statistics.median(r for r, _ in s) for name, s in
             harness.measure(contenders, seconds).items()}

    m = {}
    phases = [statistics.median(p[j] for p in wl.phase_s) for j in range(3)]
    for j, name in enumerate(("gen", "format", "parse")):
        m["trace.%s_ns_per_event" % name] = (
            phases[j] / wl.events * 1e9, "ns")
    m["trace.replay_driver_ns_per_op"] = (_replay_loop_ns_per_op(wl), "ns")

    passes = []
    for _ in range(COUNT_PASSES):
        gc.collect()
        passes.append(_counting_pass(wl, checker))
    counts = passes[0][0]
    repeat = all(p[0] == counts for p in passes[1:])

    for impl, stats in OP_STATS.items():
        for op in OPS:
            for stat in stats:
                value = statistics.median(p[op][stat] for p in traced[impl])
                unit = "count" if stat == "calls" else "ns"
                m["%s.%s.%s" % (impl, op, stat)] = (value, unit)
        if impl == "padovan":
            m["padovan.heap_new_ns"] = (_heap_new_ns(overhead), "ns")
    for name, value in counts.items():
        m[name] = (value, "count")
    for meth in ARENA_METHODS:
        total = statistics.median(p[1][meth] for p in passes)
        m["node_store.%s.ns_total" % meth] = (
            total - counts["node_store.%s.calls" % meth] * overhead, "ns")
    for name, value in _auditor_ns(wl, checker, overhead).items():
        m[name] = (value, "count" if name.endswith("_per_audit") else "ns")
    m["auditor.potentials_ns_per_call"] = (
        _potentials_ns(wl, checker, overhead), "ns")
    m["padovan_over_fibonacci"] = (rates["padovan"] / rates["fibonacci"],
                                   "ratio")
    m["timer_overhead_ns"] = (overhead, "ns")
    m["tracing_overhead_frac"] = (
        rates["padovan"] / rates["traced_padovan"] - 1, "frac")
    return m, repeat
