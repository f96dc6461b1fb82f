"""Workloads, output checks and the untimed/timed end-to-end pass.

Imported by run.py once src/ is on sys.path.
"""

import gc
import random
import statistics
import traceback
import tracemalloc
from time import perf_counter

from padovanheap import FibonacciHeap, Oracle, PadovanHeap
from padovanheap.auditor import audit_amortized, audit_state, check_root_safety
from padovanheap.trace import format_trace, iter_workload, parse_trace, replay

import reference

RANDOM_OPS = 100_000
# competition ignores its seed, so the seed picks the round count instead:
# distinct seeds then give distinct traces (4 events per round).
COMPETITION_ROUNDS = 25_000
COMPETITION_JITTER = 1_000
# (traces, ops per trace): short random traces as in criteria 2/3/8. Four
# 1000-op traces stand in for the gate's 2000-op ones: a single 2000-op trace
# took most of the audited time, so its seed-dependent heap size spread
# audited_ops_per_s by 16% over seeds.
AUDIT_PLAN = ((100, 100), (4, 500), (4, 1000))
# The per-state audit walks the whole forest, so on the two long workloads
# the audited replay audits only the state after every AUDIT_STRIDE-th event
# (a prime, so competition's period-4 rounds are sampled at every event kind).
AUDIT_STRIDE = 4_999
SETUP_REPEATS = 3
# FibonacciHeap keeps live node ids in a set; whether a resize of that set
# lands near the end of a replay depends on node addresses, so its peak
# varies between passes by one set table (0.5 or 1 MiB). The lowest of three
# passes removes that; padovan's peak repeats exactly.
PEAK_PASSES = {"padovan": 1, "fibonacci": 3}
# Short replays (the oracle's, the audit workload's) are repeated inside one
# sample until it lasts this long, so every contender gets about the same
# share of the run and short timings are as steady as padovan's.
MIN_SAMPLE_S = 1.0
MIN_ROUNDS = 3

HEAPS = {"padovan": PadovanHeap, "fibonacci": FibonacciHeap,
         "oracle": Oracle}

E2E_UNITS = {
    "padovan_ops_per_s": "ops/s",
    "fibonacci_ops_per_s": "ops/s",
    "oracle_ops_per_s": "ops/s",
    "audited_ops_per_s": "ops/s",
    "budget_audit_ops_per_s": "ops/s",
    "setup_s": "s",
    "padovan_peak_mib": "MiB",
    "fibonacci_peak_mib": "MiB",
}


def trace_specs(workload, seed):
    """(mode, n, seed) for each trace of the workload; a pure function of seed."""
    if workload == "random":
        return [("random", RANDOM_OPS, seed)]
    rng = random.Random(seed)
    if workload == "competition":
        rounds = COMPETITION_ROUNDS + rng.randrange(COMPETITION_JITTER)
        return [("competition", rounds, seed)]
    return [("random", n_ops, rng.randrange(2 ** 31))
            for count, n_ops in AUDIT_PLAN for _ in range(count)]


def set_up(specs):
    """One gen -> format -> parse pass: (traces, seconds per phase, roundtrip ok)."""
    phases = [0.0, 0.0, 0.0]
    traces = []
    roundtrip = True
    for mode, n, seed in specs:
        t0 = perf_counter()
        events = list(iter_workload(mode, n, seed))
        t1 = perf_counter()
        text = format_trace(events)
        t2 = perf_counter()
        parsed = parse_trace(text)
        t3 = perf_counter()
        phases[0] += t1 - t0
        phases[1] += t2 - t1
        phases[2] += t3 - t2
        roundtrip = roundtrip and parsed == events
        traces.append(parsed)
    return traces, phases, roundtrip


class Workload:
    """The workload's traces, their oracle outputs and its set-up times."""

    def __init__(self, name, seed):
        specs = trace_specs(name, seed)
        self.setup_s = []
        self.phase_s = []
        self.roundtrip = True
        self.setup_wall_s = []
        kernel = reference.Kernel()
        ref_before = kernel.speed()
        for _ in range(SETUP_REPEATS):
            self.traces = None  # hold no traces from the previous repeat
            gc.collect()
            t0 = perf_counter()
            self.traces, phases, ok = set_up(specs)
            wall = perf_counter() - t0
            ref_after = kernel.speed()
            self.setup_wall_s.append(wall)
            self.setup_s.append(wall / calibration(ref_before, ref_after))
            ref_before = ref_after
            self.phase_s.append(phases)
            self.roundtrip = self.roundtrip and ok
        self.events = sum(len(t) for t in self.traces)
        self.expected = [replay(t, Oracle()) for t in self.traces]
        self.audit_stride = 1 if name == "audit" else AUDIT_STRIDE


class Checker:
    """Counts attempted and failed events over every checked replay.

    An event fails when its F/D output differs from the oracle's, when the
    replay raises (then every event of the trace counts as failed), or when
    an audit or budget check flags it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def replay(self, heap, events, want, before=None, after=None):
        self.attempted += len(events)
        try:
            got = replay(events, heap, before=before, after=after)
        except Exception:
            traceback.print_exc()
            self.failed += len(events)
            return
        if got != want:
            self.failed += (sum(a != b for a, b in zip(got, want))
                            + abs(len(got) - len(want)))

    def budget_audit(self, events):
        """audit_amortized on one trace; returns its stats rows."""
        rows = []
        self.attempted += len(events)
        try:
            self.failed += len(audit_amortized(events, stats_out=rows))
        except Exception:
            traceback.print_exc()
            self.failed += len(events)
        return rows

    def audited_replay(self, events, want, stride,
                       state_audit=audit_state, root_audit=check_root_safety):
        """Padovan replay that audits the state after every stride-th event.

        With stride 1 this is what `padovan-heap run --audit` and the
        acceptance gate do: audit_state after every event and
        check_root_safety after every f. With a larger stride, root safety
        is checked at the first f at or after each audited state. An event
        whose state shows any violation counts as failed.
        """
        heap = PadovanHeap()
        last = stride - 1
        root_due = False

        def after(idx, ev):
            nonlocal root_due
            vs = []
            if idx % stride == last:
                vs = state_audit(heap)
                root_due = True
            if root_due and ev[0] == "f":
                vs.extend(root_audit(heap))
                root_due = False
            if vs:
                self.failed += 1

        self.replay(heap, events, want, after=after)


def measure(contenders, seconds):
    """Round-robin the contenders for `seconds`.

    Each contender is a callable that makes one pass and returns the number
    of events it replayed. One sample repeats passes until MIN_SAMPLE_S has
    passed; the cyclic collector runs before every sample. The reference
    kernel runs between samples, so every sample has a kernel speed right
    before and right after it.

    Returns {name: [(events/s, calibrated events/s), ...]}, where the
    calibrated figure scales the sample by REFERENCE_EVENTS_PER_S over the
    mean of its two kernel speeds.
    """
    kernel = reference.Kernel()
    samples = {name: [] for name in contenders}
    deadline = perf_counter() + seconds
    rounds = 0
    gc.collect()
    ref_before = kernel.speed()
    while True:
        start = perf_counter()
        for name, one_pass in contenders.items():
            gc.collect()
            events = 0
            t0 = perf_counter()
            while True:
                events += one_pass()
                dt = perf_counter() - t0
                if dt >= MIN_SAMPLE_S:
                    break
            gc.collect()
            ref_after = kernel.speed()
            rate = events / dt
            samples[name].append((rate, rate * calibration(ref_before,
                                                           ref_after)))
            ref_before = ref_after
        rounds += 1
        now = perf_counter()
        # stop when one more round would end over half a round late
        if rounds >= MIN_ROUNDS and now + (now - start) / 2 >= deadline:
            return samples


def calibration(*kernel_speeds):
    """Factor that scales an events/s figure to the reference speed."""
    return reference.REFERENCE_EVENTS_PER_S / statistics.fmean(kernel_speeds)


def replay_pass(make_heap, wl, checker):
    """A callable that replays every trace of wl on fresh heaps."""
    def one_pass():
        for events, want in zip(wl.traces, wl.expected):
            checker.replay(make_heap(), events, want)
        return wl.events
    return one_pass


def peak_mib(cls, wl, checker):
    """Mean tracemalloc peak of one replay, in its own untimed pass.

    The mean over the workload's traces, not the largest: on `audit` the
    largest is one small trace's, where a single container resize moves it
    by a third.
    """
    total = 0
    for events, want in zip(wl.traces, wl.expected):
        gc.collect()
        tracemalloc.start()
        try:
            checker.replay(cls(), events, want)
            total += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return total / len(wl.traces) / 2 ** 20


def end_to_end(wl, seconds, checker):
    """Untraced pass: {metric: (value, unit)} for every end-to-end metric."""
    contenders = {impl: replay_pass(cls, wl, checker)
                  for impl, cls in HEAPS.items()}

    def audited_pass():
        for events, want in zip(wl.traces, wl.expected):
            checker.audited_replay(events, want, wl.audit_stride)
        return wl.events

    def budget_pass():
        for events in wl.traces:
            checker.budget_audit(events)
        return wl.events

    contenders["audited"] = audited_pass
    contenders["budget_audit"] = budget_pass
    samples = measure(contenders, seconds)
    values = {"%s_ops_per_s" % name: statistics.median(c for _, c in s)
              for name, s in samples.items()}
    values["setup_s"] = statistics.median(wl.setup_s)
    wallclock = {"%s_ops_per_s" % name: statistics.median(r for r, _ in s)
                 for name, s in samples.items()}
    wallclock["setup_s"] = statistics.median(wl.setup_wall_s)
    for impl, passes in PEAK_PASSES.items():
        values["%s_peak_mib" % impl] = min(
            peak_mib(HEAPS[impl], wl, checker) for _ in range(passes))
    return ({name: (values[name], unit) for name, unit in E2E_UNITS.items()},
            {name: (v, E2E_UNITS[name]) for name, v in wallclock.items()})
