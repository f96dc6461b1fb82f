"""The benchmark's imports of the library, checked in the quick suite.

perfbench/run.py imports harness and layers on every run. layers subclasses
Arena as TimedArena, passes it as PadovanHeap(arena=...), and imports the
auditor's check functions, so a library change that breaks any of these
makes every benchmark run fail. layers' counting pass also reads a
FibonacciHeap's counters.link_writes, counters.comparisons and
max_degree_seen. A full benchmark run is too slow for the quick suite; one
short replay through layers' proxies, and one on a FibonacciHeap, is not.
Nor is one short audited replay through harness' own contender, the one
that audited_ops_per_s times.
"""

from pathlib import Path

from padovanheap import FibonacciHeap, Oracle, PadovanHeap
from padovanheap.auditor import audit_state
from padovanheap.trace import gen_workload, replay

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_modules_import_and_replay(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness  # noqa: F401  (imported by run.py on every run)
    import layers

    events = gen_workload("random", 2000, seed=3)
    arena = layers.TimedArena()
    heap = layers.CountingHeap(
        PadovanHeap(arena=arena),
        {op: [0] * len(layers.COUNTERS) for op in layers.OP_COUNTERS},
        dict.fromkeys(layers.OP_COUNTERS, 0), [])
    want = replay(events, Oracle())
    assert replay(events, heap) == want
    assert arena.calls["alloc"] == 1  # the dummy head; insert allocates inline
    fib = FibonacciHeap()
    assert replay(events, fib) == want
    # the attributes layers._counting_pass reads
    c = fib.counters
    assert c.link_writes > 0 and c.comparisons > 0
    assert fib.max_degree_seen > 0


def test_the_audited_contender_fails_a_corrupted_state(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    events = gen_workload("random", 400, seed=5)
    want = replay(events, Oracle())
    checker = harness.Checker()
    checker.audited_replay(events, want, 1)
    assert (checker.attempted, checker.failed) == (len(events), 0)

    audits = 0

    def audit_with_one_state_corrupted(heap):
        # the 200th state's recorded size is off by one while it is audited
        nonlocal audits
        audits += 1
        if audits != 200:
            return audit_state(heap)
        heap._size += 1
        try:
            return audit_state(heap)
        finally:
            heap._size -= 1

    checker.audited_replay(events, want, 1,
                           state_audit=audit_with_one_state_corrupted)
    assert audits == len(events)
    assert (checker.attempted, checker.failed) == (2 * len(events), 1)
