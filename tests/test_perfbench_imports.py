"""The benchmark's imports of the library, checked in the quick suite.

perfbench/run.py imports harness and layers on every run. layers subclasses
Arena as TimedArena, passes it as PadovanHeap(arena=...), and imports the
auditor's check functions, so a library change that breaks any of these
makes every benchmark run fail. layers' counting pass also reads a
FibonacciHeap's counters.link_writes, counters.comparisons and
max_degree_seen. A full benchmark run is too slow for the quick suite; one
short replay through layers' proxies, and one on a FibonacciHeap, is not.
"""

from pathlib import Path

from padovanheap import FibonacciHeap, Oracle, PadovanHeap
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
