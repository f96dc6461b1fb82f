"""The paper's comparison principle: remember the result of every comparison.

An element that has lost a comparison to a live element, and whose key has
not fallen since, cannot be the minimum, so a heap that remembers its
comparisons never compares such an element again. Keys are wrapped so that
every comparison between two elements records its loser, and a proxy tells
the record when an element is born, dies or has its key lowered. A
comparison of an element with itself (decrease_key's increase check) is
neither counted nor recorded. In a comparison the side the heap treats as
the smaller one wins: `a <= b` and `a < b` are won by a when true and by b
when false.
"""

import pytest
from hypothesis import given, settings

from padovanheap import FibonacciHeap, PadovanHeap
from padovanheap.trace import iter_workload, replay

from fuzz_traces import traces

FROZEN_TRACES = [("random", 20000, 1), ("random", 20000, 2),
                 ("competition", 5000, 0), ("ascending", 5000, 0)]


class Record:
    """Who lost to whom, among live elements, since each loser's key last
    fell. repeats counts the comparisons that involved an element that
    cannot be minimal."""

    def __init__(self):
        self.lost_to = {}  # element -> the live elements it lost to
        self.beat = {}     # element -> the elements in whose lost_to it is
        self.comparisons = 0
        self.repeats = 0

    def born(self, e):
        self.lost_to[e] = set()
        self.beat[e] = set()

    def fell(self, e):
        for w in self.lost_to[e]:
            self.beat[w].discard(e)
        self.lost_to[e] = set()

    def died(self, e):
        self.fell(e)
        del self.lost_to[e]
        for loser in self.beat.pop(e):
            self.lost_to[loser].discard(e)

    def compared(self, winner, loser):
        if winner == loser:
            return
        self.comparisons += 1
        if self.lost_to[winner] or self.lost_to[loser]:
            self.repeats += 1
        self.lost_to[loser].add(winner)
        self.beat[winner].add(loser)


class RecordedKey:
    """A key that reports each comparison's winner and loser, by element."""

    __slots__ = ("key", "elem", "record")

    def __init__(self, key, elem, record):
        self.key = key
        self.elem = elem
        self.record = record

    def _report(self, other, self_wins):
        if self_wins:
            self.record.compared(self.elem, other.elem)
        else:
            self.record.compared(other.elem, self.elem)

    def __lt__(self, other):
        r = self.key < other.key
        self._report(other, r)
        return r

    def __le__(self, other):
        r = self.key <= other.key
        self._report(other, r)
        return r

    def __gt__(self, other):
        r = self.key > other.key
        self._report(other, not r)
        return r

    def __ge__(self, other):
        r = self.key >= other.key
        self._report(other, not r)
        return r


class RecordingHeap:
    """Proxy for replay(): hands the heap RecordedKeys, numbering elements
    by insert, and keeps the record of births, deaths and falls."""

    def __init__(self, heap):
        self.heap = heap
        self.record = Record()
        self.n = 0

    def insert(self, key):
        self.n += 1
        self.record.born(self.n)
        return self.heap.insert(RecordedKey(key, self.n, self.record))

    def find_min(self):
        return self.heap.find_min()

    def key_of(self, h):
        return self.heap.key_of(h).key

    def delete_min(self):
        k = self.heap.delete_min()
        self.record.died(k.elem)
        return k.key

    def decrease_key(self, h, key):
        old = self.heap.key_of(h)
        if key < old.key:
            self.record.fell(old.elem)
        self.heap.decrease_key(h, RecordedKey(key, old.elem, self.record))

    def delete(self, h):
        e = self.heap.key_of(h).elem
        self.heap.delete(h)
        self.record.died(e)


def recorded_replay(events, heap):
    """Replay events on heap through the proxy; return the record and the
    keys the F/D events produced."""
    proxy = RecordingHeap(heap)
    out = replay(events, proxy)
    return proxy.record, out


@pytest.mark.parametrize("mode, n, seed", FROZEN_TRACES)
def test_padovan_never_compares_an_element_that_cannot_be_minimal(
        mode, n, seed):
    events = list(iter_workload(mode, n, seed))
    h = PadovanHeap()
    record, out = recorded_replay(events, h)
    assert out == replay(events, PadovanHeap())
    assert record.repeats == 0
    # the record saw every comparison the heap counted
    assert record.comparisons == h.arena.counters.comparisons > 0


@pytest.mark.parametrize("mode, n, seed", FROZEN_TRACES[:1] + FROZEN_TRACES[2:3])
def test_fibonacci_compares_elements_that_cannot_be_minimal(mode, n, seed):
    """The check can fail: Fibonacci's delete_min compares every root it
    leaves with the running minimum; each loser stays a root, and the next
    consolidation and scan compare it again."""
    record, _ = recorded_replay(list(iter_workload(mode, n, seed)),
                                FibonacciHeap())
    assert record.repeats > record.comparisons // 2


def test_decrease_key_to_an_equal_key_is_a_no_op():
    # 2 lost its join to 1; a cut would make the second f compare them again
    with_k = [("i", 1), ("i", 2), ("f",), ("k", 2, 2), ("f",)]
    without = with_k[:3] + with_k[4:]
    h, g = PadovanHeap(), PadovanHeap()
    record, out = recorded_replay(with_k, h)
    assert out == replay(without, g) == [1, 1]
    assert h.arena.counters.snapshot() == g.arena.counters.snapshot() == (
        18, 1, 0, 0)
    assert (record.comparisons, record.repeats) == (1, 0)


@settings(max_examples=300, deadline=None)
@given(traces())
def test_padovan_comparison_principle_on_fuzzed_traces(events):
    record, out = recorded_replay(events, PadovanHeap())
    assert out == replay(events, PadovanHeap())
    assert record.repeats == 0
