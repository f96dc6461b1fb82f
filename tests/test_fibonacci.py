import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from padovanheap import FibonacciHeap, FibNode, Oracle, PadovanHeap
from padovanheap.auditor import audit_state
from padovanheap.errors import EmptyHeapError, KeyIncreaseError, StaleHandleError
from padovanheap.trace import iter_workload, replay

GOLDEN = (1 + 5 ** 0.5) / 2


def test_fibnode_four_links():
    links = [f for f in FibNode.__slots__ if f in ("parent", "child", "left", "right")]
    assert sorted(links) == ["child", "left", "parent", "right"]
    v = FibNode(3)
    with pytest.raises(AttributeError):
        v.extra = 1


def test_empty():
    h = FibonacciHeap()
    assert h.is_empty() and h.size == 0
    with pytest.raises(EmptyHeapError):
        h.find_min()
    with pytest.raises(EmptyHeapError):
        h.delete_min()


def test_sorted_drain():
    h = FibonacciHeap()
    rng = random.Random(3)
    ks = rng.sample(range(-10**4, 10**4), 500)
    for k in ks:
        h.insert(k)
    out = []
    while not h.is_empty():
        out.append(h.delete_min())
        h.validate()
    assert out == sorted(ks)


def test_consolidation_gives_distinct_degrees():
    h = FibonacciHeap()
    for k in range(64):
        h.insert(k)
    h.delete_min()
    degs = [r.degree for r in h.roots()]
    assert len(degs) == len(set(degs))
    assert all(not r.marked for r in h.roots())
    h.validate()


def test_degree_stays_logarithmic():
    h = FibonacciHeap()
    rng = random.Random(9)
    hs = []
    for k in rng.sample(range(10**6), 3000):
        hs.append(h.insert(k))
    for _ in range(1500):
        h.delete_min()
    bound = int(math.log(h.size) / math.log(GOLDEN)) + 2
    assert h.current_max_degree() <= bound
    assert h.max_degree_seen >= h.current_max_degree()


def test_decrease_key_and_cascading_cuts():
    # chain where repeated decreases force cascading cuts up a marked path
    h = FibonacciHeap()
    hs = {k: h.insert(k) for k in range(32)}
    h.delete_min()  # consolidates into binomial-ish trees
    h.validate()
    rng = random.Random(21)
    live = set(hs) - {0}
    for k in rng.sample(sorted(live), 20):
        h.decrease_key(hs[k], k - 10**6)
        h.validate()
    assert h.find_min().key == min(v.key for v in (hs[k] for k in live))
    # no root is ever marked
    assert all(not r.marked for r in h.roots())


def test_decrease_key_checks():
    h = FibonacciHeap()
    v = h.insert(10)
    with pytest.raises(KeyIncreaseError):
        h.decrease_key(v, 11)
    h.decrease_key(v, 10)  # equal is a no-op path, still legal
    h.delete_min()
    with pytest.raises(StaleHandleError):
        h.decrease_key(v, 0)


def test_delete_arbitrary():
    h = FibonacciHeap()
    hs = {k: h.insert(k) for k in range(40)}
    h.delete_min()
    h.delete(hs[25])
    h.delete(hs[7])
    h.validate()
    out = []
    while not h.is_empty():
        out.append(h.delete_min())
    assert out == [k for k in range(1, 40) if k not in (7, 25)]


def test_meld_consumes_other():
    h1 = FibonacciHeap()
    h2 = FibonacciHeap()
    for k in (5, 1):
        h1.insert(k)
    v = h2.insert(0)
    h1.meld(h2)
    assert h1.size == 3 and h1.find_min().key == 0
    with pytest.raises(StaleHandleError):
        h2.insert(4)
    h1.decrease_key(v, -2)  # handle survives the meld
    assert h1.delete_min() == -2
    h1.validate()


def test_counters_move():
    h = FibonacciHeap()
    for k in range(10):
        h.insert(k)
    assert h.counters.link_writes > 0
    c0 = h.counters.comparisons
    h.delete_min()
    assert h.counters.comparisons > c0


def test_differential_vs_oracle():
    rng = random.Random(1234)
    h = FibonacciHeap()
    o = Oracle()
    pairs = []
    used = set()
    for _ in range(2500):
        op = rng.choices("ifdkx", weights=(40, 10, 20, 25, 5))[0]
        if op == "i" or not pairs:
            k = rng.randint(-10**6, 10**6)
            while k in used:
                k = rng.randint(-10**6, 10**6)
            used.add(k)
            pairs.append([h.insert(k), o.insert(k), k])
        elif op == "f":
            assert h.find_min().key == o.key_of(o.find_min())
        elif op == "d":
            assert h.delete_min() == o.delete_min()
            m = min(p[2] for p in pairs)
            pairs = [p for p in pairs if p[2] != m]
        elif op == "k":
            p = rng.choice(pairs)
            nk = rng.randint(p[2] - 10**6, p[2])
            if nk in used and nk != p[2]:
                continue
            used.add(nk)
            h.decrease_key(p[0], nk)
            o.decrease_key(p[1], nk)
            p[2] = nk
        else:
            i = rng.randrange(len(pairs))
            v, ho, _ = pairs.pop(i)
            h.delete(v)
            o.delete(ho)
        assert h.size == o.size
    h.validate()


# ---------------------------------------------------- frozen step counts

@pytest.mark.parametrize("mode, n, seed, steps, max_degree", [
    ("random", 20000, 1, (364671, 66212), 11),
    ("random", 20000, 2, (372200, 66450), 11),
    ("competition", 5000, 0, (117451, 39803), 12),
    ("ascending", 5000, 0, (29996, 4999), 0),
])
def test_fibonacci_step_counts_are_frozen(mode, n, seed, steps, max_degree):
    """The baseline's cost measure, pinned on test_step_counts_are_frozen's
    four traces: (link writes, comparisons) and the peak degree."""
    h = FibonacciHeap()
    replay(iter_workload(mode, n, seed), h, collect_output=False)
    c = h.counters
    assert (c.link_writes, c.comparisons) == steps
    assert h.max_degree_seen == max_degree


@pytest.mark.parametrize("mode, n, seed, per_event, crossover", [
    ("random", 20000, 1, (21.76, 18.23, 1.95, 3.31), 2.59),
    ("competition", 5000, 0, (10.25, 5.87, 0.81, 1.99), 3.71),
    ("ascending", 5000, 0, (13.0, 6.0, 1.0, 1.0), None),
])
def test_padovan_trades_link_writes_for_comparisons(mode, n, seed, per_event,
                                                     crossover):
    """The paper's trade, counted on the frozen-count traces: padovan makes
    fewer comparisons than Fibonacci where consolidation has work to do,
    and more link writes everywhere. per_event is (padovan writes,
    Fibonacci writes, padovan comparisons, Fibonacci comparisons) per event;
    padovan is cheaper in counted steps only when one comparison costs more
    than crossover = Δwrites / Δcomparisons link writes, never on
    ascending."""
    events = list(iter_workload(mode, n, seed))
    p = PadovanHeap()
    f = FibonacciHeap()
    replay(events, p, collect_output=False)
    replay(events, f, collect_output=False)
    pc = p.arena.counters
    fc = f.counters
    counts = (pc.link_writes, fc.link_writes, pc.comparisons, fc.comparisons)
    assert tuple(round(c / len(events), 2) for c in counts) == per_event
    assert pc.link_writes > fc.link_writes
    if crossover is None:
        assert pc.comparisons == fc.comparisons
    else:
        assert pc.comparisons < fc.comparisons
        assert round((pc.link_writes - fc.link_writes)
                     / (fc.comparisons - pc.comparisons), 2) == crossover


# ------------------------------------- inline surgery against helper calls

class CallFibonacciHeap(FibonacciHeap):
    """Every ring move, histogram update and check made through a helper
    call, every step counted where it is taken, and the cascade of cuts
    made by _cascading_cut after _cut: the helper form that the heap's
    inline surgery is checked against."""

    def key_of(self, v):
        self._check_handle(v)
        return v.key

    def _require_alive(self):
        if self._consumed:
            raise StaleHandleError("heap was consumed by meld")

    def _check_handle(self, v):
        if not isinstance(v, FibNode) or v not in self._live:
            raise StaleHandleError("dead or foreign handle: %r" % (v,))

    def _hist_inc(self, d):
        h = self._deg_hist
        while d >= len(h):
            h.extend([0] * len(h))
        h[d] += 1
        if d > self.max_degree_seen:
            self.max_degree_seen = d

    def _hist_dec(self, d):
        self._deg_hist[d] -= 1
        assert self._deg_hist[d] >= 0

    def _set_degree(self, v, d):
        self._hist_dec(v.degree)
        v.degree = d
        self._hist_inc(d)

    def _splice_out(self, v):
        v.left.right = v.right
        v.right.left = v.left
        v.left = v
        v.right = v
        self.counters.link_writes += 4

    def _ring_insert(self, anchor, v):
        """Insert detached singleton v immediately left of anchor."""
        a = anchor.left
        a.right = v
        v.left = a
        v.right = anchor
        anchor.left = v
        self.counters.link_writes += 4

    def _ring_concat(self, x, y):
        """Merge the disjoint rings containing x and y."""
        xr = x.right
        yr = y.right
        x.right = yr
        yr.left = x
        y.right = xr
        xr.left = y
        self.counters.link_writes += 4

    def insert(self, key):
        self._require_alive()
        m = self._min
        new_min = m is None or key < m.key  # compared before any change
        v = FibNode(key)
        self.counters.link_writes += 2  # left=self, right=self
        self._live.add(v)
        self._hist_inc(0)
        if m is not None:
            self._ring_insert(m, v)
            self.counters.comparisons += 1
        if new_min:
            self._min = v
        self._size += 1
        return v

    def find_min(self):
        self._require_alive()
        if self._min is None:
            raise EmptyHeapError("find_min on empty heap")
        return self._min

    def delete_min(self):
        self._require_alive()
        m = self._min
        if m is None:
            raise EmptyHeapError("delete_min on empty heap")
        c = self.counters
        child = m.child
        if child is not None:
            kids = [child]
            x = child.right
            while x is not child:
                kids.append(x)
                x = x.right
            for k in kids:
                k.parent = None
                k.marked = False
            c.link_writes += len(kids)  # parent clears
            m.child = None
            c.link_writes += 1
            self._ring_concat(m, child)
        self._live.discard(m)
        self._hist_dec(m.degree)
        self._size -= 1
        if m.right is m:
            self._min = None
            return m.key
        start = m.right
        self._splice_out(m)
        roots = [start]
        x = start.right
        while x is not start:
            roots.append(x)
            x = x.right
        degs = [None] * 8
        for w in roots:
            x = w
            d = x.degree
            while True:
                while d >= len(degs):
                    degs.extend([None] * len(degs))
                occ = degs[d]
                if occ is None:
                    degs[d] = x
                    break
                degs[d] = None
                c.comparisons += 1
                if occ.key <= x.key:
                    winner, loser = occ, x
                else:
                    winner, loser = x, occ
                self._splice_out(loser)
                loser.parent = winner
                c.link_writes += 1
                if winner.child is None:
                    winner.child = loser
                    c.link_writes += 1
                else:
                    self._ring_insert(winner.child, loser)
                self._set_degree(winner, winner.degree + 1)
                x = winner
                d = x.degree
        new_min = None
        for d in range(len(degs)):
            node = degs[d]
            if node is None:
                continue
            degs[d] = None
            if new_min is None:
                new_min = node
            else:
                c.comparisons += 1
                if node.key < new_min.key:
                    new_min = node
        self._min = new_min
        return m.key

    def decrease_key(self, v, new_key):
        self._require_alive()
        self._check_handle(v)
        if new_key > v.key:
            raise KeyIncreaseError(
                "decrease_key %r -> %r is an increase" % (v.key, new_key))
        # both comparisons before any change
        p = v.parent
        cut = p is not None and new_key < p.key
        new_min = new_key < self._min.key
        v.key = new_key
        if p is not None:
            self.counters.comparisons += 1
            if cut:
                self._cut(v)
                self._cascading_cut(p)
        self.counters.comparisons += 1
        if new_min:
            self._min = v

    def delete(self, v):
        self._require_alive()
        self._check_handle(v)
        p = v.parent
        if p is not None:
            self._cut(v)
            self._cascading_cut(p)
        self._min = v
        self.delete_min()

    def _cut(self, v):
        c = self.counters
        p = v.parent
        if v.right is v:
            p.child = None
            c.link_writes += 1
        else:
            if p.child is v:
                p.child = v.right
                c.link_writes += 1
            self._splice_out(v)
        v.parent = None
        c.link_writes += 1
        self._set_degree(p, p.degree - 1)
        v.marked = False
        self._ring_insert(self._min, v)

    def _cascading_cut(self, y):
        while True:
            p = y.parent
            if p is None:
                return
            if not y.marked:
                y.marked = True
                return
            self._cut(y)
            y = p

    def meld(self, other):
        self._require_alive()
        other._require_alive()
        if other is self:
            raise ValueError("meld of a heap with itself")
        if other._min is not None:
            if self._min is None:
                self._min = other._min
            else:
                self._ring_concat(self._min, other._min)
                self.counters.comparisons += 1
                if other._min.key < self._min.key:
                    self._min = other._min
        self._size += other._size
        self._live |= other._live
        oh = other._deg_hist
        for d in range(len(oh)):
            if oh[d]:
                h = self._deg_hist
                while d >= len(h):
                    h.extend([0] * len(h))
                h[d] += oh[d]
        if other.max_degree_seen > self.max_degree_seen:
            self.max_degree_seen = other.max_degree_seen
        co, cs = other.counters, self.counters
        cs.link_writes += co.link_writes
        cs.comparisons += co.comparisons
        other._min = None
        other._size = 0
        other._live = set()
        other._consumed = True
        return self


def ring_state(h):
    """The counters, degree histogram, peak degree and size, and the root
    ring's (key, degree, marked) in ring order from the min."""
    c = h.counters
    return (c.link_writes, c.comparisons, tuple(h._deg_hist),
            h.max_degree_seen, h.size,
            tuple((r.key, r.degree, r.marked) for r in h.roots()))


def forest(h):
    """Every ring of the heap, nested, with keys, degrees and marks."""
    def ring(start):
        out = []
        x = start
        while x is not None:
            out.append((x.key, x.degree, x.marked, ring(x.child)))
            x = x.right
            if x is start:
                break
        return tuple(out)
    return ring(h._min)


@pytest.mark.parametrize("mode, n, seeds", [
    ("random", 3000, range(1, 9)),
    ("competition", 2000, [0]),
    ("ascending", 2000, [0]),
])
def test_inline_surgery_matches_helper_calls(mode, n, seeds):
    for seed in seeds:
        events = list(iter_workload(mode, n, seed))
        states = []
        ref = CallFibonacciHeap()
        ref_out = replay(events, ref,
                         after=lambda i, ev: states.append(ring_state(ref)))
        h = FibonacciHeap()

        def same_state(i, ev):
            assert ring_state(h) == states[i], (seed, i, ev)

        assert replay(events, h, after=same_state) == ref_out
        assert forest(h) == forest(ref)
        h.validate()


def error_of(call):
    try:
        call()
    except Exception as e:  # the error itself is compared
        return type(e), str(e)
    return None


@pytest.mark.parametrize("misuse", ["foreign", "stale", "consumed",
                                    "increase"])
def test_misuse_raises_as_the_helper_form_does(misuse):
    """Each misuse raises the error the helper form raises, and leaves the
    counters, the size and every ring as they were."""
    outcomes = []
    for cls in (CallFibonacciHeap, FibonacciHeap):
        h = cls()
        hs = [h.insert(k) for k in range(20)]
        h.delete_min()
        dead = hs[0]
        h.decrease_key(hs[9], -5)  # a cut, and a marked parent
        other = cls()
        foreign = [other.insert(k) for k in range(8)]
        other.delete_min()
        target = h
        if misuse == "foreign":
            v = foreign[5]
        elif misuse == "stale":
            v = dead
        elif misuse == "consumed":
            taker = cls()
            taker.meld(h)
            target, v = h, hs[3]
        else:
            v = hs[12]
        before = (ring_state(target), forest(target))
        new_key = v.key + 1 if misuse == "increase" else -100
        calls = [lambda: target.decrease_key(v, new_key)]
        if misuse != "increase":
            calls += [lambda: target.delete(v), lambda: target.key_of(v)]
        if misuse == "consumed":
            calls += [lambda: target.insert(1), target.find_min,
                      target.delete_min, lambda: target.meld(cls()),
                      lambda: cls().meld(target)]
        errors = [error_of(call) for call in calls]
        assert all(e is not None for e in errors), errors
        assert (ring_state(target), forest(target)) == before
        outcomes.append(errors)
    assert outcomes[0] == outcomes[1]


class Key:
    """A key whose comparisons raise while their operator is in refused, a
    set that the test shares among its keys."""

    __slots__ = ("value", "refused")

    def __init__(self, value, refused):
        self.value = value
        self.refused = refused

    def _values(self, other, op):
        if op in self.refused:
            raise RuntimeError("comparison refused")
        return self.value, other.value

    def __lt__(self, other):
        a, b = self._values(other, "<")
        return a < b

    def __le__(self, other):
        a, b = self._values(other, "<=")
        return a <= b

    def __gt__(self, other):
        a, b = self._values(other, ">")
        return a > b


def test_a_raising_comparison_in_delete_min():
    """A key comparison that raises inside delete_min drops a
    FibonacciHeap, as meld drops its donor, so every later call fails
    loudly. PadovanHeap's find_min raises before anything is removed, so
    it stays whole."""
    refused = set()
    for cls in (FibonacciHeap, PadovanHeap):
        h = cls()
        hs = [h.insert(Key(k, refused)) for k in range(6)]
        refused.update(("<", "<=", ">"))
        with pytest.raises(RuntimeError):
            h.delete_min()
        refused.clear()
        if cls is PadovanHeap:
            assert h.size == 6 and audit_state(h) == []
            assert h.key_of(h.find_min()).value == 0
            assert [h.delete_min().value for _ in range(6)] == list(range(6))
            continue
        assert h.size == 0 and h.roots() == []
        v = hs[3]
        calls = [h.find_min, h.delete_min, lambda: h.insert(Key(9, refused)),
                 lambda: h.decrease_key(v, Key(-1, refused)),
                 lambda: h.delete(v), lambda: h.meld(cls()),
                 lambda: cls().meld(h)]
        for call in calls:
            with pytest.raises(StaleHandleError,
                               match="key comparison raised in delete_min"):
                call()
        with pytest.raises(StaleHandleError):
            h.key_of(v)


@pytest.mark.parametrize("op", ["insert", "decrease_key"])
@pytest.mark.parametrize("cls", [FibonacciHeap, PadovanHeap])
def test_a_raising_comparison_in_insert_or_decrease_key(cls, op):
    """A `<` that raises inside insert, or inside decrease_key after the
    increase test (a `>`) has passed, leaves the heap whole: FibonacciHeap
    compares before it changes anything, and PadovanHeap makes no `<` in
    either. The heap stays valid and find_min correct."""
    refused = set()
    h = cls()
    hs = {k: h.insert(Key(k, refused)) for k in range(2, 10)}
    h.insert(Key(1, refused))
    assert h.delete_min().value == 1
    live = set(hs)
    if op == "insert":
        old, new = None, 0
        call = lambda: h.insert(Key(new, refused))
    else:  # the largest key below a root
        roots = h.roots()
        old, new = max(k for k, v in hs.items() if v not in roots), -5
        call = lambda: h.decrease_key(hs[old], Key(new, refused))
    refused.add("<")
    try:
        call()
    except RuntimeError:
        assert cls is FibonacciHeap
    else:
        assert cls is PadovanHeap
        live.discard(old)
        live.add(new)
    refused.clear()
    if cls is FibonacciHeap:
        assert h.validate() == len(live)
    else:
        assert audit_state(h) == []
    assert h.size == len(live)
    assert h.find_min().key.value == min(live)
    assert [h.delete_min().value for _ in live] == sorted(live)


# ------------------------------------------------- meld against the oracle

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("iiiimkkxd"), st.integers(0, 2),
                          st.integers(0, 2), st.integers(0, 10**6)),
                min_size=1, max_size=80))
def test_interleaved_melds_match_oracle(ops):
    """Three heaps, each beside an Oracle, under interleaved inserts,
    decrease_keys, deletes, delete_mins and melds. A meld hands the donor's
    handles to the taker and replaces the donor with a fresh heap; handles
    must stay valid on their heap and be rejected by every other."""
    heaps = [FibonacciHeap() for _ in range(3)]
    oracles = [Oracle() for _ in range(3)]
    owned = [[] for _ in range(3)]  # [node, oracle handle] pairs per heap
    used = set()
    for op, i, j, x in ops:
        h, o, mine = heaps[i], oracles[i], owned[i]
        if op == "i" or (op in "kxd" and not mine):
            k = x
            while k in used:
                k += 1
            used.add(k)
            mine.append([h.insert(k), o.insert(k)])
        elif op == "m":
            if i == j:
                continue
            h.meld(heaps[j])
            o.meld(oracles[j])
            with pytest.raises(StaleHandleError):
                heaps[j].insert(0)
            mine += owned[j]
            heaps[j], oracles[j], owned[j] = FibonacciHeap(), Oracle(), []
        elif op == "k":
            v, ho = mine[x % len(mine)]
            k = o.key_of(ho) - 1 - x % 1000
            while k in used:
                k -= 1
            used.add(k)
            h.decrease_key(v, k)
            o.decrease_key(ho, k)
        elif op == "x":
            v, ho = mine.pop(x % len(mine))
            h.delete(v)
            o.delete(ho)
        else:
            m = h.find_min()
            assert h.delete_min() == o.delete_min()
            mine[:] = [p for p in mine if p[0] is not m]
        for hh, oo, own in zip(heaps, oracles, owned):
            assert hh.size == oo.size == len(own)
            assert {hh.key_of(v) for v, _ in own} == {
                oo.key_of(ho) for _, ho in own}
            if own:
                assert hh.find_min().key == oo.key_of(oo.find_min())
            hh.validate()
        # every live handle is rejected by the heaps that do not own it
        for a in range(3):
            for b in range(3):
                if a != b:
                    for v, _ in owned[b][:3]:
                        with pytest.raises(StaleHandleError):
                            heaps[a].key_of(v)


def test_meld_keeps_the_larger_live_set():
    """meld merges the smaller live set into the larger, whichever heap
    holds it, so a meld costs the smaller heap's size, not the sum."""
    for small_first in (True, False):
        small, big = FibonacciHeap(), FibonacciHeap()
        hs = [small.insert(k) for k in (7, 3)]
        hb = [big.insert(k) for k in range(10, 60)]
        third = FibonacciHeap().insert(1)
        taker, donor = (small, big) if small_first else (big, small)
        big_live = big._live
        taker.meld(donor)
        assert taker._live is big_live and len(big_live) == 52
        assert donor._live == set() and donor._live is not big_live
        for v in hs + hb:
            assert taker.key_of(v) == v.key
        with pytest.raises(StaleHandleError):
            taker.key_of(third)
        taker.decrease_key(hb[-1], 0)
        assert [taker.delete_min() for _ in range(3)] == [0, 3, 7]
        taker.validate()
