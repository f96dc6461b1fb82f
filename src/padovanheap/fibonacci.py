"""Textbook Fibonacci heap, used as the benchmark baseline.

Four link fields per node (parent, child, left, right), circular sibling
rings, a cached min pointer, consolidation by a degree-indexed bucket array
after delete_min, and cascading cuts driven by mark bits.

Step counting mirrors the arena heap: link_writes counts writes to the four
link fields, comparisons counts key comparisons between two nodes. Mark and
degree updates are bookkeeping on non-link fields and are not counted; the
min-pointer is heap state, not a node link.

Each operation writes its ring surgery and degree-histogram updates out
inline, counts its steps in locals and adds them to `counters` once per
operation (delete_min in a `finally`). The counts are those of the plain
form that makes each ring move as a call, which tests/test_fibonacci.py
keeps as the reference: every ring move is charged in full, even where
the inline form skips a write that the next move overwrites,

    splice v out of its ring, leaving v a singleton    4
    insert a singleton into a ring                     4
    concatenate two disjoint rings                     4

plus one per parent or child link written, and two for a new node's
self-links.
"""

from .errors import EmptyHeapError, KeyIncreaseError, StaleHandleError
from .node_store import StepCounters

_CONSUMED = "heap was consumed by meld"
_BROKEN = "heap was dropped: a key comparison raised in delete_min"
_STALE = "dead or foreign handle: %r"


class FibNode:
    """key + degree + mark bit + exactly four links."""

    __slots__ = ("key", "degree", "marked", "parent", "child", "left", "right")

    def __init__(self, key):
        self.key = key
        self.degree = 0
        self.marked = False
        self.parent = None
        self.child = None
        self.left = self
        self.right = self

    def __repr__(self):
        return "FibNode(key=%r, degree=%d%s)" % (
            self.key, self.degree, ", marked" if self.marked else "")


class FibonacciHeap:

    def __init__(self):
        self._min = None
        self._size = 0
        self._live = set()  # the live FibNodes themselves
        self._consumed = None  # or why every operation now raises
        self.counters = StepCounters()
        self.max_degree_seen = 0
        self._deg_hist = [0] * 8  # live-node count per degree

    @property
    def size(self):
        return self._size

    def is_empty(self):
        return self._size == 0

    def key_of(self, v):
        if not isinstance(v, FibNode) or v not in self._live:
            raise StaleHandleError(_STALE % (v,))
        return v.key

    def current_max_degree(self):
        """Largest degree present among live nodes (O(max degree))."""
        h = self._deg_hist
        for d in range(len(h) - 1, -1, -1):
            if h[d]:
                return d
        return 0

    # -- operations -------------------------------------------------------

    def insert(self, key):
        if self._consumed:
            raise StaleHandleError(self._consumed)
        m = self._min
        # compare before any change, so a comparison that raises leaves the
        # heap as it was
        new_min = m is None or key < m.key
        v = FibNode(key)
        self._live.add(v)
        self._deg_hist[0] += 1
        self._size += 1
        c = self.counters
        if m is None:
            c.link_writes += 2  # left=self, right=self
        else:
            # insert v left of the min
            a = m.left
            a.right = v
            v.left = a
            v.right = m
            m.left = v
            c.link_writes += 6
            c.comparisons += 1
        if new_min:
            self._min = v
        return v

    def find_min(self):
        if self._consumed:
            raise StaleHandleError(self._consumed)
        m = self._min
        if m is None:
            raise EmptyHeapError("find_min on empty heap")
        return m

    def delete_min(self):
        if self._consumed:
            raise StaleHandleError(self._consumed)
        m = self._min
        if m is None:
            raise EmptyHeapError("delete_min on empty heap")
        h = self._deg_hist
        self._live.discard(m)
        d = m.degree
        h[d] -= 1
        assert h[d] >= 0
        self._size -= 1
        # m's children take m's place in the root ring, in their ring
        # order from child.right, as if concatenated right of m before m
        # is spliced out; consolidation visits the ring from first to last
        r = m.right
        child = m.child
        if child is not None:
            # promote the children: clear their parents and marks
            k = 0
            x = child
            while True:
                x.parent = None
                x.marked = False
                k += 1
                x = x.right
                if x is child:
                    break
            m.child = None
            # parent clears, m.child, the concatenation and m's splice
            writes = k + 9
            first = child.right
            if r is m:
                last = child
            else:
                last = m.left
                last.right = first
                first.left = last
                child.right = r
                r.left = child
        elif r is m:
            self._min = None
            return m.key
        else:
            first = r
            last = m.left
            last.right = r
            r.left = last
            writes = 4
        # Left self-linked, so the freed node waits for the cycle collector.
        # Scrubbing the links to None frees it at once; the next node then
        # takes its address and hash and refills the set slot it left, so
        # _live fills with live nodes alone and its x4 resize lands at a
        # larger size (as Arena._live's does). That raised the competition
        # replay peak (25,000 rounds) from 5.88 to 6.86 MiB, its _live
        # ending at 2 MiB rather than 1 MiB, while random 1e5 saved only
        # 0.15-0.65 MiB.
        m.left = m.right = m
        # consolidate: link roots of equal degree until degrees are
        # distinct. A root is linked only once visited, so the next one
        # to visit stays in the ring
        hn = len(h)
        degs = [None] * hn
        top = self.max_degree_seen
        cmps = 0
        try:
            x = first
            while True:
                nxt = x.right
                w = x
                d = w.degree
                while True:
                    occ = degs[d]
                    if occ is None:
                        degs[d] = w
                        break
                    degs[d] = None
                    cmps += 1
                    if occ.key <= w.key:
                        w, loser = occ, w
                    else:
                        loser = occ
                    # splice the loser out of the root ring, then make it
                    # a child of w
                    l = loser.left
                    r = loser.right
                    l.right = r
                    r.left = l
                    loser.parent = w
                    ch = w.child
                    if ch is None:
                        loser.left = loser.right = loser
                        w.child = loser
                        writes += 6
                    else:
                        a = ch.left
                        a.right = loser
                        loser.left = a
                        loser.right = ch
                        ch.left = loser
                        writes += 9
                    h[d] -= 1
                    assert h[d] >= 0
                    d += 1
                    w.degree = d
                    if d == hn:
                        h.extend([0] * d)
                        degs.extend([None] * d)
                        hn += d
                    h[d] += 1
                    if d > top:
                        top = d
                if x is last:
                    break
                x = nxt
            # the survivors sit in the bucket array; scan them for the min
            new_min = None
            for x in degs:
                if x is not None:
                    if new_min is None:
                        new_min = x
                    else:
                        cmps += 1
                        if x.key < new_min.key:
                            new_min = x
            self._min = new_min
        except BaseException:
            # m is gone and the ring is half consolidated: drop the heap
            self._drop(_BROKEN)
            raise
        finally:
            c = self.counters
            c.link_writes += writes
            c.comparisons += cmps
            self.max_degree_seen = top
        return m.key

    def decrease_key(self, v, new_key):
        if self._consumed:
            raise StaleHandleError(self._consumed)
        if not isinstance(v, FibNode) or v not in self._live:
            raise StaleHandleError(_STALE % (v,))
        if new_key > v.key:
            raise KeyIncreaseError(
                "decrease_key %r -> %r is an increase" % (v.key, new_key))
        # compare before any change, so a comparison that raises leaves the
        # heap as it was
        p = v.parent
        cut = p is not None and new_key < p.key
        new_min = new_key < self._min.key
        v.key = new_key
        self.counters.comparisons += 1 if p is None else 2
        if cut:
            self._cut(v)
        if new_min:
            self._min = v

    def delete(self, v):
        if self._consumed:
            raise StaleHandleError(self._consumed)
        if not isinstance(v, FibNode) or v not in self._live:
            raise StaleHandleError(_STALE % (v,))
        if v.parent is not None:
            self._cut(v)
        # v is a root now; force it to be the one delete_min removes
        self._min = v
        self.delete_min()

    def _cut(self, v):
        """Cut non-root v and make it a root left of the min, then walk up
        the cascade: cut each marked non-root parent in turn, and mark the
        first unmarked one. Roots are never marked."""
        m = self._min
        h = self._deg_hist
        writes = 0
        while True:
            p = v.parent
            # splice v out of p's child ring
            r = v.right
            if r is v:
                p.child = None
                writes += 6  # p.child, v.parent, the ring insert
            else:
                if p.child is v:
                    p.child = r
                    writes += 1
                l = v.left
                l.right = r
                r.left = l
                writes += 9  # the splice, v.parent, the ring insert
            v.parent = None
            v.marked = False
            d = p.degree
            h[d] -= 1
            assert h[d] >= 0
            p.degree = d - 1
            h[d - 1] += 1
            # insert v left of the min
            a = m.left
            a.right = v
            v.left = a
            v.right = m
            m.left = v
            if p.parent is None:
                break
            if not p.marked:
                p.marked = True
                break
            v = p
        self.counters.link_writes += writes

    def meld(self, other):
        if self._consumed or other._consumed:
            raise StaleHandleError(self._consumed or other._consumed)
        if other is self:
            raise ValueError("meld of a heap with itself")
        cs = self.counters
        om = other._min
        if om is not None:
            m = self._min
            if m is None:
                self._min = om
            else:
                # concatenate the two root rings
                mr = m.right
                omr = om.right
                m.right = omr
                omr.left = m
                om.right = mr
                mr.left = om
                cs.link_writes += 4
                cs.comparisons += 1
                if om.key < m.key:
                    self._min = om
        self._size += other._size
        # merge the smaller live set into the larger
        live = self._live
        olive = other._live
        if len(live) < len(olive):
            live, olive = olive, live
            self._live = live
        live |= olive
        h = self._deg_hist
        for d, n in enumerate(other._deg_hist):
            if n:
                while d >= len(h):
                    h.extend([0] * len(h))
                h[d] += n
        if other.max_degree_seen > self.max_degree_seen:
            self.max_degree_seen = other.max_degree_seen
        co = other.counters
        cs.link_writes += co.link_writes
        cs.comparisons += co.comparisons
        other._drop(_CONSUMED)
        return self

    def _drop(self, reason):
        """Empty the heap; every later operation raises reason."""
        self._min = None
        self._size = 0
        self._live = set()
        self._consumed = reason

    # -- checking ---------------------------------------------------------

    def roots(self):
        """Snapshot of the root ring starting at the min."""
        out = []
        m = self._min
        if m is None:
            return out
        out.append(m)
        x = m.right
        while x is not m:
            out.append(x)
            x = x.right
        return out

    def validate(self):
        """Assert structural sanity; returns the number of live nodes seen."""
        if self._min is None:
            assert self._size == 0
            return 0
        seen = set()
        stack = [(None, self._min)]
        count = 0
        while stack:
            parent, ring_start = stack.pop()
            x = ring_start
            while True:
                assert id(x) not in seen, "node appears in two rings"
                seen.add(id(x))
                count += 1
                assert x.right.left is x and x.left.right is x, "broken ring"
                assert x.parent is parent, "bad parent link"
                if parent is None:
                    assert not x.marked, "marked root"
                else:
                    assert parent.key <= x.key, "heap order violated"
                if x.child is not None:
                    deg = 0
                    ch = x.child
                    while True:
                        deg += 1
                        ch = ch.right
                        if ch is x.child:
                            break
                    assert deg == x.degree, "degree != child count"
                    stack.append((x, x.child))
                else:
                    assert x.degree == 0, "degree nonzero without children"
                x = x.right
                if x is ring_start:
                    break
        assert count == self._size, "size mismatch"
        for v in self.roots():
            assert self._min.key <= v.key, "min pointer is not minimal"
        return count
