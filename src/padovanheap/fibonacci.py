"""Textbook Fibonacci heap, used as the benchmark baseline.

Four link fields per node (parent, child, left, right), circular sibling
rings, a cached min pointer, consolidation by a degree-indexed bucket array
after delete_min, and cascading cuts driven by mark bits.

Step counting mirrors the arena heap: link_writes counts writes to the four
link fields, comparisons counts key comparisons between two nodes. Mark and
degree updates are bookkeeping on non-link fields and are not counted; the
min-pointer is heap state, not a node link.
"""

from .errors import EmptyHeapError, KeyIncreaseError, StaleHandleError
from .node_store import StepCounters


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
        self._consumed = False
        self.counters = StepCounters()
        self.max_degree_seen = 0
        self._deg_hist = [0] * 8  # live-node count per degree

    @property
    def size(self):
        return self._size

    def is_empty(self):
        return self._size == 0

    def key_of(self, v):
        self._check_handle(v)
        return v.key

    def _require_alive(self):
        if self._consumed:
            raise StaleHandleError("heap was consumed by meld")

    def _check_handle(self, v):
        if not isinstance(v, FibNode) or v not in self._live:
            raise StaleHandleError("dead or foreign handle: %r" % (v,))

    # -- degree histogram ----------------------------------------------

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

    def current_max_degree(self):
        """Largest degree present among live nodes (O(max degree))."""
        h = self._deg_hist
        for d in range(len(h) - 1, -1, -1):
            if h[d]:
                return d
        return 0

    # -- ring surgery ----------------------------------------------------

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

    # -- operations -------------------------------------------------------

    def insert(self, key):
        self._require_alive()
        v = FibNode(key)
        self.counters.link_writes += 2  # left=self, right=self
        self._live.add(v)
        self._hist_inc(0)
        if self._min is None:
            self._min = v
        else:
            self._ring_insert(self._min, v)
            self.counters.comparisons += 1
            if v.key < self._min.key:
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
        # promote children into the root ring
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
        # consolidate left to right from the node after the removed min
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
        # the survivors sit in the bucket array; rescan them for the min
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
        v.key = new_key
        p = v.parent
        if p is not None:
            self.counters.comparisons += 1
            if v.key < p.key:
                self._cut(v)
                self._cascading_cut(p)
        self.counters.comparisons += 1
        if v.key < self._min.key:
            self._min = v

    def delete(self, v):
        self._require_alive()
        self._check_handle(v)
        p = v.parent
        if p is not None:
            self._cut(v)
            self._cascading_cut(p)
        # v is a root now; force it to be the one delete_min removes
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
                return  # roots are never marked
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
