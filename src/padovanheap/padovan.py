"""Padovan heap: a mergeable min-heap on the three-link node representation.

Ranks are maintained by three local rules instead of Fibonacci mark bits:

  rule 1  gap below the rightmost inner child w0 and w0 noncritical:
          rank = rho(w0), the vertex is "dangerous";
  rule 2  gap and w0 critical: demote w0 to an outer (placed) child and
          recompute;
  rule 3  no gap: rank = rho(w0) + 1, the vertex is "safe";

where rho(v) = rank+1 for a critical vertex, rank otherwise, and absent
children count as noncritical with rho = -1. A "gap" means
rho(w0) > rho(w1) + 1, with a missing/placed left neighbor read as
rho(w1) = -1 and a misplaced left neighbor forcing the gap outright.

A vertex is dangerous when rank > 0 and the rightmost child is inner with
rank <= rho(w0); the test is O(1). Roots are made safe lazily: find_min
sweeps the root list and repairs dangerous roots before joining.

find_min returns a lone safe root at once: both phases would spend no step
on it. Otherwise it runs in two phases. Phase 1 walks the root list left to
right, makes each root safe, and bucket-inserts it by rank, joining
equal-rank pairs (loser becomes the winner's rightmost noncritical inner
child, winner rank +1) until the bucket is free; surviving roots have
pairwise distinct ranks and occupy exactly their own buckets. Phase 2
repeatedly links the last root with the second last (loser pushed to the
front of the winner's children as an outer placed child, ranks unchanged),
continuing leftward cyclically until one root remains. So no dangerous root
survives find_min. Neither joins nor links change the dangerous-vertex
count: a join gives a safe winner a noncritical rightmost child of rank r
and the rank r + 1, and a link keeps the winner's rank and rightmost child,
or gives a childless winner a placed one.

decrease_key cuts the vertex and runs a cascading rank recomputation up the
parent chain, stopping at the dummy head, at an unchanged rank, or at a
vertex that is not among the last two children of its list (where the
parent is unreachable in O(1); the deferred rank decrease is budgeted by
the potential analysis, and the status is adjusted in place instead).

The potential ingredients (the status tally, the rank sum, and the
dangerous-vertex count) exist only for the analysis, so a heap keeps them
only from its first potentials() read on. Until then they are None, and
every operation skips their bookkeeping and _cut's danger probes. The
first read seeds them from one walk of the forest, O(n); from then on
every operation keeps them exact as it goes, and each read costs O(1). In
a read heap every root holds status ROOT, so the status tally counts every
vertex, its ROOT slot is the tree count, and a vertex's status tells
whether it is a root. A root removal walks the children it promotes, to
mark them. A lean heap leaves root statuses as they fall, meaningless,
and the first read overwrites them.

The dangerous-vertex count, once kept, takes one probe of a vertex before
and one verdict after each compound change to it: a cut with the cascade
step that follows, or make_safe's demote-and-recompute loop. The verdict is
_recompute_rank's answer, since the rules it applies last decide the
vertex's danger test: rule 1 with a positive rank leaves it dangerous, rule
3 and rank 0 safe. The danger test reads only the vertex's rank, its
rightmost child and that child's rho, so the deltas of probes in between
would telescope, and they are not made. A rank change also moves the
parent's test when the vertex is the rightmost child: the cascade probes
that parent first and carries the probe up as the parent's own
before-probe, and where the cascade stops, the parent's test is unchanged.
delete_min removes the root that find_min returns, a safe root, so it
leaves without a probe; after a find_min that root is alone and safe, and
the second find_min returns it at no step.

The hot list moves and probes are written out in the operation that makes
them, so that each op's common case runs in one Python frame: insert's
append to the root list, find_min's joins and links, _cut's position probes
and move onto the root list, _place's move of a child to the front,
_remove_root's unlink, promotion and free, and the liveness check of
key_of, decrease_key and delete. Each move counts the link writes of its
row in Arena's table: insert is alloc_back, a join is join_back, a link is
join_front, the cut's move is join_back, a placing is move_front, and a
root removal is detach_promote. The rank rules, _place and make_safe stay
calls, and _cut's before-probes call _is_dangerous. find_min keeps the
danger test written out, since it runs it on every root and the call
measured slower (see find_min).
"""

import math

from .errors import (
    CONSUMED,
    STALE,
    EmptyHeapError,
    KeyIncreaseError,
    StaleHandleError,
)
from .node_store import (
    Arena,
    CRITICAL_INNER,
    NONCRITICAL_INNER,
    Node,
    OUTER_MISPLACED,
    OUTER_PLACED,
    ROOT,
)

PLASTIC = 1.324717957244746
_LOG_PLASTIC = math.log(PLASTIC)


def plastic_cap(n):
    """1 + floor(log base-plastic of n): the tree-count cap used by phi2.

    Raises ValueError for n < 1, where the cap is not defined.
    """
    if n < 1:
        raise ValueError("plastic_cap needs n >= 1, got %r" % (n,))
    return 1 + int(math.log(n) / _LOG_PLASTIC)


class PadovanHeap:

    def __init__(self, arena=None):
        self.arena = arena if arena is not None else Arena()
        self._dummy = self.arena.alloc(None)  # self-linked owner of the root list
        self._live = set()  # the live vertices themselves, dummy excluded
        self._size = 0
        # The potential tallies, None until the first potentials() read
        # seeds them: every vertex bucketed by status, the roots as ROOT,
        # the rank sum and the dangerous-vertex count
        self._stat_tally = None
        self._rank_sum = None
        self._dangerous = None
        self.max_rank_seen = 0

    # -- bookkeeping helpers -------------------------------------------

    @property
    def size(self):
        return self._size

    def is_empty(self):
        return self._size == 0

    @property
    def dummy(self):
        return self._dummy

    def roots(self):
        """The root list, left to right, as a new list.

        It stops after size members, so a corrupted root list cannot make
        it loop; the audit reports such a list.
        """
        d = self._require_alive()
        out = []
        v = d.child
        for _ in range(self._size):
            if v is None or v is d:
                break
            out.append(v)
            v = v.right
        return out

    def key_of(self, v):
        if self._dummy is None:
            raise StaleHandleError(CONSUMED)
        # a live vertex of this heap; a non-Node handle may not even hash
        if not isinstance(v, Node) or v not in self._live:
            raise StaleHandleError(STALE % (v,))
        return v.key

    def _require_alive(self):
        """Return the dummy head; a heap consumed by meld has none."""
        d = self._dummy
        if d is None:
            raise StaleHandleError(CONSUMED)
        return d

    def _set_status(self, v, st):
        t = self._stat_tally
        if t is not None:
            t[v.status] -= 1
            t[st] += 1
        v.status = st

    def _is_dangerous(self, v):
        r = v.rank
        if r == 0:
            return False
        c = v.child
        if c is None:
            return False
        w0 = c.left
        st = w0.status
        if st > CRITICAL_INNER:
            return False
        rho = w0.rank + 1 if st == CRITICAL_INNER else w0.rank
        return r <= rho

    def _place(self, owner, w):
        """Move child w of owner to the front as an outer placed child.

        The move_front row of Arena's table: 5 writes for a sole member, else
        8, also for a leftmost w, which stays where it is. Only owner's
        danger test reads the moved child; the caller settles it.
        """
        first = owner.child
        if w is first:
            writes = 5 if w.left is w else 8
        else:
            prev = w.left
            nxt = w.right
            if nxt is owner:  # rightmost
                prev.right = owner
                first.left = prev
            else:
                prev.right = nxt
                nxt.left = prev
            w.left = first.left
            w.right = first
            first.left = w
            owner.child = w
            writes = 8
        counters = self.arena.counters
        counters.link_writes += writes
        counters.placings += 1
        self._set_status(w, OUTER_PLACED)

    # -- rank machinery ------------------------------------------------

    def _recompute_rank(self, p):
        """Apply the rank rules to p, with rule 2 demotions; return whether
        they left p dangerous.

        Only rule 1 with a positive rank does: p's rank then equals rho(w0)
        of its inner rightmost child, while rule 3 and rank 0 leave p safe.
        The caller settles the danger tally of p with this answer, and of
        p's parent, when p is its rightmost child, with a probe.
        """
        counters = self.arena.counters
        while True:
            # seek: sweep misplaced outer children off the right end
            while True:
                c = p.child
                w0 = c.left if c is not None else None
                if w0 is not None and w0.status == OUTER_MISPLACED:
                    self._place(p, w0)
                    continue
                break
            if w0 is None or w0.status == OUTER_PLACED:
                # no inner children: rho(w0) = rho(w1) = -1, rule 3
                counters.rank_steps += 1
                new_rank = 0
                danger = False
                break
            st0 = w0.status
            rho0 = w0.rank + 1 if st0 == CRITICAL_INNER else w0.rank
            if w0.left.right is not w0:
                gap = rho0 > 0  # w0 is leftmost: rho(w1) = -1
            else:
                u = w0.left
                stu = u.status
                if stu == OUTER_MISPLACED:
                    gap = True  # forced; no need to locate w1
                elif stu == OUTER_PLACED:
                    gap = rho0 > 0
                else:
                    rho1 = u.rank + 1 if stu == CRITICAL_INNER else u.rank
                    gap = rho0 > rho1 + 1
            if gap and st0 == CRITICAL_INNER:
                counters.rank_steps += 1  # rule 2
                self._place(p, w0)
                continue
            counters.rank_steps += 1
            new_rank = rho0 if gap else rho0 + 1  # rule 1 : rule 3
            danger = gap and rho0 > 0
            break
        if self._stat_tally is not None:
            self._rank_sum += new_rank - p.rank
        p.rank = new_rank
        if new_rank > self.max_rank_seen:
            self.max_rank_seen = new_rank
        return danger

    def _make_safe(self, v):
        # v is a dangerous root. Demotions and rank updates move only v's own
        # danger test (a root has no parent to read its rank), so the tally
        # takes one decrement, when the rank rules report v safe.
        while True:
            self._place(v, v.child.left)
            if not self._recompute_rank(v):
                break
        if self._stat_tally is not None:
            self._dangerous -= 1

    def _cut(self, v):
        """Move v to the right end of the root list, then cascade rank
        updates up from its former parent when that parent is known.

        A vertex's danger test reads only its rank, its rightmost child and
        that child's rho, so the tally of each vertex the cascade changes is
        settled by one probe before its first change and, after its last,
        by the verdict _recompute_rank returns; the deltas of any probes in
        between would telescope. In a read heap v then takes status ROOT,
        its old status leaving the tally, which changes nothing for a root.
        """
        d = self._dummy
        t = self._stat_tally
        # the danger probe, or False while the count is not kept
        dangerous = t is not None and self._is_dangerous
        nxt = v.right
        prev = v.left
        # v's position, by the among-the-last-two end test
        if nxt.right.left.left is v:
            # not among the last two: both neighbors are list members; the
            # owner stays unknown and its rank update is deferred (covered
            # by the rank-surplus potential). v cannot be a rightmost child
            # here, so no parent's danger status changes either. v may be a
            # root already, which the booking below leaves as it was.
            p = None
        else:
            p = nxt if nxt.left is not v else nxt.right  # last : second last
            if p.right is p:
                return  # v is a root already
            if t is not None:
                p_pre = dangerous(p)  # before the move: p loses a child
        if t is not None:
            t[v.status] -= 1
            t[ROOT] += 1
            v.status = ROOT
        # the join_back row of Arena's table: 3 writes to unlink a sole
        # member, else 4, and 4 to append. The root list keeps v's tree
        # root, or other roots besides v, so it is never empty.
        if p is nxt:  # rightmost
            if prev is v:  # sole member
                p.child = None
                writes = 7
            else:
                prev.right = p
                p.child.left = prev
                writes = 8
        else:
            if prev.right is not v:  # leftmost: prev is the rightmost member
                nxt.left = prev
                prev.right.child = nxt
            else:
                prev.right = nxt
                nxt.left = prev
            writes = 8
        first = d.child
        last = first.left
        last.right = v
        v.left = last
        v.right = d
        first.left = v
        self.arena.counters.link_writes += writes
        if p is None:
            return
        while True:
            old = p.rank
            # p's position, by the end tests. p's rank is about to change;
            # when p is among the last two children, its parent g's state
            # before this iteration is probed now, for the next one. A last
            # p moves g's test; a second-last p does not, so probing g early
            # gives the answer a probe after p's changes would.
            nxt = p.right
            if nxt.right.left.left is p:
                g = None  # not among the last two
            else:
                # last : second last
                g = nxt if nxt.left is not p else nxt.right
                if dangerous:
                    g_pre = dangerous(g)
            p_post = self._recompute_rank(p)
            delta = old - p.rank
            assert delta >= 0, "rank increased during cascade"
            # p's own test is settled, and the rules report its outcome: what
            # follows moves p or changes its status, which only its parent's
            # test reads
            if dangerous and p_post != p_pre:
                self._dangerous += 1 if p_post else -1
            stop = True
            if delta == 0:
                pass
            elif g is None:
                # the parent is unreachable in O(1): adjust p's status in
                # place and stop. A root p of a read heap holds ROOT, which
                # this skips; in a lean heap the write may land on a root's
                # meaningless status.
                st = p.status
                if st == NONCRITICAL_INNER or st == CRITICAL_INNER:
                    self._set_status(p, CRITICAL_INNER
                                     if st == NONCRITICAL_INNER and delta == 1
                                     else OUTER_MISPLACED)
            elif g.right is g:
                pass  # p is a root: rank updated, status meaningless
            else:
                st = p.status
                if st == NONCRITICAL_INNER and delta == 1:
                    # rho(p) is preserved: stored rank dropped by one and
                    # the critical bit adds it back
                    self._set_status(p, CRITICAL_INNER)
                    stop = False
                elif st == NONCRITICAL_INNER or st == CRITICAL_INNER:
                    # demote and place immediately: the parent is in hand
                    self._place(g, p)
                    stop = False
                else:
                    pass  # outer child: rank updated, cascade stops here
            if stop:
                # g's test is as it was: either p's rank did not change, or
                # p is an outer child, which the test reads as safe
                return
            if dangerous:
                p_pre = g_pre
            p = g

    # -- public operations ----------------------------------------------

    def insert(self, key):
        d = self._dummy
        if d is None:
            raise StaleHandleError(CONSUMED)
        # the alloc_back row of Arena's table
        a = self.arena
        v = Node(key)
        self._live.add(v)
        first = d.child
        if first is None:
            v.right = d
            d.child = v
            a.counters.link_writes += 4
        else:
            last = first.left
            last.right = v
            v.left = last
            v.right = d
            first.left = v
            a.counters.link_writes += 6
        t = self._stat_tally
        if t is not None:
            t[ROOT] += 1
            v.status = ROOT
        self._size += 1
        return v

    def meld(self, other):
        self._require_alive()
        other._require_alive()
        if other is self:
            raise ValueError("meld of a heap with itself")
        # a read survivor adds other's tallies, counting an unread other's
        # forest before it moves; an unread survivor stays unread
        t = self._stat_tally
        if t is not None and other._stat_tally is None:
            other._seed_tallies()
        # the concat is counted on this heap's arena; each arena keeps the
        # steps made on it before the meld
        self.arena.concat(self._dummy, other._dummy)
        self._size += other._size
        # merge the smaller live set into the larger
        live = self._live
        olive = other._live
        if len(live) < len(olive):
            live, olive = olive, live
            self._live = live
        live |= olive
        if t is not None:
            for i, c in enumerate(other._stat_tally):
                t[i] += c
            self._rank_sum += other._rank_sum
            self._dangerous += other._dangerous
        if other.max_rank_seen > self.max_rank_seen:
            self.max_rank_seen = other.max_rank_seen
        other.arena.free(other._dummy)
        other._dummy = None
        other._live = set()
        other._size = 0
        return self

    def find_min(self):
        # The danger test is written out here, twice, rather than called as
        # _is_dangerous: phase 1 runs it on every root, and the lone-root
        # test on almost every call, delete_min's included, so the call
        # measured slower.
        d = self._dummy
        if d is None:
            raise StaleHandleError(CONSUMED)
        if self._size == 0:
            raise EmptyHeapError("find_min on empty heap")
        x = d.child
        if x.left is x:  # a lone root: both phases spend no step on it if safe
            r = x.rank
            c = x.child
            if not r or c is None:
                return x
            w0 = c.left  # the danger test, inlined
            st = w0.status
            if not (st == NONCRITICAL_INNER and r <= w0.rank
                    or st == CRITICAL_INNER and r <= w0.rank + 1):
                return x
        buckets = [None] * (self.max_rank_seen + 2)
        t = self._stat_tally
        top = self.max_rank_seen
        # completed joins and links, and their link writes; the tallies, when
        # kept, and the counters take them at exit
        joins = links = writes = 0
        try:
            # phase 1: make roots safe, join equal ranks until ranks are
            # distinct. Joins leave _dangerous alone: both roots are safe (v
            # passed _make_safe, and a winner is safe as shown next), and the
            # winner gains a noncritical inner rightmost child with rho = r
            # and rank r + 1 > r.
            v = x
            while v is not d:
                nxt = v.right  # saved before any surgery on v
                r = v.rank
                c = v.child
                if r and c is not None:  # the danger test, inlined
                    w0 = c.left
                    st = w0.status
                    if (st == NONCRITICAL_INNER and r <= w0.rank
                            or st == CRITICAL_INNER and r <= w0.rank + 1):
                        self._make_safe(v)
                        r = v.rank
                w = v
                while True:
                    try:
                        occ = buckets[r]
                    except IndexError:
                        buckets.extend([None] * len(buckets))
                        continue
                    if occ is None:
                        buckets[r] = w
                        break
                    buckets[r] = None
                    if occ.key <= w.key:
                        w, loser = occ, w
                    else:
                        loser = occ
                    # the join_back row of Arena's table: the loser shares
                    # the root list with w, so it is never sole there
                    if loser.right is d:  # rightmost
                        prev = loser.left
                        prev.right = d
                        d.child.left = prev
                    elif loser is d.child:  # leftmost
                        succ = loser.right
                        succ.left = loser.left
                        d.child = succ
                    else:
                        prev = loser.left
                        succ = loser.right
                        prev.right = succ
                        succ.left = prev
                    first = w.child
                    if first is None:
                        loser.left = loser
                        loser.right = w
                        w.child = loser
                        writes += 6
                    else:
                        last = first.left
                        last.right = loser
                        loser.left = last
                        loser.right = w
                        first.left = loser
                        writes += 8
                    loser.status = NONCRITICAL_INNER
                    joins += 1
                    r += 1
                    w.rank = r
                    if r > top:
                        top = r
                v = nxt

            # phase 2: link last with second last, moving leftward
            # cyclically. Links leave _dangerous alone: pushing to the front
            # keeps the winner's rank and rightmost child, and a winner
            # without children gets a placed child, which cannot make it
            # dangerous.
            x = d.child.left
            while True:
                y = x.left
                if y is x:
                    break
                if y.key <= x.key:
                    winner, loser = y, x
                else:
                    winner, loser = x, y
                # the join_front row of Arena's table: at least two roots
                # remain, so the loser is never sole
                if loser.right is d:  # rightmost
                    prev = loser.left
                    prev.right = d
                    d.child.left = prev
                elif loser is d.child:  # leftmost
                    succ = loser.right
                    succ.left = loser.left
                    d.child = succ
                else:
                    prev = loser.left
                    succ = loser.right
                    prev.right = succ
                    succ.left = prev
                first = winner.child
                if first is None:
                    loser.left = loser
                    loser.right = winner
                    winner.child = loser
                    writes += 6
                else:
                    loser.left = first.left
                    loser.right = first
                    first.left = loser
                    winner.child = loser
                    writes += 8
                loser.status = OUTER_PLACED
                links += 1
                x = winner.left
        finally:
            counters = self.arena.counters
            counters.link_writes += writes
            counters.comparisons += joins + links
            if t is not None:
                t[NONCRITICAL_INNER] += joins
                t[OUTER_PLACED] += links
                t[ROOT] -= joins + links
                self._rank_sum += joins
            if top > self.max_rank_seen:  # _make_safe may have raised it
                self.max_rank_seen = top
        return x

    def delete_min(self):
        if self._dummy is None:
            raise StaleHandleError(CONSUMED)
        if self._size == 0:
            raise EmptyHeapError("delete_min on empty heap")
        m = self.find_min()
        key = m.key
        self._remove_root(m)  # m is a safe root: no tally moves
        return key

    def decrease_key(self, v, new_key):
        if self._dummy is None:
            raise StaleHandleError(CONSUMED)
        # a live vertex of this heap; a non-Node handle may not even hash
        if not isinstance(v, Node) or v not in self._live:
            raise StaleHandleError(STALE % (v,))
        # `>` comparisons only, and one on the common path
        if not v.key > new_key:
            if new_key > v.key:
                raise KeyIncreaseError(
                    "decrease_key %r -> %r is an increase" % (v.key, new_key))
            # an equal key: v keeps its place, and with it every comparison
            # it has lost, which a cut would make find_min repeat
            return
        self._cut(v)
        v.key = new_key

    def delete(self, v):
        if self._dummy is None:
            raise StaleHandleError(CONSUMED)
        # a live vertex of this heap; a non-Node handle may not even hash
        if not isinstance(v, Node) or v not in self._live:
            raise StaleHandleError(STALE % (v,))
        self._cut(v)
        # the cut moved neither v's rank nor its children, so v's danger
        # state is still counted and leaves with it
        if self._stat_tally is not None and self._is_dangerous(v):
            self._dangerous -= 1
        self._remove_root(v)

    def _remove_root(self, m):
        """Free root m; the caller has taken m off the danger tally.

        The detach_promote row of Arena's table, then Arena.free, written
        out: m's children become roots at the right end, in order, in O(1).
        A read heap then walks them, at most size members, to mark them
        ROOT.
        """
        d = self._dummy
        kid = m.child
        prev = m.left
        if prev is m:  # the sole root: its children, if any, replace it
            d.child = kid
            if kid is None:
                writes = 3
            else:
                kid.left.right = d
                writes = 6
        else:
            nxt = m.right
            if nxt is d:  # rightmost
                prev.right = d
                d.child.left = prev
            elif m is d.child:  # leftmost
                nxt.left = prev
                d.child = nxt
            else:
                prev.right = nxt
                nxt.left = prev
            if kid is None:
                writes = 4
            else:
                first = d.child
                last = first.left
                k_last = kid.left
                last.right = kid
                kid.left = last
                k_last.right = d
                first.left = k_last
                writes = 9
        live = self._live
        assert m in live, "double free / foreign node"
        live.discard(m)
        # scrub links so a stale handle dereference fails fast; not counted
        m.left = m.right = m.child = None
        self.arena.counters.link_writes += writes
        t = self._stat_tally
        if t is not None:
            self._rank_sum -= m.rank
            if kid is None:
                t[ROOT] -= 1
            else:
                # the promoted children end the root list: m leaves the
                # tree count, and hops + 1 children join it
                for hops in range(self._size):
                    t[kid.status] -= 1
                    kid.status = ROOT
                    kid = kid.right
                    if kid is d:
                        break
                t[ROOT] += hops
        self._size -= 1

    # -- potentials -------------------------------------------------------

    def _seed_tallies(self):
        """Count the tallies from the forest, start keeping them, and return
        the status tally.

        The root list is walked first: its members are marked ROOT, and
        every later member is counted by status. As the auditor's walk
        does, a nonroot status outside 0..3 is counted as noncritical
        inner, and a child list is left where a member's right link is None
        (a freed vertex's) or its right neighbor does not link back to it.
        The walk reaches at most size + 1 members in all, so broken links
        cannot make it loop, and a link into a freed vertex does not make
        it raise; on such a forest the tallies are whatever it counted, and
        the audit reports the links.
        """
        t = [0, 0, 0, 0, 0]
        rank_sum = dangerous = 0
        is_dangerous = self._is_dangerous
        d = self._dummy
        left = self._size + 1
        stack = [d] if d.child is not None else []
        while stack and left:
            owner = stack.pop()
            v = owner.child
            while left:
                left -= 1
                if owner is d:
                    v.status = ROOT
                    t[ROOT] += 1
                else:
                    st = v.status
                    t[st if NONCRITICAL_INNER <= st <= OUTER_MISPLACED
                      else NONCRITICAL_INNER] += 1
                rank_sum += v.rank
                c = v.child
                if c is not None:
                    if c.left is not None:  # else c is freed: no danger test
                        dangerous += is_dangerous(v)
                    stack.append(v)
                nxt = v.right
                if nxt is None or nxt.left is not v:
                    break
                v = nxt
        self._stat_tally = t
        self._rank_sum = rank_sum
        self._dangerous = dangerous
        return t

    def potentials(self):
        """(phi0..phi6) from the tallies, in O(1).

        phi0 trees, the ROOT tally; phi1 placed outer children; phi2 capped
        tree count; phi3 critical nonroots; phi4 rank surplus sum(r - c - n)
        over all vertices, c and n counting nonroots; phi5 misplaced outer
        children; phi6 dangerous vertices. The first read seeds the tallies
        from one walk of the forest, O(n), which broken links cannot make
        loop, and marks the roots ROOT; later reads follow no link.
        """
        if self._dummy is None:
            raise StaleHandleError(CONSUMED)
        t = self._stat_tally
        if t is None:
            t = self._seed_tallies()
        noncritical, critical, placed, misplaced, tau = t  # by status
        # plastic_cap(n) >= 3 for n >= 2, and one vertex makes one tree, so
        # up to three trees are never capped
        return (tau, placed,
                tau if tau <= 3 else min(tau, plastic_cap(self._size)),
                critical, self._rank_sum - noncritical - critical,
                misplaced, self._dangerous)
