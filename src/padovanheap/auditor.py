"""Invariant checker and amortized-cost auditor for the Padovan heap.

Everything here recomputes its answers from the raw forest — it never trusts
the heap's own incremental tallies (those are what verify_tallies checks).
Every check is made in one iterative link walk that follows no child list
for more than heap.size + 1 hops, so corrupted links cannot hang
audit_state, check_structure, check_size_bounds, verify_tallies or
compute_potentials. The walk makes all of a vertex's checks in the hop
that reaches it, and an owner's rank rules once its list has ended at the
owner; a list that does not (a link into a freed vertex, whose links are
None, among them) is reported and what its members added is undone. An
owner's active-closure size is set in its checks when its active children
are leaves; only an owner with an active child that has children waits
for a second, reverse pass over such owners.
check_root_safety and iter_vertices start from heap.roots(), which stops
after heap.size members, so a corrupted root list cannot hang them; below
the roots, children and iter_vertices trust links and are for sound heaps.
BudgetAudit reads potentials(): a heap's first read seeds its tallies in
a bounded walk, and later reads follow no link, so a corrupted forest
cannot hang the budget audit either.

The amortized side mechanizes the accounting that makes the heap work:
seven potentials

    phi0  tree count
    phi1  outer placed children
    phi2  tree count capped by the plastic-number logarithm of n
    phi3  critical nonroots
    phi4  deferred rank decreases, sum of r_v minus the inner-child count
    phi5  outer misplaced children
    phi6  dangerous vertices

are combined into W = sum(t_i * phi_i) by a CostModel, and every traced
operation's counted steps plus the change in W must stay under a constant
(insert, find_min, decrease_key) or a logarithmic (delete_min, delete)
budget. meld is not traced, so not audited (see BudgetAudit).

Counted steps are the analysis units: key comparisons, rank-rule
applications, and placing steps.  Raw pointer writes are tracked separately
by the arena (they matter for the O(1)-per-insert claim) but are not what
the potentials were designed to pay for.
"""

import math

from .node_store import (
    NONCRITICAL_INNER,
    CRITICAL_INNER,
    OUTER_PLACED,
    OUTER_MISPLACED,
    Node,
)
from .padovan import _LOG_PLASTIC, PadovanHeap, plastic_cap
from .trace import replay


class Violation:
    """One broken invariant, rendered as machine-readable key=value text."""

    __slots__ = ("kind", "info")

    def __init__(self, kind, **info):
        self.kind = kind
        self.info = info

    def render(self):
        parts = ["kind=%s" % self.kind]
        for k in sorted(self.info):
            parts.append("%s=%r" % (k, self.info[k]))
        return " ".join(parts)

    __str__ = render

    def __repr__(self):
        return "Violation(%s)" % self.render()


class CostModel:
    """Weights t0..t6 for the potentials plus the two audit budgets.

    The default weights satisfy the required inequalities
        t0 <= t1 < t2,  t1 < t5 < t6,  t5 + t6 < t3,  t5 + t6 < t4
    and the budgets were calibrated by measuring the worst per-op charge on
    random/ascending/competition traces disjoint from every test trace
    (max const charge seen: 15, from decrease_key cascades; max normalized
    log charge: 1.9), then doubling and freezing.
    """

    __slots__ = ("t", "budget_const", "budget_log")

    def __init__(self, t=(1, 1, 2, 6, 6, 2, 3),
                 budget_const=30, budget_log=4):
        self.t = tuple(t)
        if len(self.t) != 7:
            raise ValueError("need seven weights t0..t6, got %d" % len(self.t))
        self.budget_const = budget_const
        self.budget_log = budget_log
        self.check_constraints()

    def check_constraints(self):
        t0, t1, t2, t3, t4, t5, t6 = self.t
        for ok, rule in ((t0 <= t1 < t2, "t0 <= t1 < t2"),
                         (t1 < t5 < t6, "t1 < t5 < t6"),
                         (t5 + t6 < t3, "t5 + t6 < t3"),
                         (t5 + t6 < t4, "t5 + t6 < t4")):
            if not ok:
                raise ValueError("need " + rule)
        return True

    def log_budget(self, n):
        """Budget for delete_min/delete on a heap of size n (pre-op)."""
        n = max(n, 1)
        return self.budget_log * (1.0 + math.log(n) / _LOG_PLASTIC)

    def weighted(self, phis):
        """W = sum(t_i * phi_i) over the seven potentials phis."""
        t0, t1, t2, t3, t4, t5, t6 = self.t
        p0, p1, p2, p3, p4, p5, p6 = phis
        return (t0 * p0 + t1 * p1 + t2 * p2 + t3 * p3 + t4 * p4 + t5 * p5
                + t6 * p6)

    def __repr__(self):
        return "CostModel(t=%r, budget_const=%r, budget_log=%r)" % (
            self.t, self.budget_const, self.budget_log)


def size_bound_table(max_rank):
    """Minimal active-subtree sizes by rank: the Padovan recurrence.

    P(0) = P(1) = P(2) = 1 and P(r) = 1 + P(r-2) + P(r-3) afterward.
    """
    P = [1] * max(3, max_rank + 1)
    for r in range(3, max_rank + 1):
        P[r] = 1 + P[r - 2] + P[r - 3]
    return P


_TALLY_FIELDS = ("_rank_sum",) + tuple("_stat_tally[%d]" % i
                                       for i in range(5))
_size_bounds = size_bound_table(2)
_STATUSES = frozenset((NONCRITICAL_INNER, CRITICAL_INNER, OUTER_PLACED,
                       OUTER_MISPLACED))


def _bounds(max_rank):
    """The module's size_bound_table, regrown to reach max_rank."""
    global _size_bounds
    if max_rank >= len(_size_bounds):
        # a new list, so a reader holding the old one still reads it whole
        _size_bounds = size_bound_table(max(max_rank, 2 * len(_size_bounds)))
    return _size_bounds


def _rho(v):
    return v.rank + 1 if v.status == CRITICAL_INNER else v.rank


def _is_dangerous(v):
    # independent reimplementation of the O(1) safe test; a child link into
    # a freed vertex, whose links are None, reads as not dangerous, since
    # audit_state reports it
    if v.rank == 0 or v.child is None:
        return False
    w0 = v.child.left
    if w0 is None or w0.status > CRITICAL_INNER:
        return False
    return v.rank <= _rho(w0)


def children(v):
    """v's children, leftmost first. Trusts links."""
    kids = []
    w = v.child
    if w is not None:
        while True:
            kids.append(w)
            if w.right.left is not w:
                break
            w = w.right
    return kids


def iter_vertices(heap):
    """Yield every live vertex, parents before children. Trusts links."""
    stack = list(heap.roots())
    stack.reverse()
    pop = stack.pop
    push = stack.append
    while stack:
        v = pop()
        yield v
        first = v.child
        if first is not None:
            # push the list from its rightmost member leftward, so that
            # the leftmost member pops next
            w = first.left
            while w is not first:
                push(w)
                w = w.left
            push(first)


def _audit(heap):
    """Audit the forest in one bounded walk; every check is made in it.

    Returns (structure, undersized, tallies, phis): the violations of
    check_structure's pass 2, check_size_bounds and verify_tallies, and
    phi0..phi6 recounted. When pass 1 (the link checks) finds anything,
    its violations stand in for each of the three lists, phis is None and
    the content results are thrown away. Raises StaleHandleError on a heap
    consumed by meld.

    The walk pops an owner and hops along its child list, at most
    heap.size + 1 hops, making all of a member's checks in the hop that
    reaches it. When the list ends at its owner, the owner's checks
    follow, from the rightmost member w0 and its left neighbour. When it
    does not (the cap is exceeded, or an end, a None right link included,
    is not the owner), the list is broken: what its members added to
    links, stack and seen is undone, so the walk neither trusts nor
    recurses into it, and one broken_owner_link stands for it. seen maps
    each vertex reached to the size of its active closure: the hop sets
    1, and an owner's checks set the owner's own size at once when its
    active children are leaves. An owner with an active child that has
    children waits for one reverse pass over such owners, which comes
    children first. A vertex's rank-rule violations come after the content
    violations, in the order the walk reached the vertices.
    """
    # the statuses as locals, since every hop reads them
    N = NONCRITICAL_INNER
    C = CRITICAL_INNER
    P = OUTER_PLACED
    M = OUTER_MISPLACED
    statuses = _STATUSES
    live = heap._live
    d = heap._require_alive()
    n = heap._size
    cap = n + 1
    hop_range = range(1, cap + 1)  # the hops of one list, counted from 1
    links = []     # pass 1
    content = []   # pass 2, per child list
    bad = {}       # pass 2, per vertex: vertex -> its violations
    flag = bad.setdefault
    short = {}     # vertex -> size_bound violation
    seen = {}      # vertex reached -> active-closure size; a non-Node by id
    grow = []      # (owner, a, b): an active child a or b has children
    big = []       # owners of rank 3 or more, the ranks P(r) > 1 bounds
    # The nonroot status tallies but noncritical inner, which are the rest:
    # an unknown status, ROOT included, counts as noncritical inner, as the
    # heap's seeding walk counts it. The walk reads no root status: the
    # tree count tau stands for the ROOT tally, since in a read heap every
    # root holds ROOT, and an unread heap's root statuses mean nothing.
    critical = placed = misplaced = 0
    rank_sum = dangerous = tau = 0
    # The root list pushes its owners first, so they lie at the bottom of
    # the stack: an owner popped from below the lowest root popped so far
    # is a root, and everything pushed after that root lies above it.
    root_depth = 0
    stack = [d] if d.child is not None else []
    pop = stack.pop
    push = stack.append
    while stack:
        owner = pop()
        depth = len(stack)
        is_root = depth < root_depth
        if is_root:
            root_depth = depth
        top = owner is d
        okey = owner.key
        n_links = len(links)  # to undo a broken list
        seen_nonplaced = False
        # inner children: inner_idx of them have an inner status, and neg
        # a negative one, which still counts toward the owner's rank budget
        inner_idx = neg = 0
        prev_rho = None
        nxt = owner.child
        for hops in hop_range:
            v = nxt
            nxt = v.right
            # a live vertex of the heap; a Node hashes by identity
            if not isinstance(v, Node) or v not in live:
                if id(v) in seen:
                    links.append(Violation("shared_vertex", key=v.key))
                else:
                    links.append(Violation("dead_vertex", key=v.key))
                    seen[id(v)] = 1
                    if v.child is not None:
                        push(v)
            elif v in seen:
                links.append(Violation("shared_vertex", key=v.key))
            else:
                seen[v] = 1
                r = v.rank
                rank_sum += r
                if v.child is not None:
                    push(v)
                elif r != 0:  # a leaf: size 1, not dangerous, rank 0 expected
                    if r < 0:
                        bad[v] = [Violation("negative_rank", key=v.key,
                                            rank=r)]
                    else:
                        if r >= 3:
                            short[v] = Violation(
                                "size_bound", key=v.key, rank=r, size=1,
                                bound=_bounds(r)[r])
                        bad[v] = [Violation(
                            "rank_mismatch", key=v.key, rank=r, expect=0,
                            detail="no inner children")]
                st = v.status
                if top:
                    pass  # statuses and order are meaningless on roots
                elif st not in statuses:
                    neg += st < N
                    content.append(Violation("bad_status", key=v.key,
                                             status=st))
                else:
                    try:
                        if v.key < okey:
                            content.append(Violation(
                                "heap_order", parent_key=okey,
                                child_key=v.key))
                    except TypeError:  # e.g. a foreign heap's head, keyed None
                        content.append(Violation(
                            "incomparable_key", parent_key=okey,
                            child_key=v.key))
                    if st == P:
                        placed += 1
                        if seen_nonplaced:
                            content.append(Violation(
                                "layout", parent_key=okey, child_key=v.key,
                                detail="placed child after the placed prefix"))
                    elif st == M:
                        misplaced += 1
                        seen_nonplaced = True
                    else:
                        seen_nonplaced = True
                        if st == C:
                            critical += 1
                            rho = r + 1
                        else:
                            rho = r
                        if rho < inner_idx:
                            content.append(Violation(
                                "index_bound", parent_key=okey,
                                child_key=v.key, inner_index=inner_idx,
                                rho=rho))
                        if prev_rho is not None and rho < prev_rho + 1:
                            content.append(Violation(
                                "inner_order", parent_key=okey,
                                child_key=v.key, prev_rho=prev_rho, rho=rho))
                        prev_rho = rho
                        inner_idx += 1
            # v is the rightmost member unless its right neighbour links
            # back to it
            if nxt is None or nxt.left is not v:
                break
        else:
            v = None  # the cap is exceeded
        # A sound list ends within the cap, its rightmost member's right link
        # at the owner. Undo what a broken list's members added, so the walk
        # neither trusts nor recurses into it: each hop added to seen but
        # one that found a shared vertex.
        if v is None or nxt is not owner:
            shared = sum(x.kind == "shared_vertex" for x in links[n_links:])
            del links[n_links:]
            del stack[depth:]
            for _ in range(hops - shared):
                seen.popitem()  # dicts pop last in, first out
            if v is None:
                links.append(Violation(
                    "broken_owner_link", owner_key=okey,
                    detail="right walk exceeded %d nodes" % cap))
            else:
                links.append(Violation(
                    "broken_owner_link", owner_key=okey, child_key=v.key))
            continue
        # left links close one cycle: leftmost.left == rightmost; each hop
        # checked every other member's left link. The list's own link
        # violations come after this one.
        first = owner.child
        if first.left is not v:
            links.insert(n_links, Violation(
                "broken_left_cycle", owner_key=okey, child_key=first.key))
        if top:
            root_depth = len(stack)
            tau = hops
            continue
        if links:
            continue  # every content result is thrown away

        # The owner's own checks; with the links sound, r and st still hold
        # the rank and status of the rightmost member w0. rho and
        # _is_dangerous (a nonzero rank, an inner w0 and rank <= rho(w0))
        # are written out. w0 is active unless outer; w1 too unless a gap
        # (rule 1/2) is forced: a misplaced w1, a placed w1 (rho = -1), or
        # rho0 > rho(w1) + 1.
        w0 = v
        st0 = st
        rho0 = r + 1 if st0 == C else r
        r = owner.rank
        danger = r != 0 and st0 <= C and r <= rho0
        dangerous += danger
        gap = rho0 > 0
        if st0 == M:
            # not at rest, yet sized as the seek phase would: skip the
            # misplaced tail
            members = children(owner)
            i = len(members) - 2
            while i >= 0 and members[i].status == M:
                i -= 1
            if i >= 0 and members[i].status != P:
                a = members[i]
                b = None
                if i > 0:
                    u = members[i - 1]
                    su = u.status
                    if su != M and su != P and _rho(a) <= _rho(u) + 1:
                        b = u
                grow.append((owner, a, b))
        elif st0 != P:
            b = None
            if hops >= 2:
                u = w0.left
                su = u.status
                if su == M:
                    gap = True
                elif su != P:
                    gap = rho0 > (u.rank + 1 if su == C else u.rank) + 1
                    if not gap:
                        b = u
            # the active closure's size, at once when the active children
            # are leaves, each of size 1
            if w0.child is None and (b is None or b.child is None):
                seen[owner] = 2 if b is None else 3
            else:
                grow.append((owner, w0, b))
        if r >= 3:
            big.append(owner)
        elif r < 0:  # no size bound: the table starts at rank 0
            bad[owner] = [Violation("negative_rank", key=owner.key, rank=r)]
            continue
        if r < inner_idx + neg:
            bad[owner] = [Violation("rank_budget", key=owner.key, rank=r,
                                    inner_children=inner_idx + neg)]
        # rank consistency against the rules, on the resting forest
        if st0 == M:
            flag(owner, []).append(Violation(
                "misplaced_rightmost", key=owner.key, child_key=w0.key))
        elif st0 == P:
            if r != 0:
                flag(owner, []).append(Violation(
                    "rank_mismatch", key=owner.key, rank=r, expect=0,
                    detail="no inner children"))
        elif gap and st0 == C:
            # rule 2 is pending; tolerated deep in a tree, never at a root
            if is_root:
                flag(owner, []).append(Violation(
                    "rule2_pending_root", key=owner.key, rank=r, rho0=rho0))
        else:
            expect = rho0 if gap else rho0 + 1
            if r != expect:
                flag(owner, []).append(Violation(
                    "rank_mismatch", key=owner.key, rank=r, expect=expect,
                    gap=gap, rho0=rho0))
            if danger and owner.status == N and not is_root:
                flag(owner, []).append(Violation(
                    "steady_dangerous", key=owner.key, rank=r, rho0=rho0))

    if links:
        return links, links, links, None
    if n != len(seen):
        links.append(Violation(
            "size_mismatch", reachable=len(seen), recorded=n))
        return links, links, links, None

    # the waiting sizes (see check_size_bounds), children first
    for owner, a, b in reversed(grow):
        seen[owner] = (1 + seen[a] if b is None
                       else 1 + seen[a] + seen[b])
    # P(0..2) = 1, so ranks below 3 are never undersized
    for owner in big:
        r = owner.rank
        bound = _bounds(r)[r]
        size = seen[owner]
        if size < bound:
            short[owner] = Violation(
                "size_bound", key=owner.key, rank=r, size=size, bound=bound)

    structure = content
    if bad:
        for v in seen:
            vs = bad.get(v)
            if vs is not None:
                structure.extend(vs)
    # parents before children; pass 1 found the links sound, so this ends
    undersized = ([short[v] for v in iter_vertices(heap) if v in short]
                  if short else [])

    noncritical = n - tau - critical - placed - misplaced
    # a tree holds at least one vertex, and plastic_cap(n) >= 3 for n >= 2,
    # so up to three trees are never capped
    phis = (tau, placed, tau if tau <= 3 else min(tau, plastic_cap(n)),
            critical, rank_sum - noncritical - critical, misplaced,
            dangerous)
    # potentials() first; the raw ingredients only when all seven agree,
    # since phi4 reads the rank sum and the noncritical tally only through
    # their difference (phi6 is the dangerous-vertex count itself)
    cached = heap.potentials()
    if phis != cached:
        return structure, undersized, [
            Violation("tally_mismatch", phi=i, walked=phis[i],
                      cached=cached[i])
            for i in range(7) if phis[i] != cached[i]], phis
    walked = [rank_sum, noncritical, critical, placed, misplaced, tau]
    fields = [heap._rank_sum] + heap._stat_tally
    if walked == fields:
        return structure, undersized, [], phis
    return structure, undersized, [
        Violation("tally_mismatch", field=f, walked=w, cached=c)
        for f, w, c in zip(_TALLY_FIELDS, walked, fields) if w != c], phis


def compute_potentials(heap):
    """Recompute phi0..phi6 from scratch by walking the forest.

    Raises ValueError when the walk finds broken links.
    """
    links, _, _, phis = _audit(heap)
    if phis is None:
        raise ValueError("broken links: " + "; ".join(map(str, links)))
    return phis


def verify_tallies(heap):
    """Compare the heap's incremental tallies against a fresh walk."""
    return _audit(heap)[2]


def check_structure(heap):
    """Evaluate every structural invariant; violations are data, not errors.

    Pass 1 checks the doubly linked lists themselves (right chains end at
    their owner, left links close the cycle, no vertex is shared, every
    vertex is live in the heap, the partition covers exactly heap.size
    vertices). If pass 1 finds anything, those violations are returned
    alone — content checks over broken links would be noise.

    Pass 2 checks content: heap order (a child key that does not compare
    with its owner's is an incomparable_key), the placed-prefix layout,
    strictly increasing inner rho (****), the index bound (***), the rank
    budget (*), rank consistency against the rank rules, the
    no-steady-dangerous rule (**), no misplaced rightmost child at rest,
    and no root left in the rule-2 state (critical rightmost child across a
    gap).
    """
    return _audit(heap)[0]


def check_size_bounds(heap):
    """Check |active closure|(v) >= P(r_v) for every vertex.

    The active children of v are the rule-designated rightmost inner child
    w0 and, when the no-gap rule applies and the left neighbor is inner,
    that neighbor w1.  Misplaced children that have not been swept yet are
    skipped the same way the seek phase would skip them.  Violations come
    parents before children.
    """
    return _audit(heap)[1]


def check_root_safety(heap):
    """No dangerous root may survive find_min/delete_min."""
    return [Violation("unsafe_root", key=r.key, rank=r.rank)
            for r in heap.roots() if _is_dangerous(r)]


def audit_state(heap):
    """One-stop state audit from one walk: structure, then size bounds and
    tallies."""
    structure, undersized, tallies, _ = _audit(heap)
    return structure or undersized + tallies


class BudgetAudit:
    """Replay observer that charges each operation against its budget.

    Pass after to trace.replay. For each event, with s = counted analysis
    steps (comparisons + rank-rule applications + placings) and dW the
    change of the weighted potential, it requires

        s + dW <= budget_const                      for i, f, k
        s + dW <= budget_log * (1 + log_beta n)     for d, x   (n pre-op)

    and appends a budget Violation to violations when an event breaks it.
    meld is not audited: no trace event melds. Its charge is not flat
    either, since the melded heap's phi2 cap grows with log_beta(n2 / n1).
    When rows is a list, a (op, s, dW, n_before, charge, bound) row is
    appended per event; that is the calibration hook.

    One potential read per event: each event is charged against the
    snapshot (W, analysis steps, size) the previous one left, the first
    taken by __init__. So the charges telescope to the change in steps plus
    W_end - W_0, and a heap change made between events is charged to the
    next. W comes from the heap's incremental tallies. The snapshot that
    __init__ takes is the heap's first potentials() read, unless something
    read it before: that read seeds the tallies from one O(n) walk of the
    forest, and the heap keeps them exact from then on, so each later read
    is O(1) and follows no link. verify_tallies pins the kept tallies to a
    full recount during fuzzing, so the audit can trust them.
    """

    __slots__ = ("heap", "model", "rows", "violations", "_counters", "_w",
                 "_s", "_n")

    def __init__(self, heap, model=None, rows=None):
        self.heap = heap
        self.model = model if model is not None else CostModel()
        self.rows = rows
        self.violations = []
        self._counters = heap.arena.counters
        self._w = self.model.weighted(heap.potentials())
        self._s = self._counters.analysis_steps
        self._n = heap.size

    def after(self, idx, ev):
        heap = self.heap
        model = self.model
        w = model.weighted(heap.potentials())
        s = self._counters.analysis_steps - self._s
        dw = w - self._w
        charge = s + dw
        op = ev[0]
        if op == "d" or op == "x":
            bound = model.log_budget(self._n)
        else:
            bound = model.budget_const
        if self.rows is not None:
            self.rows.append((op, s, dw, self._n, charge, bound))
        if charge > bound:
            self.violations.append(Violation(
                "budget", op=op, index=idx, steps=s, dW=dw,
                charge=charge, bound=round(bound, 3)))
        self._w, self._s, self._n = w, self._s + s, heap._size


def audit_amortized(events, model=None, stats_out=None):
    """Replay a trace on a fresh PadovanHeap under a BudgetAudit.

    Returns the list of budget Violations (empty when the accounting holds).
    When stats_out is a list, it receives BudgetAudit's per-event rows.
    """
    heap = PadovanHeap()
    audit = BudgetAudit(heap, model, stats_out)
    replay(events, heap, after=audit.after)
    return audit.violations
