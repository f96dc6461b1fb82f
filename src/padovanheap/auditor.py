"""Invariant checker and amortized-cost auditor for the Padovan heap.

Everything here recomputes its answers from the raw forest — it never trusts
the heap's own incremental tallies (those are what verify_tallies checks).
Every check reads one iterative link walk that follows no child list for
more than heap.size + 1 hops, so corrupted links cannot hang the auditor;
children and iter_vertices trust links and are for sound heaps.

The amortized side mechanizes the accounting that makes the heap work:
seven potentials

    phi0  tree count
    phi1  outer placed children
    phi2  tree count capped by the plastic-number logarithm of n
    phi3  critical nonroots
    phi4  deferred rank decreases, sum of r_v minus the inner-child count
    phi5  outer misplaced children
    phi6  dangerous vertices

are combined into W = sum(t_i * phi_i) by a CostModel, and every operation's
counted steps plus the change in W must stay under a constant (insert, meld,
find_min, decrease_key) or a logarithmic (delete_min, delete) budget.

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
from .padovan import PLASTIC, PadovanHeap, plastic_cap
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
        assert len(self.t) == 7
        self.budget_const = budget_const
        self.budget_log = budget_log
        self.check_constraints()

    def check_constraints(self):
        t0, t1, t2, t3, t4, t5, t6 = self.t
        assert t0 <= t1 < t2, "need t0 <= t1 < t2"
        assert t1 < t5 < t6, "need t1 < t5 < t6"
        assert t5 + t6 < t3, "need t5 + t6 < t3"
        assert t5 + t6 < t4, "need t5 + t6 < t4"
        return True

    def log_budget(self, n):
        """Budget for delete_min/delete on a heap of size n (pre-op)."""
        n = max(n, 1)
        return self.budget_log * (1.0 + math.log(n) / math.log(PLASTIC))

    def weighted(self, phis):
        """W = sum(t_i * phi_i) over the seven potentials phis."""
        t = self.t
        return (t[0] * phis[0] + t[1] * phis[1] + t[2] * phis[2]
                + t[3] * phis[3] + t[4] * phis[4] + t[5] * phis[5]
                + t[6] * phis[6])

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


def _rho(v):
    return v.rank + 1 if v.status == CRITICAL_INNER else v.rank


def _is_dangerous(v):
    # independent reimplementation of the O(1) safe test
    if v.rank == 0 or v.child is None:
        return False
    w0 = v.child.left
    if w0.status > CRITICAL_INNER:
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
    while stack:
        v = stack.pop()
        yield v
        if v.child is not None:
            stack.extend(reversed(children(v)))


def _walk(heap):
    """Pass 1 of check_structure: the one link walk every check reads.

    No child list is followed for more than heap.size + 1 hops, and a
    broken list is not descended into, so corrupted links cannot hang the
    auditor. Returns (violations, seen, lists): seen holds every vertex
    reached, keyed by the vertex itself in discovery order (a vertex that
    is not a live Node is keyed by its id, so any object can be reported),
    and lists holds (owner, members) in discovery order, the root list
    first, so reversed(lists) is children first. Best-effort when
    violations is non-empty. Raises StaleHandleError on a heap consumed by
    meld.
    """
    live = heap.arena._live
    d = heap._require_alive()
    cap = heap.size + 1
    violations = []
    seen = {}
    lists = []
    stack = [d] if d.child is not None else []
    while stack:
        owner = stack.pop()
        members = []
        lists.append((owner, members))
        v = owner.child
        for _ in range(cap):
            members.append(v)
            nxt = v.right
            if nxt.left is not v:
                break
            v = nxt
        else:
            violations.append(Violation(
                "broken_owner_link", owner_key=owner.key,
                detail="right walk exceeded %d nodes" % cap))
            continue
        # v says it is the rightmost; its right link must be the owner
        if nxt is not owner:
            violations.append(Violation(
                "broken_owner_link", owner_key=owner.key, child_key=v.key))
            continue  # do not trust or recurse into a broken list
        prev = v  # left links close one cycle: leftmost.left == rightmost
        for v in members:
            if v.left is not prev:
                violations.append(Violation(
                    "broken_left_cycle", owner_key=owner.key, child_key=v.key))
            prev = v
            # Arena.is_live(v), written out; a Node hashes by identity
            if isinstance(v, Node) and v in live:
                if v in seen:
                    violations.append(Violation("shared_vertex", key=v.key))
                    continue
                seen[v] = None
            else:
                if id(v) in seen:
                    violations.append(Violation("shared_vertex", key=v.key))
                    continue
                violations.append(Violation("dead_vertex", key=v.key))
                seen[id(v)] = None
            if v.child is not None:
                stack.append(v)
    if not violations and len(seen) != heap.size:
        violations.append(Violation(
            "size_mismatch", reachable=len(seen), recorded=heap.size))
    return violations, seen, lists


def _audit(heap, table=None):
    """Walk the forest once; read every check from that one walk.

    Returns (structure, undersized, tallies, phis): the violations of
    check_structure's pass 2, check_size_bounds and verify_tallies, and
    phi0..phi6 recounted. When pass 1 finds anything, its violations
    stand in for each of the three lists and phis is None. Past pass 1
    every vertex is a live Node, so the child lists, sizes, inner-child
    counts and root set are keyed by the vertex itself; each owner's
    inner-child count comes from the content pass, and the per-vertex
    pass writes rho and the danger test out.
    """
    links, seen, lists = _walk(heap)
    if links:
        return links, links, links, None
    if table is None:
        table = size_bound_table(heap.max_rank_seen + 1)
    violations = []
    kids_of = dict(lists)
    roots = set(lists[0][1]) if lists else set()

    # pass 2, per child list; the root list, lists[0], is skipped, since
    # statuses and order are meaningless there. Each owner's inner-child
    # count (status <= CRITICAL_INNER, a negative status too) is taken
    # here for the rank budget below.
    inner_of = {}
    for owner, members in lists[1:]:
        okey = owner.key
        seen_nonplaced = False
        inner = 0
        inner_idx = 0
        prev_rho = None
        for v in members:
            st = v.status
            if st <= CRITICAL_INNER:
                inner += 1
            if not (NONCRITICAL_INNER <= st <= OUTER_MISPLACED):
                violations.append(Violation(
                    "bad_status", key=v.key, status=st))
                continue
            if v.key < okey:
                violations.append(Violation(
                    "heap_order", parent_key=okey, child_key=v.key))
            if st == OUTER_PLACED:
                if seen_nonplaced:
                    violations.append(Violation(
                        "layout", parent_key=okey, child_key=v.key,
                        detail="placed child after the placed prefix"))
            else:
                seen_nonplaced = True
            if st <= CRITICAL_INNER:
                rho = v.rank + 1 if st == CRITICAL_INNER else v.rank
                if rho < inner_idx:
                    violations.append(Violation(
                        "index_bound", parent_key=okey, child_key=v.key,
                        inner_index=inner_idx, rho=rho))
                if prev_rho is not None and rho < prev_rho + 1:
                    violations.append(Violation(
                        "inner_order", parent_key=okey, child_key=v.key,
                        prev_rho=prev_rho, rho=rho))
                prev_rho = rho
                inner_idx += 1
        inner_of[owner] = inner

    # active-closure sizes (see check_size_bounds), children first; a
    # leaf's size is 1
    sizes = {}
    for owner, kids in reversed(lists):
        size = 1
        i = len(kids) - 1
        while i >= 0 and kids[i].status == OUTER_MISPLACED:
            i -= 1
        if i >= 0 and kids[i].status != OUTER_PLACED:
            w0 = kids[i]
            size += sizes.get(w0, 1)
            if i > 0:
                # w1 is active too unless a gap (rule 1/2) is forced: a
                # misplaced w1, a placed w1 (rho = -1), or rho0 > rho(w1) + 1
                u = kids[i - 1]
                st = u.status
                if (st != OUTER_MISPLACED and st != OUTER_PLACED
                        and _rho(w0) <= _rho(u) + 1):
                    size += sizes.get(u, 1)
        sizes[owner] = size

    # pass 2, per vertex: rank rules, size bound and the recount. The raw
    # tally counts the status field of every live vertex, roots included,
    # as the heap's own tally does; an unknown status counts as
    # noncritical inner. rho and _is_dangerous (a nonzero rank, an inner
    # rightmost child w0 and r_v <= rho(w0)) are written out.
    short = {}  # vertex -> size_bound violation
    nonroot = [0, 0, 0, 0]  # by status
    root = [0, 0, 0, 0]
    rank_sum = 0
    dangerous = 0
    for v in seen:
        r = v.rank
        rank_sum += r
        is_root = v in roots
        st = v.status
        if not CRITICAL_INNER <= st <= OUTER_MISPLACED:
            st = NONCRITICAL_INNER
        if is_root:
            root[st] += 1
        else:
            nonroot[st] += 1
        kids = kids_of.get(v)
        if kids is None:
            if r == 0:
                continue  # a leaf of rank 0: size 1, not dangerous, no rule
            danger = False
            size = 1
        else:
            w0 = kids[-1]
            st0 = w0.status
            rho0 = w0.rank + 1 if st0 == CRITICAL_INNER else w0.rank
            danger = r != 0 and st0 <= CRITICAL_INNER and r <= rho0
            dangerous += danger
            size = sizes[v]
        bound = table[r] if r < len(table) else size_bound_table(r)[r]
        if size < bound:
            short[v] = Violation(
                "size_bound", key=v.key, rank=r, size=size, bound=bound)

        if r < 0:
            violations.append(Violation("negative_rank", key=v.key, rank=r))
            continue
        if kids is not None:
            inner = inner_of[v]
            if r < inner:
                violations.append(Violation(
                    "rank_budget", key=v.key, rank=r, inner_children=inner))
            # rank consistency against the rules, on the resting forest
            if st0 == OUTER_MISPLACED:
                violations.append(Violation(
                    "misplaced_rightmost", key=v.key, child_key=w0.key))
                continue
        if kids is None or st0 == OUTER_PLACED:
            if r != 0:
                violations.append(Violation(
                    "rank_mismatch", key=v.key, rank=r, expect=0,
                    detail="no inner children"))
            continue
        if len(kids) >= 2:
            u = kids[-2]
            su = u.status
            if su == OUTER_MISPLACED:
                gap = True
            elif su == OUTER_PLACED:
                gap = rho0 > 0
            else:
                gap = rho0 > (u.rank + 1 if su == CRITICAL_INNER
                              else u.rank) + 1
        else:
            gap = rho0 > 0
        if gap and st0 == CRITICAL_INNER:
            # rule 2 is pending; tolerated deep in a tree, never at a root
            if is_root:
                violations.append(Violation(
                    "rule2_pending_root", key=v.key, rank=r, rho0=rho0))
            continue
        expect = rho0 if gap else rho0 + 1
        if r != expect:
            violations.append(Violation(
                "rank_mismatch", key=v.key, rank=r, expect=expect,
                gap=gap, rho0=rho0))
        if not is_root and v.status == NONCRITICAL_INNER and danger:
            violations.append(Violation(
                "steady_dangerous", key=v.key, rank=r, rho0=rho0))

    # parents before children; pass 1 found the links sound, so this ends
    order = iter_vertices(heap) if short else ()
    undersized = [short[v] for v in order if v in short]

    n = heap.size
    tau = len(roots)
    critical = nonroot[CRITICAL_INNER]
    inner = nonroot[NONCRITICAL_INNER] + critical
    phi2 = 0 if n == 0 else min(tau, plastic_cap(n))
    phis = (tau, nonroot[OUTER_PLACED], phi2, critical, rank_sum - inner,
            nonroot[OUTER_MISPLACED], dangerous)
    # potentials() first; the raw ingredients only when all seven agree,
    # since phi4 reads the rank sum and the noncritical tally only through
    # their difference (phi6 is the dangerous-vertex count itself)
    cached = tuple(heap.potentials())
    tallies = [Violation("tally_mismatch", phi=i, walked=phis[i],
                         cached=cached[i])
               for i in range(7) if phis[i] != cached[i]]
    if not tallies:
        fields = [("_rank_sum", rank_sum, heap._rank_sum)] + [
            ("_stat_tally[%d]" % i, nonroot[i] + root[i], heap._stat_tally[i])
            for i in range(4)]
        tallies = [Violation("tally_mismatch", field=f, walked=w, cached=c)
                   for f, w, c in fields if w != c]
    return violations, undersized, tallies, phis


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
    vertex is arena-live, the partition covers exactly heap.size vertices).
    If pass 1 finds anything, those violations are returned alone — content
    checks over broken links would be noise.

    Pass 2 checks content: heap order, the placed-prefix layout, strictly
    increasing inner rho (****), the index bound (***), the rank budget (*),
    rank consistency against the rank rules, the no-steady-dangerous rule
    (**), no misplaced rightmost child at rest, and no root left in the
    rule-2 state (critical rightmost child across a gap).
    """
    return _audit(heap)[0]


def check_size_bounds(heap, table=None):
    """Check |active closure|(v) >= P(r_v) for every vertex.

    The active children of v are the rule-designated rightmost inner child
    w0 and, when the no-gap rule applies and the left neighbor is inner,
    that neighbor w1.  Misplaced children that have not been swept yet are
    skipped the same way the seek phase would skip them.  Violations come
    parents before children.
    """
    return _audit(heap, table)[1]


def check_root_safety(heap):
    """No dangerous root may survive find_min/delete_min."""
    return [Violation("unsafe_root", key=r.key, rank=r.rank)
            for r in heap.roots() if _is_dangerous(r)]


def audit_state(heap):
    """One-stop state audit from one walk: structure, then size bounds and
    tallies."""
    structure, undersized, tallies, _ = _audit(heap)
    return structure or undersized + tallies


_LOG_OPS = ("d", "x")


class BudgetAudit:
    """Replay observer that charges each operation against its budget.

    Pass before and after to trace.replay. For each event, with s = counted
    analysis steps (comparisons + rank-rule applications + placings) and dW
    the change of the weighted potential, it requires

        s + dW <= budget_const                      for i, f, k (and meld)
        s + dW <= budget_log * (1 + log_beta n)     for d, x   (n pre-op)

    and appends a budget Violation to violations when an event breaks it.
    When rows is a list, a (op, s, dW, n_before, charge, bound) row is
    appended per event; that is the calibration hook.

    The potential is read from the heap's incremental tallies (O(roots) per
    op); verify_tallies pins those to a full recount during fuzzing, so the
    budget audit can afford to trust them here.
    """

    __slots__ = ("heap", "model", "rows", "violations", "_w", "_s", "_n")

    def __init__(self, heap, model=None, rows=None):
        self.heap = heap
        self.model = model if model is not None else CostModel()
        self.rows = rows
        self.violations = []

    def before(self, idx, ev):
        heap = self.heap
        self._w = self.model.weighted(heap.potentials())
        self._s = heap.arena.counters.analysis_steps
        self._n = heap.size

    def after(self, idx, ev):
        heap = self.heap
        model = self.model
        s = heap.arena.counters.analysis_steps - self._s
        dw = model.weighted(heap.potentials()) - self._w
        charge = s + dw
        op = ev[0]
        if op in _LOG_OPS:
            bound = model.log_budget(self._n)
        else:
            bound = model.budget_const
        if self.rows is not None:
            self.rows.append((op, s, dw, self._n, charge, bound))
        if charge > bound:
            self.violations.append(Violation(
                "budget", op=op, index=idx, steps=s, dW=dw,
                charge=charge, bound=round(bound, 3)))


def audit_amortized(events, model=None, stats_out=None):
    """Replay a trace on a fresh PadovanHeap under a BudgetAudit.

    Returns the list of budget Violations (empty when the accounting holds).
    When stats_out is a list, it receives BudgetAudit's per-event rows.
    """
    heap = PadovanHeap()
    audit = BudgetAudit(heap, model, stats_out)
    replay(events, heap, before=audit.before, after=audit.after)
    return audit.violations
