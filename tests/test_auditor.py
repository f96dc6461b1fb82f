"""Auditor: potential accounting, structural checks, fault injection,
and the per-operation amortized budget."""

import io
import random
import signal

import pytest

from padovanheap import FibonacciHeap, PadovanHeap, plastic_cap
from padovanheap.errors import StaleHandleError
from padovanheap.node_store import (
    NONCRITICAL_INNER, CRITICAL_INNER, OUTER_PLACED, OUTER_MISPLACED)
from padovanheap import auditor
from padovanheap.auditor import (
    BudgetAudit, CostModel, Violation, audit_amortized, audit_state,
    check_root_safety, check_size_bounds, check_structure, children,
    compute_potentials, iter_vertices, size_bound_table, verify_tallies)
from padovanheap.cli import write_dot
from padovanheap.trace import gen_workload, replay

from list_model import detach, is_live, push_back

# The four traces whose step counts test_step_counts_are_frozen pins.
FROZEN_TRACES = [("random", 20000, 1), ("random", 20000, 2),
                 ("competition", 5000, 0), ("ascending", 5000, 0)]


# ------------------------------------------------------------- potentials

def test_potentials_empty_and_fresh_inserts():
    h = PadovanHeap()
    assert h.potentials() == (0, 0, 0, 0, 0, 0, 0)
    for k in range(6):
        h.insert(k)
        i = k + 1
        assert h.potentials() == (i, 0, min(i, plastic_cap(i)), 0, 0, 0, 0)
        assert tuple(compute_potentials(h)) == h.potentials()


def test_potentials_consolidated_states():
    h = PadovanHeap()
    for k in (3, 1, 2):
        h.insert(k)
    h.find_min()
    assert h.potentials() == (1, 1, 1, 0, 0, 0, 0)

    h2 = PadovanHeap()
    for k in (4, 1, 3, 2):
        h2.insert(k)
    h2.find_min()
    # the chained join leaves both children inner: no placed vertices
    assert h2.potentials() == (1, 0, 1, 0, 0, 0, 0)


def test_cost_model_weighted():
    phis = (1, 2, 3, 4, 5, 6, 7)
    m = CostModel()
    assert m.weighted(phis) == sum(t * v for t, v in zip(m.t, phis)) == 96
    assert m.weighted((0,) * 7) == 0
    # each weight reaches its own potential and no other
    for i in range(7):
        unit = tuple(int(j == i) for j in range(7))
        assert m.weighted(unit) == m.t[i]
    m2 = CostModel(t=(1, 2, 3, 8, 9, 3, 4))
    assert m2.weighted(phis) == 1 + 4 + 9 + 32 + 45 + 18 + 28
    h = PadovanHeap()
    for k in range(5):
        h.insert(k)
    assert m.weighted(h.potentials()) == m.weighted(compute_potentials(h))


def test_cost_model_constraints():
    m = CostModel()
    assert m.t == (1, 1, 2, 6, 6, 2, 3)
    m.check_constraints()  # t0 <= t1 < t2, t1 < t5 < t6, t5+t6 < t3, t5+t6 < t4
    with pytest.raises(ValueError):
        CostModel(t=(1, 1, 1, 6, 6, 2, 3))   # needs t1 < t2
    with pytest.raises(ValueError):
        CostModel(t=(1, 1, 2, 5, 6, 2, 3))   # needs t5+t6 < t3
    with pytest.raises(ValueError):
        CostModel(t=(2, 1, 2, 6, 6, 2, 3))   # needs t0 <= t1
    with pytest.raises(ValueError):
        CostModel(t=(1, 1, 2, 6, 6, 2))      # needs seven weights
    assert m.log_budget(0) == m.log_budget(1) == m.budget_log
    assert m.log_budget(1000) > m.log_budget(10) > m.budget_log


def test_size_bound_table():
    assert size_bound_table(8) == [1, 1, 1, 3, 3, 5, 7, 9, 13]


def test_verify_tallies_clean_then_corrupted():
    h = PadovanHeap()
    h.potentials()  # the tallies are kept from here on, not seeded later
    rng = random.Random(6)
    hs = []
    for k in rng.sample(range(10**6), 300):
        hs.append(h.insert(k))
    for _ in range(120):
        h.delete_min()
    for v in rng.sample(hs, 40):
        if is_live(h, v):
            h.decrease_key(v, v.key - 10**6)
    assert verify_tallies(h) == []
    h._rank_sum += 1  # sabotage the incremental tally
    vs = audit_state(h)
    assert [v.kind for v in vs] == ["tally_mismatch"]
    assert vs[0].info["phi"] == 4
    h._rank_sum -= 1
    assert audit_state(h) == []


def test_verify_tallies_sees_a_shift_that_phi4_hides():
    # phi4 reads the rank sum and the noncritical tally only through their
    # difference, so equal shifts of both leave every potential unchanged
    h = PadovanHeap()
    h.potentials()  # the tallies are kept from here on, not seeded later
    for k in range(1, 9):
        h.insert(k)
    h.find_min()
    assert verify_tallies(h) == []
    h._rank_sum += 1
    h._stat_tally[NONCRITICAL_INNER] += 1
    assert tuple(compute_potentials(h)) == h.potentials()
    vs = audit_state(h)
    assert [(v.kind, v.info["field"]) for v in vs] == [
        ("tally_mismatch", "_rank_sum"), ("tally_mismatch", "_stat_tally[0]")]
    assert (vs[0].info["walked"], vs[0].info["cached"]) == (h._rank_sum - 1,
                                                            h._rank_sum)
    h._rank_sum -= 1
    h._stat_tally[NONCRITICAL_INNER] -= 1
    assert audit_state(h) == []


# ------------------------------------ tallies kept from the first read on

def assert_late_read_matches(events, k, stride):
    """A heap first read after event k reports, after every later event,
    the potentials of a heap read after every event; verify_tallies is
    empty after every stride-th event from k on, and at the end."""
    ref = PadovanHeap()
    want = []
    out = replay(events, ref,
                 after=lambda idx, ev: want.append(ref.potentials()))
    h = PadovanHeap()

    def after(idx, ev):
        if idx < k:
            assert h._stat_tally is None
            return
        assert h.potentials() == want[idx], idx
        if (idx - k) % stride == 0:
            assert verify_tallies(h) == [], idx

    assert replay(events, h, after=after) == out
    assert verify_tallies(h) == []


@pytest.mark.parametrize("mode, n, seed", FROZEN_TRACES)
def test_a_late_first_read_matches_a_read_from_the_start(mode, n, seed):
    events = gen_workload(mode, n, seed)
    assert_late_read_matches(events, random.Random(seed).randrange(n), 97)


def test_a_late_first_read_matches_on_a_fuzz():
    for seed in range(40):
        rng = random.Random(seed)
        events = gen_workload(rng.choice(("random", "random", "competition")),
                              rng.randrange(50, 600), seed=seed)
        assert_late_read_matches(events, rng.randrange(len(events)), 1)


def test_a_replay_that_never_reads_keeps_no_tallies():
    for mode, n, seed in FROZEN_TRACES:
        h = PadovanHeap()
        replay(gen_workload(mode, n, seed), h)
        assert h._stat_tally is h._rank_sum is h._dangerous is None
        # so an unread heap melded into an unread one stays unread
        g = PadovanHeap(h.arena if seed else None)
        for k in range(-5, 0):
            g.insert(k)
        g.find_min()
        h.meld(g)
        assert h._stat_tally is None
        assert tuple(compute_potentials(h)) == h.potentials()


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "separate"])
@pytest.mark.parametrize("read", ["survivor", "donor"])
def test_meld_of_a_read_and_an_unread_heap(read, shared):
    a = PadovanHeap()
    b = PadovanHeap(a.arena if shared else None)
    replay(gen_workload("random", 600, seed=7), a)
    # keys above every key of a's trace, so that all stay distinct
    replay([ev[:-1] + (ev[-1] + 10**9,) if ev[0] in "ik" else ev
            for ev in gen_workload("random", 600, seed=8)], b)
    (a if read == "survivor" else b).potentials()
    a.meld(b)
    assert (a._stat_tally is None) == (read == "donor")
    assert tuple(compute_potentials(a)) == a.potentials()
    assert audit_state(a) == []
    for _ in range(a.size // 2):
        a.delete_min()
    assert audit_state(a) == []


@pytest.mark.parametrize("target", [1, 4])  # the root, a nonroot
@pytest.mark.parametrize("status", [-1, 4, 7])
def test_a_first_read_on_a_corrupted_forest_returns_the_audit(status,
                                                              target):
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in range(1, 9)}
    h.find_min()  # build8's forest, its tallies not yet read
    hs[target].status = status
    assert h._stat_tally is None
    vs = audit_state(h)
    assert sum(h._stat_tally) == 8  # an unknown status counted once, as N
    if target == 1:
        # statuses are not checked on the root list, but potentials()
        # counts an unknown root status as misplaced: the walk's N shows
        assert [(v.kind, v.info["phi"]) for v in vs] == [
            ("tally_mismatch", 4), ("tally_mismatch", 5)]
    else:
        assert [v.kind for v in vs] == ["bad_status"]
        assert verify_tallies(h) == []
    assert_matches_frozen(h)


def test_a_first_read_on_broken_links_returns():
    def expire(signum, frame):
        raise TimeoutError("a first read did not return")

    old = signal.signal(signal.SIGALRM, expire)
    try:
        for leaf in (2, 4, 6, 8):
            for read in (audit_state, PadovanHeap.potentials):
                h = PadovanHeap()
                hs = {k: h.insert(k) for k in range(1, 9)}
                h.find_min()
                hs[leaf].child = hs[1]  # a child-link cycle
                signal.alarm(3)
                try:
                    got = read(h)
                finally:
                    signal.alarm(0)
                if read is audit_state:
                    assert {v.kind for v in got} == {"broken_owner_link"}
                else:  # the seeding walk stopped after size + 1 members
                    assert sum(h._stat_tally) == 9
    finally:
        signal.signal(signal.SIGALRM, old)


def five_roots_with_a_root_list_cycle():
    """Five inserts, then the rightmost root's right link aimed at the
    second root: the root list never returns to the dummy head."""
    h = PadovanHeap()
    hs = [h.insert(k) for k in range(1, 6)]
    hs[-1].right = hs[1]
    return h


@pytest.mark.parametrize("call, want", [
    (PadovanHeap.roots, [1, 2, 3, 4, 5]),
    (check_root_safety, []),
    (lambda h: list(iter_vertices(h)), [1, 2, 3, 4, 5]),
    (lambda h: write_dot(h, io.StringIO()), None),
], ids=["roots", "check_root_safety", "iter_vertices", "write_dot"])
def test_root_list_walks_return_on_a_root_list_cycle(call, want):
    """roots() stops after size members, so the walks built on it return;
    potentials() trusts the root list and is not called here."""
    def expire(signum, frame):
        raise TimeoutError("a root-list walk did not return")

    h = five_roots_with_a_root_list_cycle()
    old = signal.signal(signal.SIGALRM, expire)
    try:
        signal.alarm(3)
        try:
            got = call(h)
        finally:
            signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, old)
    if want is not None:
        assert [v.key for v in got] == want
    assert {v.kind for v in audit_state(h)} == {"broken_owner_link"}


# -------------------------------------------------------- fault injection

def build8():
    """find_min over inserts 1..8: root 1 rank 3, kids 2(r0) 3(r1) 5(r2),
    3 holds 4, 5 holds 6(r0) 7(r1), 7 holds 8."""
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in range(1, 9)}
    h.find_min()
    assert audit_state(h) == []
    return h, hs


def kinds_of(h):
    return {v.kind for v in audit_state(h)}


def test_detect_rank_corruption():
    h, hs = build8()
    hs[5].rank += 1
    assert "rank_mismatch" in kinds_of(h)


def test_detect_inner_order_swap():
    h, hs = build8()
    hs[6].rank, hs[7].rank = hs[7].rank, hs[6].rank
    ks = kinds_of(h)
    assert "inner_order" in ks and "index_bound" in ks


def test_detect_bad_status():
    h, hs = build8()
    hs[4].status = 7
    assert "bad_status" in kinds_of(h)


def test_detect_layout_violation():
    h, hs = build8()
    hs[7].status = OUTER_PLACED  # placed child after an inner one
    assert "layout" in kinds_of(h)


def test_detect_broken_left_cycle():
    h, hs = build8()
    hs[6].left = hs[6]
    assert kinds_of(h) == {"broken_left_cycle"}


def test_detect_broken_owner_link():
    h, hs = build8()
    hs[8].right = hs[1]
    assert "broken_owner_link" in kinds_of(h)


def test_detect_heap_order_violation():
    h, hs = build8()
    hs[4].key = 2  # under parent 3
    assert "heap_order" in kinds_of(h)


def test_detect_size_mismatch():
    h, hs = build8()
    h._size += 1
    assert "size_mismatch" in kinds_of(h)


@pytest.mark.parametrize("foreign_keys", [(), (20, 21, 22)])
def test_foreign_head_below_a_leaf_is_reported_not_raised(foreign_keys):
    # Another heap's head (key None) hung below leaf 8, its own root list
    # kept. Its key compares with no vertex's key.
    h, hs = build8()
    other = PadovanHeap()
    fs = [other.insert(k) for k in foreign_keys]
    x = other.dummy
    x.left = x
    x.right = hs[8]
    hs[8].child = x
    assert kinds_of(h) == {"dead_vertex"}  # x and fs are not h's
    h._live.update([x] + fs)  # counted live in h
    assert kinds_of(h) == {"size_mismatch"}
    h._size += 1 + other.size  # every reachable vertex accounted for
    vs = audit_state(h)
    incomparable = [v.info for v in vs if v.kind == "incomparable_key"]
    assert incomparable[0] == {"parent_key": 8, "child_key": None}
    assert ([i["child_key"] for i in incomparable[1:]]
            == sorted(foreign_keys))
    assert all(i["parent_key"] is None for i in incomparable[1:])
    assert "heap_order" not in {v.kind for v in vs}


def test_detect_undersized_tree():
    h = PadovanHeap()
    for k in (4, 1, 3, 2):
        h.insert(k)
    h.find_min()
    (r,) = list(h.roots())
    assert check_size_bounds(h) == []
    r.rank = 5  # tree of 4 vertices cannot carry rank 5 (needs 5)
    vs = check_size_bounds(h)
    assert [v.kind for v in vs] == ["size_bound"]
    assert vs[0].info["size"] == 4 and vs[0].info["bound"] == 5


def test_size_counts_an_active_left_neighbour_that_has_children():
    # root 1's children are 2, then the leaf 3, whose corrupted rank 2
    # leaves no gap to 2's rho 1: 2 is active as well as 3, and 2 holds 4,
    # so 1's active closure is 1, 2, 3 and 4, short of rank 5's P(5) = 5
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in range(1, 5)}
    a, d = h.arena, h.dummy
    for k in (2, 3, 4):
        detach(a, hs[k], d)
    push_back(a, hs[2], hs[4])
    push_back(a, hs[1], hs[2])
    push_back(a, hs[1], hs[3])
    hs[2].rank, hs[3].rank, hs[1].rank = 1, 2, 5
    want = [Violation("size_bound", key=1, rank=5, size=4, bound=5).render()]
    assert [v.render() for v in check_size_bounds(h)] == want
    assert [v.render() for v in frozen_audit(h)[1]] == want


def test_negative_rank_has_no_size_bound():
    h, hs = build8()
    hs[3].rank = -1
    assert "negative_rank" in {v.kind for v in audit_state(h)}
    assert check_size_bounds(h) == []


def test_views_return_on_a_child_link_cycle():
    # a leaf whose child link points back at the root: every view reads the
    # bounded walk, which reports the link instead of following the cycle
    def expire(signum, frame):
        raise TimeoutError("an audit view did not return")

    views = (check_structure, audit_state, check_size_bounds, verify_tallies)
    old = signal.signal(signal.SIGALRM, expire)
    try:
        for leaf in (2, 4, 6, 8):
            h, hs = build8()
            hs[leaf].child = hs[1]
            for view in views:
                signal.alarm(3)
                try:
                    kinds = {v.kind for v in view(h)}
                finally:
                    signal.alarm(0)
                assert kinds == {"broken_owner_link"}, (leaf, view.__name__)
            signal.alarm(3)
            try:
                with pytest.raises(ValueError, match="broken_owner_link"):
                    compute_potentials(h)
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("how", ["arena_free", "delete"])
def test_a_link_into_a_freed_vertex_is_reported_not_raised(how):
    # Arena.free and _remove_root set a freed vertex's links to None, so a
    # leaf's child aimed at one starts a list whose right link is None:
    # reported on the leaf, and the list is not trusted, so the freed vertex
    # is not reported dead
    h, hs = build8()
    if how == "arena_free":
        f = h.arena.alloc(-1)
        h.arena.free(f)
    else:
        f = h.insert(20)
        h.delete(f)
        assert audit_state(h) == []
    assert f.left is None and f.right is None
    hs[8].child = f
    want = [Violation("broken_owner_link", owner_key=8,
                      child_key=f.key).render()]
    for view in (audit_state, check_structure, check_size_bounds,
                 verify_tallies):
        assert [v.render() for v in view(h)] == want, view.__name__
    with pytest.raises(ValueError, match="broken_owner_link"):
        compute_potentials(h)


def test_root_safety_reads_a_child_link_into_a_freed_vertex_as_safe():
    # root 1 (rank 3) given a child that delete freed: its rightmost child
    # is read through the freed vertex's None left link
    h, hs = build8()
    f = h.insert(20)
    h.delete(f)
    hs[1].child = f
    assert [v.render() for v in audit_state(h)] == [
        Violation("broken_owner_link", owner_key=1, child_key=20).render()]
    assert check_root_safety(h) == []


# a leaf, whose list is walked after the seven other vertices; the root,
# whose only list member is now the freed vertex
@pytest.mark.parametrize("owner, walked", [(8, 9), (1, 2)])
def test_a_first_read_on_a_link_into_a_freed_vertex_returns(owner, walked):
    # the seeding walk ends the freed vertex's list at its None right link
    # and makes no danger test through its None left link
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in range(1, 9)}
    h.find_min()
    f = h.insert(20)
    h.delete(f)
    hs[owner].child = f
    assert h._stat_tally is None
    h.potentials()
    assert sum(h._stat_tally) == walked  # the freed vertex among them
    assert [v.render() for v in audit_state(h)] == [
        Violation("broken_owner_link", owner_key=owner,
                  child_key=20).render()]


def test_a_right_cycle_is_stopped_by_the_walk_cap():
    # root 1's children are 2, 3, 5: 5's right link aimed back at 2 passes
    # every end test, so the walk stops after size + 1 = 9 hops
    h, hs = build8()
    hs[5].right = hs[2]
    want = [Violation("broken_owner_link", owner_key=1,
                      detail="right walk exceeded 9 nodes").render()]
    for view in (audit_state, check_structure, check_size_bounds,
                 verify_tallies):
        assert [v.render() for v in view(h)] == want, view.__name__


def reference_iter_vertices(heap):
    """The order iter_vertices keeps, from a children() list per owner."""
    stack = list(heap.roots())
    stack.reverse()
    while stack:
        v = stack.pop()
        yield v
        if v.child is not None:
            stack.extend(reversed(children(v)))


def test_iter_vertices_matches_a_children_based_reference():
    # the traces of test_audit_matches_frozen_reference_after_every_event
    runs = [("random", 600, seed) for seed in range(8)]
    runs += [("competition", 500, 0), ("ascending", 500, 0)]
    for mode, n, seed in runs:
        h = PadovanHeap()

        def after(idx, ev):
            assert (list(iter_vertices(h))
                    == list(reference_iter_vertices(h))), (mode, seed, idx)

        replay(gen_workload(mode, n, seed=seed), h, after=after)


def test_violation_render():
    v = Violation("heap_order", parent_key=3, child_key=2)
    assert v.render() == "kind=heap_order child_key=2 parent_key=3"


# ----------------------------------------------------------- root safety

def test_root_safety_flags_resting_dangerous_root():
    h, hs = build8()
    assert check_root_safety(h) == []
    h.decrease_key(hs[3], 0)  # rule 1 leaves the root dangerous at rest
    assert audit_state(h) == []  # legal between operations
    vs = check_root_safety(h)
    assert len(vs) == 1 and vs[0].kind == "unsafe_root" and vs[0].info["key"] == 1
    h.find_min()  # demotes its way back to safety before joining
    assert check_root_safety(h) == []
    assert audit_state(h) == []


# ------------------------------------------------- comparison discipline

def test_comparisons_only_between_roots():
    h = PadovanHeap()
    pairs = []

    def owner_of(x):
        while x.right.left is x:
            x = x.right
        return x.right

    class Key:
        """A key that knows its vertex: every <= it takes part in must be
        between two roots, and is recorded."""

        def __init__(self, value):
            self.value = value
            self.vertex = None

        def __le__(self, other):
            assert owner_of(self.vertex) is h.dummy
            assert owner_of(other.vertex) is h.dummy
            pairs.append((self.value, other.value))
            return self.value <= other.value

        def __gt__(self, other):  # decrease_key's increase test
            return self.value > other.value

    rng = random.Random(31)
    hs = []
    for k in rng.sample(range(10**5), 200):
        key = Key(k)
        key.vertex = h.insert(key)
        hs.append(key.vertex)
    for _ in range(80):
        h.delete_min()
    for v in hs:
        if is_live(h, v):
            key = Key(v.key.value - 10**5)
            key.vertex = v
            h.decrease_key(v, key)
            break
    h.find_min()
    assert pairs
    assert len(pairs) == h.arena.counters.comparisons


def test_comparison_counter_matches_key_comparisons():
    # every rich comparison of two keys is counted, except decrease_key's
    # increase guard, which runs once per k event
    observed = [0]

    class Key:
        __slots__ = ("value",)

        def __init__(self, value):
            self.value = value

        def _cmp(self, other, op):
            observed[0] += 1
            return op(self.value, other.value)

        def __lt__(self, other):
            return self._cmp(other, int.__lt__)

        def __le__(self, other):
            return self._cmp(other, int.__le__)

        def __gt__(self, other):
            return self._cmp(other, int.__gt__)

        def __ge__(self, other):
            return self._cmp(other, int.__ge__)

        def __eq__(self, other):
            return self._cmp(other, int.__eq__)

        def __ne__(self, other):
            return self._cmp(other, int.__ne__)

    for mode, n, seed in (("random", 20000, 2), ("random", 3000, 7),
                          ("competition", 3000, 0)):
        events = gen_workload(mode, n, seed)
        wrapped = [("i", Key(ev[1])) if ev[0] == "i"
                   else ("k", ev[1], Key(ev[2])) if ev[0] == "k" else ev
                   for ev in events]
        guards = sum(1 for ev in events if ev[0] == "k")
        for heap in (PadovanHeap(), FibonacciHeap()):
            observed[0] = 0
            replay(wrapped, heap, collect_output=False)
            counted = (heap.arena.counters.comparisons
                       if isinstance(heap, PadovanHeap)
                       else heap.counters.comparisons)
            assert observed[0] == counted + guards, (mode, n, seed,
                                                     type(heap).__name__)


def repeated_pairs(heap, events):
    """Replay events with keys that record every compared pair, and
    return how many pairs were compared again with both keys unchanged.
    A decreased key is a new object, and every key stays alive in the
    wrapped events, so an id pair names two unchanged keys."""
    pairs = []

    class Key:
        __slots__ = ("value",)

        def __init__(self, value):
            self.value = value

        def _pair(self, other):
            a, b = id(self), id(other)
            pairs.append((a, b) if a < b else (b, a))
            return self.value, other.value

        def __lt__(self, other):
            a, b = self._pair(other)
            return a < b

        def __le__(self, other):
            a, b = self._pair(other)
            return a <= b

        def __gt__(self, other):
            a, b = self._pair(other)
            return a > b

        def __ge__(self, other):
            a, b = self._pair(other)
            return a >= b

    wrapped = [("i", Key(ev[1])) if ev[0] == "i"
               else ("k", ev[1], Key(ev[2])) if ev[0] == "k" else ev
               for ev in events]
    replay(wrapped, heap, collect_output=False)
    assert pairs
    return len(pairs) - len(set(pairs))


def test_padovan_never_compares_unchanged_keys_twice():
    """The paper's superexpensive-comparison principle: remember every
    comparison's result. Fibonacci re-compares, so the count can fail."""
    fib = []
    for mode, n, seed in FROZEN_TRACES:
        events = gen_workload(mode, n, seed)
        assert repeated_pairs(PadovanHeap(), events) == 0, (mode, n, seed)
        fib.append(repeated_pairs(FibonacciHeap(), events))
    # ascending's inserts and one f never consolidate a Fibonacci heap
    assert min(fib[:3]) > 0 and fib[3] == 0


# ------------------------------------------------------- meld accounting

def test_meld_shifts_weighted_potential_by_phi2_only():
    m = CostModel()
    t2 = m.t[2]

    # capped: both pieces already hold more trees than the melded cap
    h1 = PadovanHeap()
    h2 = PadovanHeap(h1.arena)
    for k in range(30):
        h1.insert(k)
    for k in range(100, 130):
        h2.insert(k)
    assert h1.potentials()[2] == h2.potentials()[2] == 13
    w1 = m.weighted(h1.potentials())
    w2 = m.weighted(h2.potentials())
    h1.meld(h2)
    assert h1.potentials()[2] == 15  # cap of 60 keys, not 13 + 13
    wm = m.weighted(h1.potentials())
    assert wm == w1 + w2 + t2 * (15 - 26)
    assert audit_state(h1) == []

    # tree-limited: a consolidated heap donates headroom under the cap
    g1 = PadovanHeap()
    g2 = PadovanHeap(g1.arena)
    for k in range(1000):
        g1.insert(k)
    g1.find_min()
    assert g1.potentials()[0] == 1 and g1.potentials()[2] == 1
    for k in range(2000, 2010):
        g2.insert(k)
    assert g2.potentials()[2] == 9  # capped at plastic_cap(10)
    w1 = m.weighted(g1.potentials())
    w2 = m.weighted(g2.potentials())
    g1.meld(g2)
    assert g1.potentials()[2] == 11  # 11 trees, cap now 25: tree-limited
    wm = m.weighted(g1.potentials())
    assert wm == w1 + w2 + t2  # strictly increases, by exactly t2
    assert audit_state(g1) == []

    # over the flat budget: a small heap's trees lose their own cap, so
    # the charge grows with log_beta(n2 / n1); no trace melds, so no
    # budget audit sees it
    big = PadovanHeap()
    small = PadovanHeap(big.arena)
    for k in range(20000):
        big.insert(k)
    big.find_min()
    for k in range(30):
        small.insert(-1 - k)
    assert big.potentials()[0] == 1 and small.potentials()[2] == 13
    w = m.weighted(big.potentials()) + m.weighted(small.potentials())
    steps = big.arena.counters.analysis_steps
    big.meld(small)
    assert big.arena.counters.analysis_steps == steps
    assert big.potentials()[2] == 31  # 31 trees under a cap of 36
    dw = m.weighted(big.potentials()) - w
    assert dw == t2 * (31 - 13 - 1) == 34 > m.budget_const
    assert audit_state(big) == []


# ------------------------------------------------------- amortized audit

def test_audit_amortized_clean_run():
    events = gen_workload("random", 600, seed=5)
    stats = []
    assert audit_amortized(events, stats_out=stats) == []
    assert len(stats) == len(events)
    for op, s, dw, n, charge, bound in stats:
        assert charge <= bound


def test_audit_amortized_flags_impossible_budget():
    events = [("i", k) for k in range(10)]
    tight = CostModel(budget_const=0, budget_log=0)
    vs = audit_amortized(events, model=tight)
    assert vs and all(v.kind == "budget" for v in vs)
    assert vs[0].info["op"] == "i"


def test_audit_amortized_insert_charge_is_flat():
    # every insert pays t0 + t2*dphi2: at most 3 under the default model
    events = [("i", k) for k in range(50)]
    stats = []
    audit_amortized(events, stats_out=stats)
    assert max(charge for _, _, _, _, charge, _ in stats) <= 3


class TwoSnapshotBudgetAudit:
    """The budget audit with two potential reads per event, a snapshot
    before each event and one after it: the reference that BudgetAudit,
    which carries one snapshot forward, must match row for row and
    violation for violation."""

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
        if op in ("d", "x"):
            bound = model.log_budget(self._n)
        else:
            bound = model.budget_const
        if self.rows is not None:
            self.rows.append((op, s, dw, self._n, charge, bound))
        if charge > bound:
            self.violations.append(Violation(
                "budget", op=op, index=idx, steps=s, dW=dw,
                charge=charge, bound=round(bound, 3)))


def run_budget_audit(cls, events, model=None, oob=None):
    """Rows and violations of a cls audit on a fresh PadovanHeap; oob,
    when given, runs on the heap after each event's audit."""
    heap = PadovanHeap()
    rows = []
    audit = cls(heap, model, rows)

    def after(idx, ev):
        audit.after(idx, ev)
        if oob is not None:
            oob(idx, heap)

    replay(events, heap, before=getattr(audit, "before", None), after=after)
    return rows, audit.violations


@pytest.mark.parametrize("model", [CostModel(),
                                   CostModel(budget_const=0, budget_log=0)],
                         ids=["default", "zero_budget"])
@pytest.mark.parametrize("mode, n, seed", FROZEN_TRACES)
def test_budget_audit_matches_two_snapshot_reference(mode, n, seed, model):
    events = gen_workload(mode, n, seed)
    rows = []
    got = audit_amortized(events, model, rows)
    ref_rows, ref_violations = run_budget_audit(TwoSnapshotBudgetAudit,
                                                events, model)
    assert len(rows) == len(events)
    assert rows == ref_rows
    assert [v.render() for v in got] == [v.render() for v in ref_violations]
    if model.budget_const == 0:
        assert got  # every event is over a zero budget


def test_audit_amortized_reads_the_potential_once_per_event(monkeypatch):
    calls = 0
    potentials = PadovanHeap.potentials

    def counted(heap):
        nonlocal calls
        calls += 1
        return potentials(heap)

    monkeypatch.setattr(PadovanHeap, "potentials", counted)
    events = gen_workload("competition", 5000, 0)
    assert audit_amortized(events) == []
    assert calls == len(events) + 1 == 20001


def test_budget_charges_telescope():
    """The charges sum to the change in analysis steps plus W_end - W_0."""
    heap = PadovanHeap()
    rows = []
    audit = BudgetAudit(heap, rows=rows)
    m = audit.model
    s0 = heap.arena.counters.analysis_steps
    w0 = m.weighted(heap.potentials())
    replay(gen_workload("random", 20000, 1), heap, after=audit.after)
    assert audit.violations == []
    total = sum(charge for _, _, _, _, charge, _ in rows)
    assert total == (heap.arena.counters.analysis_steps - s0
                     + m.weighted(heap.potentials()) - w0)
    assert total > 0


def test_a_change_between_events_is_charged_to_the_next_event():
    events = [("i", 5), ("i", 3), ("f",), ("i", 8)]

    def oob(idx, heap):
        if idx == 0:
            heap.insert(9)  # out of band, between events 0 and 1

    rows, _ = run_budget_audit(BudgetAudit, events, oob=oob)
    ref_rows, _ = run_budget_audit(TwoSnapshotBudgetAudit, events, oob=oob)
    # each insert of a fresh root adds t0 + t2 = 3 to W while the roots
    # stay under plastic_cap; the reference never sees the key-9 insert
    assert rows[0] == ref_rows[0] == ("i", 0, 3, 0, 3, 30)
    assert ref_rows[1] == ("i", 0, 3, 2, 3, 30)
    assert rows[1] == ("i", 0, 6, 1, 6, 30)
    assert rows[2:] == ref_rows[2:]


# ------------------------------------------------- corrupted states

def _rho(v):
    return v.rank + 1 if v.status == CRITICAL_INNER else v.rank


def corrupted_states():
    """Random states with one to three vertices' rank, status or key
    corrupted, then random states with one or two non-roots made
    dangerous; yields each heap once corrupted. Each heap's tallies are
    read before its replay, so they are kept from the start and the
    corruption moves none of them."""
    for seed in range(240):
        rng = random.Random(seed)
        events = gen_workload("random", 300, seed=seed)
        h = PadovanHeap()
        h.potentials()
        replay(events[:rng.randrange(20, len(events))], h)
        vertices = list(iter_vertices(h))
        for v in rng.sample(vertices, min(len(vertices), rng.randint(1, 3))):
            field = rng.choice(("rank", "status", "key"))
            if field == "rank":
                v.rank += rng.choice((-2, -1, 1, 2))
            elif field == "status":
                v.status = rng.choice([s for s in range(-1, 5)
                                       if s != v.status])
            else:
                v.key += rng.choice((-10**6, -1, 1, 10**6))
        yield h
    # The rank is set to the rightmost inner child's rho, under a
    # noncritical or an out-of-range status: only a raw noncritical status
    # makes a steady_dangerous.
    for seed in range(240, 300):
        rng = random.Random(seed)
        events = gen_workload("random", 300, seed=seed)
        h = PadovanHeap()
        h.potentials()
        replay(events[:rng.randrange(100, len(events))], h)
        roots = set(h.roots())
        targets = [v for v in iter_vertices(h)
                   if v not in roots and v.child is not None
                   and v.child.left.status <= CRITICAL_INNER
                   and _rho(v.child.left) > 0]
        for v in rng.sample(targets, min(len(targets), rng.randint(1, 2))):
            v.rank = _rho(v.child.left)
            v.status = rng.choice((NONCRITICAL_INNER, -1, 4))
        yield h


# ------------------------------------- the audit against a frozen reference
#
# frozen_walk and frozen_audit are the one-walk audit as it stood when its
# maps were keyed by id() and it called _rho and _is_dangerous per vertex,
# except that a negative rank gets no size bound, as in the audit, and that
# its liveness test is list_model.is_live, a lookup in the heap's own live
# set. The faster audit must give the same four outputs, in the same order.

def _frozen_is_dangerous(v):
    if v.rank == 0 or v.child is None:
        return False
    w0 = v.child.left
    if w0.status > CRITICAL_INNER:
        return False
    return v.rank <= _rho(w0)


def frozen_walk(heap):
    d = heap.dummy
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
        if nxt is not owner:
            violations.append(Violation(
                "broken_owner_link", owner_key=owner.key, child_key=v.key))
            continue
        prev = v
        for v in members:
            if v.left is not prev:
                violations.append(Violation(
                    "broken_left_cycle", owner_key=owner.key, child_key=v.key))
            prev = v
            if id(v) in seen:
                violations.append(Violation("shared_vertex", key=v.key))
                continue
            if not is_live(heap, v):
                violations.append(Violation("dead_vertex", key=v.key))
            seen[id(v)] = v
            if v.child is not None:
                stack.append(v)
    if not violations and len(seen) != heap.size:
        violations.append(Violation(
            "size_mismatch", reachable=len(seen), recorded=heap.size))
    root_ids = {id(r) for r in lists[0][1]} if lists else set()
    return violations, seen, lists, root_ids


def frozen_audit(heap, table=None):
    links, seen, lists, root_ids = frozen_walk(heap)
    if links:
        return links, links, links, None
    if table is None:
        table = size_bound_table(heap.max_rank_seen + 1)
    violations = []

    kids_of = {id(owner): members for owner, members in lists}
    for owner, members in lists[1:]:
        seen_nonplaced = False
        inner_idx = 0
        prev_rho = None
        for v in members:
            if not (NONCRITICAL_INNER <= v.status <= OUTER_MISPLACED):
                violations.append(Violation(
                    "bad_status", key=v.key, status=v.status))
                continue
            if v.key < owner.key:
                violations.append(Violation(
                    "heap_order", parent_key=owner.key, child_key=v.key))
            if v.status == OUTER_PLACED:
                if seen_nonplaced:
                    violations.append(Violation(
                        "layout", parent_key=owner.key, child_key=v.key,
                        detail="placed child after the placed prefix"))
            else:
                seen_nonplaced = True
            if v.status <= CRITICAL_INNER:
                rho = _rho(v)
                if rho < inner_idx:
                    violations.append(Violation(
                        "index_bound", parent_key=owner.key, child_key=v.key,
                        inner_index=inner_idx, rho=rho))
                if prev_rho is not None and rho < prev_rho + 1:
                    violations.append(Violation(
                        "inner_order", parent_key=owner.key, child_key=v.key,
                        prev_rho=prev_rho, rho=rho))
                prev_rho = rho
                inner_idx += 1

    sizes = {}
    for owner, kids in reversed(lists):
        size = 1
        i = len(kids) - 1
        while i >= 0 and kids[i].status == OUTER_MISPLACED:
            i -= 1
        if i >= 0 and kids[i].status != OUTER_PLACED:
            w0 = kids[i]
            size += sizes.get(id(w0), 1)
            if i > 0:
                u = kids[i - 1]
                st = u.status
                if (st != OUTER_MISPLACED and st != OUTER_PLACED
                        and _rho(w0) <= _rho(u) + 1):
                    size += sizes.get(id(u), 1)
        sizes[id(owner)] = size

    short = {}
    nonroot = [0, 0, 0, 0]
    root = [0, 0, 0, 0]
    rank_sum = 0
    dangerous = 0
    for v in seen.values():
        vid = id(v)
        r = v.rank
        rank_sum += r
        is_root = vid in root_ids
        st = v.status
        if not CRITICAL_INNER <= st <= OUTER_MISPLACED:
            st = NONCRITICAL_INNER
        if is_root:
            root[st] += 1
        else:
            nonroot[st] += 1
        kids = kids_of.get(vid, ())
        if not kids and r == 0:
            continue
        danger = _frozen_is_dangerous(v)
        dangerous += danger
        size = sizes.get(vid, 1)
        if r < 0:  # no size bound: the table starts at rank 0
            violations.append(Violation("negative_rank", key=v.key, rank=r))
            continue
        bound = table[r] if r < len(table) else size_bound_table(r)[r]
        if size < bound:
            short[vid] = Violation(
                "size_bound", key=v.key, rank=r, size=size, bound=bound)
        inner_count = sum(1 for w in kids if w.status <= CRITICAL_INNER)
        if r < inner_count:
            violations.append(Violation(
                "rank_budget", key=v.key, rank=r, inner_children=inner_count))
        w0 = kids[-1] if kids else None
        if w0 is not None and w0.status == OUTER_MISPLACED:
            violations.append(Violation(
                "misplaced_rightmost", key=v.key, child_key=w0.key))
            continue
        if w0 is None or w0.status == OUTER_PLACED:
            if r != 0:
                violations.append(Violation(
                    "rank_mismatch", key=v.key, rank=r, expect=0,
                    detail="no inner children"))
            continue
        rho0 = _rho(w0)
        if len(kids) >= 2:
            u = kids[-2]
            if u.status == OUTER_MISPLACED:
                gap = True
            elif u.status == OUTER_PLACED:
                gap = rho0 > 0
            else:
                gap = rho0 > _rho(u) + 1
        else:
            gap = rho0 > 0
        if gap and w0.status == CRITICAL_INNER:
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

    order = iter_vertices(heap) if short else ()
    undersized = [short[id(v)] for v in order if id(v) in short]

    n = heap.size
    tau = len(root_ids)
    critical = nonroot[CRITICAL_INNER]
    inner = nonroot[NONCRITICAL_INNER] + critical
    phi2 = 0 if n == 0 else min(tau, plastic_cap(n))
    phis = (tau, nonroot[OUTER_PLACED], phi2, critical, rank_sum - inner,
            nonroot[OUTER_MISPLACED], dangerous)
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


def assert_matches_frozen(h):
    """The audit's four outputs, read through the views that return them,
    equal the frozen audit's, rendered and in order, and so does
    audit_state; returns the kinds of the frozen violations."""
    frozen = frozen_audit(h)
    structure, undersized, tallies = [[v.render() for v in vs]
                                      for vs in frozen[:3]]
    phis = frozen[3]
    assert [v.render() for v in check_structure(h)] == structure
    assert [v.render() for v in check_size_bounds(h)] == undersized
    assert [v.render() for v in verify_tallies(h)] == tallies
    assert ([v.render() for v in audit_state(h)]
            == (structure or undersized + tallies))
    if phis is None:
        with pytest.raises(ValueError):
            compute_potentials(h)
    else:
        assert compute_potentials(h) == phis
    return {v.kind for v in frozen[0] + frozen[1] + frozen[2]}


def test_audit_matches_frozen_reference_after_every_event():
    runs = [("random", 600, seed) for seed in range(8)]
    runs += [("competition", 500, 0), ("ascending", 500, 0)]
    for mode, n, seed in runs:
        h = PadovanHeap()
        replay(gen_workload(mode, n, seed=seed), h,
               after=lambda idx, ev: assert_matches_frozen(h))


def test_audit_matches_frozen_reference_on_the_audit_plan_shapes():
    # perfbench's audit workload: short random traces of 100, 500 and 1000
    # ops, each from the empty heap, every state audited
    rng = random.Random(24)
    for n in (100, 100, 100, 500, 1000):
        h = PadovanHeap()
        replay(gen_workload("random", n, seed=rng.randrange(2 ** 31)), h,
               after=lambda idx, ev: assert_matches_frozen(h))


def test_active_closure_sizes_match_frozen_reference(monkeypatch):
    # Bounds no vertex of rank 3 or more can meet make check_size_bounds
    # report every such vertex's active-closure size, which sums the sizes
    # of the ranks below; P(0..2) = 1 stays, as those ranks are never
    # checked. The traces of ..._on_the_audit_plan_shapes, some of those of
    # ..._after_every_event, then the corrupted states.
    table = [1, 1, 1] + [10 ** 9] * 61
    monkeypatch.setattr(auditor, "_size_bounds", table)
    rng = random.Random(24)
    runs = [("random", n, rng.randrange(2 ** 31))
            for n in (100, 100, 100, 500, 1000)]
    runs += [("random", 600, seed) for seed in range(4)]
    runs += [("competition", 500, 0), ("ascending", 500, 0)]
    reported = 0

    def after(idx, ev):
        nonlocal reported
        want = [v.render() for v in frozen_audit(h, table)[1]]
        assert [v.render() for v in check_size_bounds(h)] == want
        reported += len(want)

    for mode, n, seed in runs:
        h = PadovanHeap()
        replay(gen_workload(mode, n, seed=seed), h, after=after)
    for h in corrupted_states():
        after(None, None)
    assert reported > 20000


def test_audit_matches_frozen_reference_on_corrupted_states():
    reported = set()
    for h in corrupted_states():
        reported |= assert_matches_frozen(h)
    assert {"bad_status", "rank_budget", "negative_rank", "size_bound",
            "tally_mismatch", "rank_mismatch", "steady_dangerous"} <= reported


class FakeVertex:
    """Not a Node, but with the three links the walk follows."""

    def __init__(self, key):
        self.key = key
        self.left = self
        self.right = None
        self.child = None


class UnhashableFakeVertex(FakeVertex):
    def __eq__(self, other):  # defining __eq__ drops __hash__
        return self is other


def _hang_below(leaf, x):
    """Make x the sole child of the leaf."""
    x.left = x
    x.right = leaf
    x.child = None
    leaf.child = x


def link_corruptions(h, rng):
    """(kind, corrupt) pairs: each corrupt() breaks h's links so that the
    frozen walk reports kind."""
    vs = list(iter_vertices(h))
    roots = h.roots()
    leaves = [v for v in vs if v.child is None]
    nonroots = [v for v in vs if v not in roots]
    d = h.dummy

    def owner_link():
        # a rightmost child's right link points past its owner
        v = rng.choice([v for v in nonroots if v.right.left is not v])
        v.right = rng.choice([r for r in roots + [d] if r is not v.right])

    def owner_cycle():
        rng.choice(leaves).child = rng.choice(roots)

    def left_cycle():
        # a leftmost member's left link is read by no end test
        owner = rng.choice([d] + [v for v in vs if v.child is not None])
        v = owner.child
        v.left = v if v.left is not v else owner

    def shared():
        # the dummy head hung below a leaf, its root list kept: the root
        # list is walked twice
        leaf = rng.choice(leaves)
        d.right = leaf
        leaf.child = d

    def dead_freed():
        f = h.arena.alloc(-1)
        h.arena.free(f)
        _hang_below(rng.choice(leaves), f)

    def dead_fake():
        _hang_below(rng.choice(leaves), FakeVertex(-1))

    def dead_unhashable():
        _hang_below(rng.choice(leaves), UnhashableFakeVertex(-1))

    def size():
        h._size += rng.choice((-1, 1))

    def right_cycle():
        # the rightmost member's right link aimed at the leftmost member:
        # every end test passes, so only the hop cap stops the walk
        first = rng.choice([d] + [v for v in vs if v.child is not None]).child
        first.left.right = first

    # Where the walk reaches each vertex: it pops rightmost members first.
    # A leaf given a child keeps its place.
    pos = {}
    stack = [d]
    while stack:
        v = stack.pop()
        pos[v] = len(pos)
        stack.extend(children(v))
    first_leaf = min(pos[v] for v in leaves)
    last_leaf = max(pos[v] for v in leaves)
    # owners below the root list; those walked after some leaf, and with a
    # child that has children, for a broken list walked first
    below = [v for v in vs if v.child is not None]
    late = [v for v in below if pos[v] > first_leaf
            and any(w.child is not None for w in children(v))]
    early = [v for v in below if pos[v] < last_leaf]

    def broken_first():
        # a leaf walked before owner o, its child aimed at o's leftmost
        # child: the leaf's list runs on to o, so it is broken; its members,
        # some with children, are reached again from o
        o = rng.choice(late)
        rng.choice([v for v in leaves if pos[v] < pos[o]]).child = o.child

    def broken_last():
        # the same, with the leaf walked after o: the broken list's members
        # were reached from o first
        o = rng.choice(early)
        leaf = rng.choice([v for v in leaves if pos[v] > pos[o]])
        leaf.child = rng.choice(children(o))

    out = [("broken_owner_link", owner_cycle), ("broken_left_cycle", left_cycle),
           ("shared_vertex", shared), ("dead_vertex", dead_freed),
           ("dead_vertex", dead_fake), ("dead_vertex", dead_unhashable),
           ("size_mismatch", size)]
    if nonroots:
        out.append(("broken_owner_link", owner_link))
    # add cases at the end: each draws from rng after the cases before it
    out.append(("broken_owner_link", right_cycle))
    if late:
        out.append(("broken_owner_link", broken_first))
    if early:
        out.append(("broken_owner_link", broken_last))
    return out


def test_audit_matches_frozen_reference_on_broken_links():
    for seed in range(30):
        rng = random.Random(seed)
        events = gen_workload("random", 300, seed=seed)
        stop = rng.randrange(60, len(events))

        def fresh():
            h = PadovanHeap()
            replay(events[:stop], h)
            return h

        for i in range(len(link_corruptions(fresh(), rng))):
            h = fresh()
            kind, corrupt = link_corruptions(h, rng)[i]
            corrupt()
            assert kind in assert_matches_frozen(h), (seed, kind)


def test_views_of_a_consumed_heap_raise_stale_handle():
    a = PadovanHeap()
    b = PadovanHeap(a.arena)
    for k in range(1, 9):
        a.insert(k)
        b.insert(10 + k)
    b.find_min()
    a.meld(b)
    views = (audit_state, check_structure, check_size_bounds, verify_tallies,
             compute_potentials, check_root_safety,
             lambda h: list(iter_vertices(h)))
    for view in views:
        with pytest.raises(StaleHandleError):
            view(b)
    assert audit_state(a) == []
