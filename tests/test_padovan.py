"""Padovan heap: hand-built scenarios with frozen outcomes, then randomized
differential runs against the oracle with the auditor riding along."""

import collections
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from padovanheap import (
    FibonacciHeap, PadovanHeap, Oracle, plastic_cap, STATUS_NAMES)
import padovanheap
from padovanheap.node_store import (
    NONCRITICAL_INNER, CRITICAL_INNER, OUTER_PLACED, OUTER_MISPLACED, ROOT)
from padovanheap import oracle
from padovanheap.errors import EmptyHeapError, KeyIncreaseError, StaleHandleError
from padovanheap.auditor import audit_state, check_root_safety, children
from padovanheap.trace import iter_workload, replay

from fuzz_traces import traces
from list_model import (
    LAST, detach, is_live, members, probe, push_back, push_front)


def shape(h):
    """(key, rank, [children keys left-to-right]) for each root, in root order."""
    out = []
    for r in h.roots():
        kids = [(w.key, STATUS_NAMES[w.status]) for w in children(r)]
        out.append((r.key, r.rank, kids))
    return out


def audit_clean(h):
    vs = audit_state(h)
    assert vs == [], [v.render() for v in vs]


# ---------------------------------------------------------------- basics

def test_insert_is_cheap():
    h = PadovanHeap()
    c = h.arena.counters
    for i in range(10):
        lw, cmps, _, _ = c.snapshot()
        h.insert(i)
        assert c.comparisons - cmps == 0
        assert c.link_writes - lw <= 6
    assert h.size == 10
    assert len(list(h.roots())) == 10  # every insert is a new rank-0 root
    audit_clean(h)


def test_insert_order_of_roots():
    h = PadovanHeap()
    for k in (7, 3, 9):
        h.insert(k)
    assert [r.key for r in h.roots()] == [7, 3, 9]


def test_empty_heap_raises():
    h = PadovanHeap()
    with pytest.raises(EmptyHeapError):
        h.find_min()
    with pytest.raises(EmptyHeapError):
        h.delete_min()
    assert h.is_empty() and h.size == 0


def test_three_roots_consolidate():
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in (3, 1, 2)}
    m = h.find_min()
    assert m.key == 1
    assert shape(h) == [(1, 1, [(2, "P"), (3, "N")])]
    assert h.potentials() == (1, 1, 1, 0, 0, 0, 0)
    audit_clean(h)
    assert check_root_safety(h) == []
    assert h.key_of(hs[1]) == 1


def test_four_roots_chain_to_rank_two():
    # joins chain: the freshly joined tree is pushed back and wins again
    h = PadovanHeap()
    for k in (4, 1, 3, 2):
        h.insert(k)
    m = h.find_min()
    assert m.key == 1
    roots = list(h.roots())
    assert len(roots) == 1 and roots[0].rank == 2
    kids = children(roots[0])
    assert [w.rank for w in kids] == [0, 1]
    assert [w.status for w in kids] == [NONCRITICAL_INNER, NONCRITICAL_INNER]
    assert h.potentials() == (1, 0, 1, 0, 0, 0, 0)
    audit_clean(h)


def test_eight_roots_make_rank_three():
    h = PadovanHeap()
    for k in range(1, 9):
        h.insert(k)
    assert h.find_min().key == 1
    (r,) = list(h.roots())
    assert r.rank == 3
    assert [w.rank for w in children(r)] == [0, 1, 2]
    audit_clean(h)


def test_delete_min_drains_sorted():
    h = PadovanHeap()
    rng = random.Random(11)
    ks = rng.sample(range(-500, 500), 120)
    for k in ks:
        h.insert(k)
    out = []
    while not h.is_empty():
        out.append(h.delete_min())
        audit_clean(h)
    assert out == sorted(ks)


def test_find_min_is_idempotent_and_second_call_free():
    h = PadovanHeap()
    for k in range(20, 0, -1):
        h.insert(k)
    assert h.find_min().key == 1
    c = h.arena.counters
    lw, cmps, _, _ = c.snapshot()
    assert h.find_min().key == 1
    # one safe root: second find_min scans tau=1 roots, no joins
    assert c.comparisons - cmps == 0
    assert c.link_writes - lw == 0


# ------------------------------------------------------- decrease_key

def test_decrease_key_on_root_is_constant():
    h = PadovanHeap()
    v = h.insert(50)
    h.insert(60)
    c = h.arena.counters
    _, cmps, rs, _ = c.snapshot()
    h.decrease_key(v, 40)
    assert v.key == 40
    assert c.comparisons - cmps == 0
    assert c.rank_steps - rs == 0


def test_decrease_key_equal_key_allowed():
    h = PadovanHeap()
    v = h.insert(5)
    h.decrease_key(v, 5)
    assert v.key == 5
    with pytest.raises(KeyIncreaseError):
        h.decrease_key(v, 6)
    assert v.key == 5


def test_decrease_key_not_last_two_is_local():
    # root 1 with children ranks 0,1,2: the rank-0 child is not among the
    # last two, so cutting it flips it to misplaced-at-front with no rank
    # work
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in range(1, 9)}
    h.find_min()
    (r,) = list(h.roots())
    w0 = children(r)[0]
    assert w0.rank == 0
    c = h.arena.counters
    rs = c.rank_steps
    h.decrease_key(hs[w0.key], -1)
    assert c.rank_steps - rs == 0
    assert [x.key for x in h.roots()][-1] == -1
    audit_clean(h)


def test_decrease_key_rightmost_triggers_recompute():
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in range(1, 9)}
    h.find_min()
    (r,) = list(h.roots())
    last = children(r)[-1]
    assert last.rank == 2
    rs = h.arena.counters.rank_steps
    h.decrease_key(hs[last.key], 0)
    assert h.arena.counters.rank_steps - rs >= 1
    assert r.rank == 2  # rank recomputed from the new rightmost, a critical flip
    audit_clean(h)


def test_cascade_critical_flip_then_rule_two():
    """Cut 7 (second-to-last under 5): 5 goes critical, root keeps rank 3.
    Then cut 3 (second-to-last under the root): rule 2 demotes critical 5."""
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in range(1, 9)}
    h.find_min()
    (r,) = list(h.roots())
    assert [w.key for w in children(r)] == [2, 3, 5]

    h.decrease_key(hs[7], 0)
    five = hs[5]
    assert five.status == CRITICAL_INNER
    assert r.rank == 3  # critical 5 counts as rank+1, so the root rule is unchanged
    audit_clean(h)

    h.decrease_key(hs[3], -1)
    # rule 2 kicked 5 to the placed prefix, rule 3 settled on child 2
    assert five.status == OUTER_PLACED
    assert r.rank == 1
    assert [w.key for w in children(r)] == [5, 2]
    assert [w.status for w in children(r)] == [OUTER_PLACED, NONCRITICAL_INNER]
    audit_clean(h)


def test_dangerous_root_rests_until_find_min():
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in range(1, 9)}
    h.find_min()
    (r,) = list(h.roots())
    h.decrease_key(hs[3], 0)  # rule 1: rank = rho(w0) = 2, dangerous
    assert r.rank == 2
    audit_clean(h)  # dangerous root at rest is legal
    unsafe = check_root_safety(h)
    assert len(unsafe) == 1 and unsafe[0].info["key"] == r.key

    h.find_min()  # make_safe demotes, then the two rank-1 roots join
    audit_clean(h)
    assert check_root_safety(h) == []
    roots = list(h.roots())
    assert len(roots) == 1 and roots[0].rank == 2
    assert h.potentials()[6] == 0


def test_find_min_repairs_a_lone_dangerous_root():
    # deleting the rank-0 child of a rank-2 root leaves rule 1 at the root:
    # rank 1 = rho of its only child, so the lone root is dangerous
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in (1, 2, 3, 4)}
    h.find_min()
    h.delete(hs[2])
    (r,) = list(h.roots())
    assert r.rank == 1 and len(check_root_safety(h)) == 1
    c = h.arena.counters
    steps = c.rank_steps
    assert h.find_min() is r
    assert c.rank_steps > steps
    assert check_root_safety(h) == []
    assert h.potentials()[6] == 0
    audit_clean(h)


def test_delete_min_repairs_a_lone_dangerous_root():
    # the state of the test above, popped with no find_min first: delete_min
    # must not take the dangerous root as it stands
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in (1, 2, 3, 4)}
    h.find_min()
    h.delete(hs[2])
    assert len(check_root_safety(h)) == 1
    assert h.delete_min() == 1
    audit_clean(h)
    # the same as find_min() then delete_min()
    assert h.arena.counters.snapshot() == (67, 3, 2, 1)
    assert h.potentials() == (1, 0, 1, 0, 0, 0, 0)


def test_find_min_recovers_from_a_raising_comparison():
    # 1 and 2 join into a rank-1 tree that waits in its bucket while 3 meets
    # "x"; that comparison raises, and no bucket entry may outlive it
    h = PadovanHeap()
    for k in (1, 2, 3):
        h.insert(k)
    x = h.insert("x")
    with pytest.raises(TypeError):
        h.find_min()
    # the completed join, and its 6 link writes on top of the inserts' 24
    assert h.arena.counters.snapshot() == (30, 1, 0, 0)
    audit_clean(h)
    h.delete(x)
    assert h.find_min().key == 1
    audit_clean(h)
    assert [h.delete_min() for _ in range(3)] == [1, 2, 3]


# --------------------------------------------------------- delete, meld

def test_delete_root_leaf():
    h = PadovanHeap()
    v = h.insert(5)
    h.insert(3)
    h.delete(v)
    assert h.size == 1
    assert h.find_min().key == 3
    with pytest.raises(StaleHandleError):
        h.decrease_key(v, 1)


def test_delete_internal_promotes_children():
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in range(1, 9)}
    h.find_min()
    five = hs[5]
    assert five.child is not None
    h.delete(five)
    assert h.size == 7
    assert not is_live(h, five)
    audit_clean(h)
    out = []
    while not h.is_empty():
        out.append(h.delete_min())
    assert out == [1, 2, 3, 4, 6, 7, 8]


def test_delete_min_equals_delete_of_min_handle():
    h = PadovanHeap()
    for k in (9, 2, 7, 4):
        h.insert(k)
    assert h.delete_min() == 2
    assert h.find_min().key == 4


def test_meld_counts_and_consumption():
    h1 = PadovanHeap()
    h2 = PadovanHeap(h1.arena)
    for k in (1, 2):
        h1.insert(k)
    hs3 = [h2.insert(k) for k in (3, 4, 5)]
    h1.meld(h2)
    assert h1.size == 5
    assert [r.key for r in h1.roots()] == [1, 2, 3, 4, 5]
    with pytest.raises(StaleHandleError):
        h2.insert(9)
    with pytest.raises(StaleHandleError):
        h2.find_min()
    # handles from the consumed heap stay valid on the survivor
    h1.decrease_key(hs3[2], 0)
    assert h1.find_min().key == 0
    audit_clean(h1)


def test_consumed_heap_rejects_handles_and_views():
    h1 = PadovanHeap()
    h2 = PadovanHeap(h1.arena)
    h1.insert(1)
    v = h2.insert(2)
    h1.meld(h2)
    for call in (lambda: h2.key_of(v), lambda: h2.decrease_key(v, 0),
                 lambda: h2.delete(v), h2.roots, h2.potentials,
                 h2.delete_min):
        with pytest.raises(StaleHandleError):
            call()
    # the handle still belongs to the survivor
    assert h1.key_of(v) == 2
    h1.decrease_key(v, 0)
    assert h1.delete_min() == 0
    audit_clean(h1)


def test_foreign_nonroot_handle_is_rejected():
    # two heaps on one arena: each checks handles against its own live set,
    # so a non-root of b is foreign to a although the arena holds it
    a = PadovanHeap()
    b = PadovanHeap(a.arena)
    for k in range(10):
        a.insert(k)
    hs = [b.insert(k) for k in range(100, 110)]
    a.find_min()
    b.find_min()
    roots = b.roots()
    v = [w for w in hs if w not in roots][-1]
    before = (state_digest(a), state_digest(b))
    for call in handle_calls(a, v):
        with pytest.raises(StaleHandleError):
            call()
    assert (state_digest(a), state_digest(b)) == before
    audit_clean(a)
    audit_clean(b)


def test_meld_with_empty_both_ways():
    h1 = PadovanHeap()
    h2 = PadovanHeap(h1.arena)
    h1.insert(1)
    h1.meld(h2)
    assert h1.size == 1
    h3 = PadovanHeap(h1.arena)
    h3.meld(h1)
    assert h3.size == 1 and h3.find_min().key == 1


def test_meld_rejects_self_and_foreign_arena():
    """Only a self-meld is rejected: heaps on two arenas meld, and each
    arena keeps the steps made on it."""
    h1 = PadovanHeap()
    h2 = PadovanHeap()
    h1.insert(1)
    v = h2.insert(2)
    with pytest.raises(ValueError):
        h1.meld(h1)
    steps2 = h2.arena.counters.snapshot()
    h1.meld(h2)
    assert h2.arena.counters.snapshot() == steps2
    assert h1.size == 2 and h1.key_of(v) == 2
    h1.decrease_key(v, 0)
    assert h1.delete_min() == 0
    audit_clean(h1)


def test_stale_handle_after_delete_min():
    h = PadovanHeap()
    v = h.insert(1)
    h.insert(2)
    h.delete_min()
    with pytest.raises(StaleHandleError):
        h.decrease_key(v, 0)
    with pytest.raises(StaleHandleError):
        h.delete(v)


@pytest.mark.parametrize("status, label", [(5, "?5"), (-1, "?-1")])
def test_stale_handle_message_shows_an_out_of_range_status(status, label):
    h = PadovanHeap()
    v = h.insert(1)
    h.delete(v)
    v.status = status
    with pytest.raises(StaleHandleError) as err:
        h.key_of(v)
    assert str(err.value) == (
        "dead or foreign handle: Node(key=1, rank=0, %s)" % label)


# ------------------------------------------- handle checks of both heaps

def heap_digest(h):
    """state_digest for a PadovanHeap; for a FibonacciHeap, a hash of its
    counters, size and every ring, with keys, degrees and marks; for an
    Oracle, a hash of its live keys and its heap entries."""
    if isinstance(h, PadovanHeap):
        return state_digest(h)
    if isinstance(h, Oracle):
        return hash((tuple(sorted(h._keys.items())), tuple(sorted(h._heap))))

    def ring(start):
        out = []
        x = start
        while x is not None:
            out.append((x.key, x.degree, x.marked, ring(x.child)))
            x = x.right
            if x is start:
                break
        return tuple(out)

    return hash((h.counters.snapshot(), h.size, ring(h._min)))


def handle_calls(h, v):
    return (lambda: h.key_of(v), lambda: h.decrease_key(v, -1),
            lambda: h.delete(v))


@pytest.mark.parametrize("cls", [PadovanHeap, FibonacciHeap, Oracle])
def test_non_node_handles_are_stale(cls, monkeypatch):
    # an Oracle drawing handles from 0 holds the live int handle 1 (key 2),
    # which 1.0 and True must not alias
    monkeypatch.setattr(oracle, "_next_handle", itertools.count(0))
    h = cls()
    for k in range(1, 9):
        h.insert(k)
    h.delete_min()
    if cls is Oracle:
        assert h.key_of(1) == 2
    before = heap_digest(h)
    junks = [[], "x", None, 1.0, True]
    if cls is PadovanHeap:
        junks.append(h.dummy)  # a Node, but never a live vertex
    for junk in junks:
        for call in handle_calls(h, junk):
            with pytest.raises(StaleHandleError):
                call()
    assert heap_digest(h) == before


@pytest.mark.parametrize("cls", [PadovanHeap, FibonacciHeap])
def test_handles_of_another_heap_are_rejected(cls):
    """Each heap has its own live set, so a live handle of the other is
    foreign, root or not; so is the other padovan heap's dummy head."""
    a, b = cls(), cls()
    for k in range(1, 9):
        a.insert(k)
    hb = [b.insert(k) for k in range(10, 18)]
    a.delete_min()
    b.delete_min()  # both heaps now hold trees, so hb has non-root handles
    before = (heap_digest(a), heap_digest(b))
    for v in hb[1:] + ([b.dummy] if cls is PadovanHeap else []):
        for call in handle_calls(a, v):
            with pytest.raises(StaleHandleError):
                call()
    assert (heap_digest(a), heap_digest(b)) == before
    assert [a.delete_min() for _ in range(7)] == list(range(2, 9))
    assert [b.delete_min() for _ in range(7)] == list(range(11, 18))


# ------------------------------------------------- randomized differential

def run_differential(seed, n_ops, audit_every=1):
    rng = random.Random(seed)
    h = PadovanHeap()
    o = Oracle()
    hs = []  # parallel (node, oracle_handle, key) triples
    used = set()

    def fresh_key():
        while True:
            k = rng.randint(-10**6, 10**6)
            if k not in used:
                used.add(k)
                return k

    for step in range(n_ops):
        op = rng.choices("ifdkx", weights=(40, 10, 20, 25, 5))[0]
        if op == "i" or not hs:
            k = fresh_key()
            hs.append((h.insert(k), o.insert(k), k))
        elif op == "f":
            assert h.find_min().key == o.key_of(o.find_min())
        elif op == "d":
            mk = h.delete_min()
            assert mk == o.delete_min()
            hs = [t for t in hs if t[2] != mk]
        elif op == "k":
            i = rng.randrange(len(hs))
            v, ho, k = hs[i]
            nk = rng.randint(k - 10**6, k)
            if nk in used and nk != k:
                continue
            used.add(nk)
            h.decrease_key(v, nk)
            o.decrease_key(ho, nk)
            hs[i] = (v, ho, nk)
        else:
            i = rng.randrange(len(hs))
            v, ho, k = hs[i]
            h.delete(v)
            o.delete(ho)
            del hs[i]
        assert h.size == o.size
        if step % audit_every == 0:
            audit_clean(h)
    # drain both to the floor
    drained = []
    while not h.is_empty():
        drained.append(h.delete_min())
    assert drained == sorted(drained)
    assert o.size == len(drained)


def test_differential_small_seeds():
    for seed in range(8):
        run_differential(seed, 300)


def test_differential_longer_run():
    run_differential(777, 3000, audit_every=25)


def test_rank_stays_logarithmic():
    h = PadovanHeap()
    rng = random.Random(4242)
    ks = rng.sample(range(10**6), 4000)
    for k in ks:
        h.insert(k)
    for _ in range(2000):
        h.delete_min()
        live = max((r.rank for r in h.roots()), default=0)
        assert live <= plastic_cap(h.size) + 3
    assert h.max_rank_seen <= plastic_cap(4000) + 3


@pytest.mark.parametrize("n", [0, 0.5, -3])
def test_plastic_cap_rejects_n_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        plastic_cap(n)


def test_plastic_cap_rejects_n_below_one_under_optimize():
    """-O strips asserts; plastic_cap(0.5) must not return -1 there, nor
    plastic_cap(0) raise a bare AssertionError."""
    code = ("from padovanheap import plastic_cap\n"
            "for n in (0, 0.5):\n"
            "    try:\n"
            "        print(plastic_cap(n))\n"
            "    except ValueError as e:\n"
            "        print(e)\n")
    pkg_parent = Path(padovanheap.__file__).resolve().parent.parent
    r = subprocess.run([sys.executable, "-O", "-c", code],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(pkg_parent)})
    assert r.returncode == 0, r.stderr
    assert r.stdout == ("plastic_cap needs n >= 1, got 0\n"
                        "plastic_cap needs n >= 1, got 0.5\n")


# --------------------------- inline surgery against the two-step list model

class TwoStepHeap(PadovanHeap):
    """Every list move made as calls, in list_model's two-step form:
    insert through Arena.alloc + push_back; find_min's joins and links
    through detach + push_back and detach + push_front; delete_min, the
    heap's own, through this find_min; _cut through the model's probe,
    _is_dangerous and detach + push_back; placing a child through detach +
    push_front; _remove_root through detach, Arena.concat and Arena.free;
    and the handle checks through the model's is_live. Each call counts its
    own writes, so this heap counts by Arena's table by construction. The
    reference that the heap's inline surgery is checked against. Its
    tallies are read at construction, so it keeps them from the start and
    its bookings below need no test. It tells a root by a scan of roots(),
    and asserts that the scan agrees with the vertex's status ROOT."""

    def __init__(self):
        super().__init__()
        self.potentials()

    def _is_root(self, v):
        return any(r is v for r in self.roots())

    def _check_handle(self, v):
        self._require_alive()
        if not is_live(self, v):
            raise StaleHandleError("dead or foreign handle: %r" % (v,))

    def key_of(self, v):
        self._check_handle(v)
        return v.key

    def insert(self, key):
        d = self._require_alive()
        v = self.arena.alloc(key)
        self._live.add(v)
        push_back(self.arena, d, v)
        self._stat_tally[ROOT] += 1
        v.status = ROOT
        self._size += 1
        return v

    def decrease_key(self, v, new_key):
        self._check_handle(v)
        if new_key > v.key:
            raise KeyIncreaseError(
                "decrease_key %r -> %r is an increase" % (v.key, new_key))
        self._cut(v)
        v.key = new_key

    def delete(self, v):
        self._check_handle(v)
        self._cut(v)
        if self._is_dangerous(v):
            self._dangerous -= 1
        self._remove_root(v)

    def _place(self, owner, w):
        a = self.arena
        detach(a, w, owner)
        push_front(a, owner, w)
        self._set_status(w, OUTER_PLACED)
        a.counters.placings += 1

    def _remove_root(self, m):
        a = self.arena
        d = self._dummy
        detach(a, m, d)
        kids = members(m, bound=self._size)
        a.concat(d, m)
        t = self._stat_tally
        for w in kids:
            t[w.status] -= 1
            w.status = ROOT
        t[ROOT] += len(kids) - 1
        self._rank_sum -= m.rank
        self._size -= 1
        self._live.remove(m)
        a.free(m)

    def _to_root(self, v):
        t = self._stat_tally
        t[v.status] -= 1
        t[ROOT] += 1
        v.status = ROOT

    def _cut(self, v):
        a = self.arena
        d = self._dummy
        dang = self._is_dangerous
        code, p = probe(v)
        if code is None:
            root = self._is_root(v)
            assert root == (v.status == ROOT)
            if not root:
                self._to_root(v)
            detach(a, v)
            push_back(a, d, v)
            return
        if p.right is p:
            return
        p_pre = dang(p)
        self._to_root(v)
        detach(a, v, p)
        push_back(a, d, v)
        while True:
            old = p.rank
            code, g = probe(p)
            watch = code == LAST and g.right is not g
            if watch:
                g_pre = dang(g)
            self._recompute_rank(p)
            delta = old - p.rank
            assert delta >= 0, "rank increased during cascade"
            p_post = dang(p)
            if p_post != p_pre:
                self._dangerous += 1 if p_post else -1
            stop = True
            if delta == 0:
                pass
            elif code is None:
                root = self._is_root(p)
                assert root == (p.status == ROOT)
                st = p.status
                if not root and (st == NONCRITICAL_INNER
                                 or st == CRITICAL_INNER):
                    self._set_status(p, CRITICAL_INNER
                                     if st == NONCRITICAL_INNER and delta == 1
                                     else OUTER_MISPLACED)
            elif g.right is g:
                pass
            else:
                st = p.status
                if st == NONCRITICAL_INNER and delta == 1:
                    self._set_status(p, CRITICAL_INNER)
                    stop = False
                elif st == NONCRITICAL_INNER or st == CRITICAL_INNER:
                    self._place(g, p)
                    stop = False
            if stop:
                return
            p_pre = g_pre if watch else dang(g)
            p = g

    def find_min(self):
        d = self._require_alive()
        if self._size == 0:
            raise EmptyHeapError("find_min on empty heap")
        x = d.child
        if x.left is x and not self._is_dangerous(x):
            return x
        a = self.arena
        buckets = [None] * (self.max_rank_seen + 2)
        t = self._stat_tally
        top = self.max_rank_seen
        joins = links = 0
        try:
            v = x
            while v is not d:
                nxt = v.right
                if self._is_dangerous(v):
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
                    detach(a, loser, d)
                    push_back(a, w, loser)
                    loser.status = NONCRITICAL_INNER
                    joins += 1
                    r += 1
                    w.rank = r
                    if r > top:
                        top = r
                v = nxt
            x = d.child.left
            while True:
                y = x.left
                if y is x:
                    break
                if y.key <= x.key:
                    winner, loser = y, x
                else:
                    winner, loser = x, y
                detach(a, loser, d)
                push_front(a, winner, loser)
                loser.status = OUTER_PLACED
                links += 1
                x = winner.left
        finally:
            a.counters.comparisons += joins + links
            t[NONCRITICAL_INNER] += joins
            t[OUTER_PLACED] += links
            t[ROOT] -= joins + links
            self._rank_sum += joins
            if top > self.max_rank_seen:
                self.max_rank_seen = top
        return x


def state_digest(h):
    """Hash of the step counters, potentials, peak rank, live-node count and
    every child list (the root list as the dummy's), with its members' keys,
    ranks and statuses. The lists are walked as auditor.children walks
    them, after the potentials, since a first read marks the roots ROOT."""
    phis = h.potentials()
    flat = []
    stack = [h.dummy]
    while stack:
        w = stack.pop().child
        flat.append(None)  # the next list starts; leaves have none
        while w is not None:
            flat += (w.key, w.rank, w.status)
            if w.child is not None:
                stack.append(w)
            if w.right.left is not w:  # rightmost
                break
            w = w.right
    return hash((h.arena.counters.snapshot(), phis,
                 h.max_rank_seen, len(h._live), tuple(flat)))


@pytest.mark.parametrize("mode, n, seeds", [
    ("random", 3000, range(1, 9)),
    ("competition", 2000, [0]),
    ("ascending", 2000, [0]),
])
def test_inline_surgery_matches_arena_calls(mode, n, seeds):
    for seed in seeds:
        events = list(iter_workload(mode, n, seed))
        digests = []
        ref = TwoStepHeap()
        ref_out = replay(events, ref,
                         after=lambda i, ev: digests.append(state_digest(ref)))
        h = PadovanHeap()

        def same_state(i, ev):
            assert state_digest(h) == digests[i], (seed, i, ev)

        assert replay(events, h, after=same_state) == ref_out


# ---------------------------------------------------- frozen step counts

@pytest.mark.parametrize("mode, n, seed, steps, max_rank, phi", [
    ("random", 20000, 1, (435204, 38971, 8060, 1867), 10,
     (3, 714, 3, 236, 94, 1, 88)),
    ("random", 20000, 2, (441548, 39605, 8262, 1944), 10,
     (18, 689, 18, 231, 73, 4, 64)),
    ("competition", 5000, 0, (204952, 16244, 0, 0), 3,
     (1, 624, 1, 0, 0, 0, 0)),
    ("ascending", 5000, 0, (64992, 4999, 0, 0), 12,
     (1, 4, 1, 0, 0, 0, 0)),
])
def test_step_counts_are_frozen(mode, n, seed, steps, max_rank, phi):
    """The paper's cost measure, pinned: (link writes, comparisons, rank
    steps, placings), the peak rank and the potentials after whole traces."""
    h = PadovanHeap()
    replay(iter_workload(mode, n, seed), h, collect_output=False)
    assert h.arena.counters.snapshot() == steps
    assert h.max_rank_seen == max_rank
    assert h.potentials() == phi


class VerdictCheckedHeap(PadovanHeap):
    """A PadovanHeap whose rank rules must report, after every call, the
    danger that _is_dangerous reads from the vertex they left."""

    def __init__(self, read):
        super().__init__()
        self.verdicts = self.make_safes = 0
        if read:
            self.potentials()

    def _recompute_rank(self, p):
        verdict = super()._recompute_rank(p)
        assert verdict is self._is_dangerous(p), (p, verdict)
        self.verdicts += 1
        return verdict

    def _make_safe(self, v):
        self.make_safes += 1
        super()._make_safe(v)


@pytest.mark.parametrize("read", [False, True], ids=["lean", "read"])
@pytest.mark.parametrize("mode, n, seed", [
    ("random", 20000, 1), ("random", 20000, 2),
    ("competition", 5000, 0), ("ascending", 5000, 0)])
def test_rank_rules_report_the_danger_they_leave(mode, n, seed, read):
    events = list(iter_workload(mode, n, seed))
    h = VerdictCheckedHeap(read)
    assert replay(events, h) == replay(events, PadovanHeap())
    if mode == "random":  # the cascade and make_safe both ran the rules
        assert h.verdicts > h.make_safes > 0


def test_rank_rules_report_rank_zero_safe_under_a_forced_gap():
    """A misplaced left neighbor forces the gap, so rule 1 applies to a
    noncritical rank-0 rightmost child: the rank is 0, which is safe."""
    h = PadovanHeap()
    a = h.arena
    p = a.alloc("p")
    u, w0 = a.alloc("u"), a.alloc("w0")
    for w in (u, w0):
        push_back(a, p, w)
    u.rank, u.status = 1, OUTER_MISPLACED
    p.rank = 2
    assert h._recompute_rank(p) is False
    assert p.rank == 0 and not h._is_dangerous(p)
    w0.rank = 1  # the same gap over a rank-1 child leaves rank 1, dangerous
    assert h._recompute_rank(p) is True
    assert p.rank == 1 and h._is_dangerous(p)


class BothWaysPops:
    """Two PadovanHeaps in lockstep under replay(). A `d` pops `direct` with
    delete_min() alone and `via` with find_min(), then delete_min(); both
    must return the same key and leave equal state_digests. kinds counts
    the root lists the direct pops met."""

    def __init__(self):
        self.direct = PadovanHeap()
        self.via = PadovanHeap()
        self.twin = {}  # via's handle -> direct's
        self.op = None
        self.kinds = collections.Counter()

    def before(self, i, ev):
        self.op = ev[0]

    def insert(self, key):
        v = self.via.insert(key)
        self.twin[v] = self.direct.insert(key)
        return v

    def find_min(self):
        v = self.via.find_min()
        if self.op == "f":
            assert self.direct.find_min() is self.twin[v]
        return v

    def key_of(self, v):
        return self.via.key_of(v)

    def delete_min(self):
        d = self.direct
        if len(d.roots()) > 1:
            self.kinds["several roots"] += 1
        else:
            self.kinds["lone dangerous root" if check_root_safety(d)
                       else "lone safe root"] += 1
        key = d.delete_min()
        assert self.via.delete_min() == key
        assert state_digest(d) == state_digest(self.via)
        return key

    def decrease_key(self, v, key):
        self.via.decrease_key(v, key)
        self.direct.decrease_key(self.twin[v], key)

    def delete(self, v):
        self.via.delete(v)
        self.direct.delete(self.twin.pop(v))


def pop_both_ways(events):
    pair = BothWaysPops()
    assert replay(events, pair, before=pair.before) == replay(
        events, PadovanHeap())
    return pair.kinds


def test_delete_min_pops_what_find_min_then_delete_min_pops():
    kinds = collections.Counter()
    for seed in range(1, 5):
        kinds += pop_both_ways(list(iter_workload("random", 3000, seed)))
    # a rank-2 root loses its rank-0 child: rule 1 leaves it dangerous
    kinds += pop_both_ways([("i", 1), ("i", 2), ("i", 3), ("i", 4), ("f",),
                            ("x", 2), ("d",)])
    assert set(kinds) == {"several roots", "lone safe root",
                          "lone dangerous root"}, kinds


@settings(max_examples=300, deadline=None)
@given(traces())
def test_delete_min_pops_alike_on_fuzzed_traces(events):
    pop_both_ways(events)
