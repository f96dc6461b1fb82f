import pytest
from hypothesis import given, settings, strategies as st

from padovanheap.node_store import (
    Arena, Node, LAST, NOT_LAST_TWO, SECOND_LAST,
    NONCRITICAL_INNER, CRITICAL_INNER, OUTER_PLACED, OUTER_MISPLACED,
    STATUS_NAMES)


def test_node_layout_is_exactly_six_fields():
    assert Node.__slots__ == ("key", "rank", "status", "left", "right", "child")
    links = [f for f in Node.__slots__ if f in ("left", "right", "child", "parent")]
    assert links == ["left", "right", "child"]
    v = Node(5)
    with pytest.raises(AttributeError):
        v.parent = None  # no fourth link, no dict


def test_status_codes():
    assert (NONCRITICAL_INNER, CRITICAL_INNER, OUTER_PLACED, OUTER_MISPLACED) == (0, 1, 2, 3)
    assert STATUS_NAMES == ("N", "C", "P", "M")


# A reference model of the list moves in their plain two-step form: unlink
# a vertex into a self-linked singleton (detach), then insert it at either
# end of a list (push_front, push_back). Each counts its writes into
# arena.counters; the Arena's one-call moves are checked against it.

def detach(a, v, owner=None):
    """Remove v from its list, leaving it a self-linked singleton. The owner
    is needed only when v is rightmost."""
    c = a.counters
    if v.right.left is not v:  # rightmost; v.right is the owner
        if owner is None:
            raise ValueError("detach of a rightmost node requires the owner")
        assert v.right is owner
        if v.left is v:
            owner.child = None
            c.link_writes += 1
        else:
            new_last = v.left
            new_last.right = owner
            owner.child.left = new_last
            c.link_writes += 2
    elif v.left.right is not v:  # leftmost; v.left is the rightmost member
        last = v.left
        nxt = v.right
        nxt.left = last
        last.right.child = nxt
        c.link_writes += 2
    else:
        prev = v.left
        nxt = v.right
        prev.right = nxt
        nxt.left = prev
        c.link_writes += 2
    v.left = v
    v.right = v
    c.link_writes += 2


def push_front(a, owner, v):
    """Make singleton v the leftmost member of owner's list."""
    first = owner.child
    if first is None:
        v.right = owner
        owner.child = v
        a.counters.link_writes += 2
    else:
        v.left = first.left
        v.right = first
        first.left = v
        owner.child = v
        a.counters.link_writes += 4


def push_back(a, owner, v):
    """Make singleton v the rightmost member of owner's list."""
    first = owner.child
    if first is None:
        v.right = owner
        owner.child = v
        a.counters.link_writes += 2
    else:
        last = first.left
        last.right = v
        v.left = last
        v.right = owner
        first.left = v
        a.counters.link_writes += 4


def members(owner, bound=64):
    """owner's list, leftmost first, following right links to the owner."""
    out = []
    v = owner.child
    while v is not None and v is not owner:
        out.append(v)
        assert len(out) <= bound, "right chain does not close on the owner"
        v = v.right
    return out


def keys(owner):
    return [v.key for v in members(owner)]


def test_push_front_and_back():
    a = Arena()
    p = a.alloc("p")
    x = a.alloc("x")
    y = a.alloc("y")
    z = a.alloc("z")
    push_front(a, p, x)
    push_front(a, p, y)       # y in front of x
    push_back(a, p, z)
    assert keys(p) == ["y", "x", "z"]
    # left links: one cycle, leftmost.left is rightmost
    assert y.left is z and x.left is y and z.left is x
    assert z.right is p      # rightmost's right is the owner


def test_end_tests_and_probe():
    a = Arena()
    p = a.alloc("p")
    ns = [a.alloc_back(p, i) for i in range(4)]
    n0, n1, n2, n3 = ns
    # rightmost / leftmost link tests from the representation
    assert n3.right.left is not n3          # rightmost
    assert n0.left.right is not n0          # leftmost
    assert n1.right.left is n1 and n1.left.right is n1  # interior
    assert a.position_probe(n0) == (NOT_LAST_TWO, None)
    assert a.position_probe(n1) == (NOT_LAST_TWO, None)
    assert a.position_probe(n2) == (SECOND_LAST, p)
    assert a.position_probe(n3) == (LAST, p)


def test_probe_singleton_and_pair():
    a = Arena()
    d = a.alloc(None)  # self-linked owner, like the dummy head
    u = a.alloc_back(d, "u")
    assert a.position_probe(u) == (LAST, d)
    v = a.alloc_back(d, "v")
    assert a.position_probe(u) == (SECOND_LAST, d)
    assert a.position_probe(v) == (LAST, d)


def test_detach_interior_leftmost_rightmost_sole():
    a = Arena()
    p = a.alloc("p")
    ns = [a.alloc_back(p, i) for i in range(4)]
    n0, n1, n2, n3 = ns

    detach(a, n1)  # interior, no owner needed
    assert keys(p) == [0, 2, 3]
    assert n1.left is n1 and n1.right is n1  # detached singleton

    detach(a, n0)  # leftmost
    assert keys(p) == [2, 3]
    assert p.child is n2

    with pytest.raises(ValueError):
        detach(a, n3)  # rightmost without the owner
    detach(a, n3, p)
    assert keys(p) == [2]
    assert n2.right is p and n2.left is n2

    detach(a, n2, p)  # sole member
    assert p.child is None
    assert keys(p) == []


def test_write_counts_exact():
    a = Arena()
    c = a.counters
    base = c.link_writes
    p = a.alloc("p")
    assert c.link_writes - base == 2
    x = a.alloc("x"); y = a.alloc("y"); z = a.alloc("z")

    base = c.link_writes
    push_back(a, p, x)                     # empty list
    assert c.link_writes - base == 2
    base = c.link_writes
    push_back(a, p, y)                     # nonempty
    assert c.link_writes - base == 4
    base = c.link_writes
    push_front(a, p, z)                    # nonempty
    assert c.link_writes - base == 4

    base = c.link_writes                   # list is [z, x, y]
    detach(a, x)                           # interior: 2 + 2 scrub
    assert c.link_writes - base == 4
    base = c.link_writes
    detach(a, z)                           # leftmost: 2 + 2 scrub
    assert c.link_writes - base == 4
    base = c.link_writes
    detach(a, y, p)                        # rightmost sole: 1 + 2 scrub
    assert c.link_writes - base == 3

    # rightmost, non-sole: 2 + 2 scrub
    push_back(a, p, x); push_back(a, p, y)
    base = c.link_writes
    detach(a, y, p)
    assert c.link_writes - base == 4


def test_concat_cases_and_counts():
    a = Arena()
    c = a.counters
    t = a.alloc("t"); d = a.alloc("d")
    base = c.link_writes
    a.concat(t, d)                 # donor empty: free
    assert c.link_writes - base == 0

    for i in range(2):
        a.alloc_back(d, i)
    base = c.link_writes
    a.concat(t, d)                 # target empty: 3 writes
    assert c.link_writes - base == 3
    assert keys(t) == [0, 1] and d.child is None

    for i in (2, 3):
        a.alloc_back(d, i)
    base = c.link_writes
    a.concat(t, d)                 # both nonempty: 5 writes
    assert c.link_writes - base == 5
    assert keys(t) == [0, 1, 2, 3]
    assert d.child is None
    last = members(t)[-1]
    assert last.right is t and t.child.left is last


def test_liveness_and_free():
    a = Arena()
    v = a.alloc(1)
    assert a.is_live(v) and len(a._live) == 1
    a.free(v)
    assert not a.is_live(v) and len(a._live) == 0
    assert v.left is None and v.right is None and v.child is None
    with pytest.raises(AssertionError):
        a.free(v)
    assert not a.is_live("not a node")


def _subtree(model, v):
    """v and every vertex below it in the model forest."""
    out = [v]
    for w in out:
        out.extend(model[w])
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["ab", "jb", "jf", "mf", "dp"]),
                          st.integers(0, 20), st.integers(0, 20)),
                max_size=40))
def test_surgery_mirrors_a_plain_list(ops):
    """Random one-call moves on a small forest against plain Python lists.

    Every vertex owns a list, so moves go between roots, children and
    grandchildren. Each move's writes are priced by the two-step rule:
    unlinking costs 1 for a sole member and 2 otherwise, plus 2 for the
    singleton reset; inserting costs 2 into an empty list and 4 otherwise;
    children appended by detach_promote cost 3 if they become the whole list
    and 5 if not.
    """
    def unlink(size):
        return (1 if size == 1 else 2) + 2

    def insert(size):
        return 2 if size == 0 else 4

    a = Arena()
    p = a.alloc("p")
    model = {p: []}   # owner -> its members, leftmost first
    where = {}        # member -> its owner
    n = 0
    for op, i, j in ops:
        base = a.counters.link_writes
        if op == "ab":
            owners = list(model)
            o = owners[i % len(owners)]
            want = 2 + insert(len(model[o]))
            v = a.alloc_back(o, n)
            n += 1
            model[o].append(v)
            model[v] = []
            where[v] = o
        else:
            if not where:
                continue
            vs = list(where)
            v = vs[i % len(vs)]
            o = where[v]
            lst = model[o]
            k = lst.index(v)
            if op == "mf":
                want = unlink(len(lst)) + insert(len(lst) - 1)
                a.move_front(o, v)
                lst.insert(0, lst.pop(k))
            elif op == "dp":
                kids = model.pop(v)
                want = unlink(len(lst)) + (
                    0 if not kids else 3 if len(lst) == 1 else 5)
                a.detach_promote(o, v)
                del lst[k]
                lst.extend(kids)
                for w in kids:
                    where[w] = o
                del where[v]
                a.free(v)
            else:
                below = _subtree(model, v)
                winners = [w for w in model if w is not o and w not in below]
                if not winners or op == "jf" and len(lst) == 1:
                    continue
                w = winners[j % len(winners)]
                want = unlink(len(lst)) + insert(len(model[w]))
                if op == "jb":
                    # the owner is needed only for a rightmost loser
                    rightmost = k == len(lst) - 1
                    a.join_back(o if rightmost or j % 2 else None, w, v)
                    model[w].append(v)
                else:
                    a.join_front(o, w, v)
                    model[w].insert(0, v)
                del lst[k]
                where[v] = w
        assert a.counters.link_writes - base == want, op
        for o, lst in model.items():
            ms = members(o)
            assert ms == lst
            if ms:
                assert o.child is ms[0]
                assert ms[-1].right is o
                assert ms[0].left is ms[-1]
                for x, y in zip(ms, ms[1:]):
                    assert x.right is y and y.left is x
            else:
                assert o.child is None


def _links(nodes):
    key = lambda w: None if w is None else w.key
    return [(key(v.left), key(v.right), key(v.child)) for v in nodes]


@pytest.mark.parametrize("fused, push", [("join_back", "push_back"),
                                         ("join_front", "push_front")])
def test_join_equals_detach_then_push(fused, push):
    """Every loser position, every winner and winner list length: the fused
    join leaves the same links and counts the same writes as the two-step
    model. The winner is another member, as in find_min, or a vertex outside
    the list, as when a cut moves a child to the root list; join_front's
    winner may also be the owner itself, as in move_front. join_back also
    takes a sole member and, where detach does, owner=None."""
    back = fused == "join_back"
    push = {"push_back": push_back, "push_front": push_front}[push]
    for n_roots in range(1 if back else 2, 6):
        for i in range(n_roots):
            owners = ("d", None) if back and i < n_roots - 1 else ("d",)
            winners = [k for k in range(n_roots) if k != i] + ["outside"]
            if not back:
                winners.append("owner")
            for j in winners:
                for n_kids in range(1 if j == "owner" else 3):
                    for owner_arg in owners:
                        results = []
                        for form in ("fused", "two calls"):
                            a = Arena()
                            d = a.alloc("d")
                            out = a.alloc("o")
                            roots = [a.alloc_back(d, k) for k in range(n_roots)]
                            loser = roots[i]
                            winner = (d if j == "owner" else
                                      out if j == "outside" else roots[j])
                            kids = [a.alloc_back(winner, "k%d" % k)
                                    for k in range(n_kids)]
                            owner = d if owner_arg == "d" else None
                            base = a.counters.link_writes
                            if form == "fused":
                                getattr(a, fused)(owner, winner, loser)
                            else:
                                detach(a, loser, owner)
                                push(a, winner, loser)
                            results.append((a.counters.link_writes - base,
                                            _links([d, out] + roots + kids)))
                        assert results[0] == results[1], (
                            n_roots, i, j, n_kids, owner_arg)
                        if n_roots == 1:  # a sole member: 3 + 2 or 3 + 4
                            assert results[0][0] == (7 if n_kids else 5)
                        if j == "owner":  # a move within the list
                            assert results[0][0] == 8


def test_move_front_equals_detach_then_push_front():
    """Every position in lists of 1 to 5 members, each member with a child:
    move_front leaves the same links and counts the same writes as detach +
    push_front, 5 for a sole member, which stays in place, and 8 otherwise."""
    for n in range(1, 6):
        for i in range(n):
            results = []
            for form in ("fused", "two calls"):
                a = Arena()
                d = a.alloc("d")
                vs = [a.alloc_back(d, k) for k in range(n)]
                kids = [a.alloc_back(v, "k%d" % v.key) for v in vs]
                v = vs[i]
                base = a.counters.link_writes
                if form == "fused":
                    a.move_front(d, v)
                else:
                    detach(a, v, d)
                    push_front(a, d, v)
                assert keys(d) == [i] + [k for k in range(n) if k != i]
                results.append((a.counters.link_writes - base,
                                _links([d] + vs + kids)))
            assert results[0] == results[1], (n, i)
            assert results[0][0] == (5 if n == 1 else 8)


def test_alloc_back_equals_alloc_then_push_back():
    for n in range(4):
        results = []
        for form in ("fused", "two calls"):
            a = Arena()
            p = a.alloc("p")
            members = [a.alloc_back(p, k) for k in range(n)]
            base = a.counters.link_writes
            if form == "fused":
                v = a.alloc_back(p, "v")
            else:
                v = a.alloc("v")
                push_back(a, p, v)
            assert a.is_live(v) and v.key == "v" and v.rank == 0
            assert v.status == NONCRITICAL_INNER and v.child is None
            results.append((a.counters.link_writes - base,
                            _links([p] + members + [v]), len(a._live)))
        assert results[0] == results[1], n
        assert results[0][0] == (4 if n == 0 else 6)  # 2 + 2 or 2 + 4


def test_detach_promote_equals_detach_then_concat():
    """Every position, list length and child count: the fused root removal
    leaves the same lists and counts the same writes as detach + concat.
    The removed vertex's own links are not compared: it is freed next."""
    for n_roots in range(1, 5):
        for i in range(n_roots):
            for n_kids in range(4):
                results = []
                for form in ("fused", "two calls"):
                    a = Arena()
                    d = a.alloc("d")
                    roots = [a.alloc_back(d, k) for k in range(n_roots)]
                    v = roots[i]
                    kids = [a.alloc_back(v, "k%d" % k) for k in range(n_kids)]
                    base = a.counters.link_writes
                    if form == "fused":
                        a.detach_promote(d, v)
                    else:
                        detach(a, v, d)
                        a.concat(d, v)
                    rest = roots[:i] + roots[i + 1:]
                    assert members(d) == rest + kids
                    results.append((a.counters.link_writes - base,
                                    _links([d] + rest + kids)))
                assert results[0] == results[1], (n_roots, i, n_kids)
                if n_roots == 1:  # a lone root: 3 alone, 6 with children
                    assert results[0][0] == (6 if n_kids else 3)
