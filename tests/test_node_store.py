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


def keys(a, owner):
    return [v.key for v in a.list_members(owner)]


def test_push_front_and_back():
    a = Arena()
    p = a.alloc("p")
    x = a.alloc("x")
    y = a.alloc("y")
    z = a.alloc("z")
    a.push_front(p, x)
    a.push_front(p, y)       # y in front of x
    a.push_back(p, z)
    assert keys(a, p) == ["y", "x", "z"]
    # left links: one cycle, leftmost.left is rightmost
    assert y.left is z and x.left is y and z.left is x
    assert z.right is p      # rightmost's right is the owner


def test_end_tests_and_probe():
    a = Arena()
    p = a.alloc("p")
    ns = [a.alloc(i) for i in range(4)]
    for v in ns:
        a.push_back(p, v)
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
    u = a.alloc("u")
    a.push_back(d, u)
    assert a.position_probe(u) == (LAST, d)
    v = a.alloc("v")
    a.push_back(d, v)
    assert a.position_probe(u) == (SECOND_LAST, d)
    assert a.position_probe(v) == (LAST, d)


def test_detach_interior_leftmost_rightmost_sole():
    a = Arena()
    p = a.alloc("p")
    ns = [a.alloc(i) for i in range(4)]
    for v in ns:
        a.push_back(p, v)
    n0, n1, n2, n3 = ns

    a.detach(n1)  # interior, no owner needed
    assert keys(a, p) == [0, 2, 3]
    assert n1.left is n1 and n1.right is n1  # detached singleton

    a.detach(n0)  # leftmost
    assert keys(a, p) == [2, 3]
    assert p.child is n2

    with pytest.raises(ValueError):
        a.detach(n3)  # rightmost without the owner
    a.detach(n3, p)
    assert keys(a, p) == [2]
    assert n2.right is p and n2.left is n2

    a.detach(n2, p)  # sole member
    assert p.child is None
    assert keys(a, p) == []


def test_write_counts_exact():
    a = Arena()
    c = a.counters
    base = c.link_writes
    p = a.alloc("p")
    assert c.link_writes - base == 2
    x = a.alloc("x"); y = a.alloc("y"); z = a.alloc("z")

    base = c.link_writes
    a.push_back(p, x)                      # empty list
    assert c.link_writes - base == 2
    base = c.link_writes
    a.push_back(p, y)                      # nonempty
    assert c.link_writes - base == 4
    base = c.link_writes
    a.push_front(p, z)                     # nonempty
    assert c.link_writes - base == 4

    base = c.link_writes                   # list is [z, x, y]
    a.detach(x)                            # interior: 2 + 2 scrub
    assert c.link_writes - base == 4
    base = c.link_writes
    a.detach(z)                            # leftmost: 2 + 2 scrub
    assert c.link_writes - base == 4
    base = c.link_writes
    a.detach(y, p)                         # rightmost sole: 1 + 2 scrub
    assert c.link_writes - base == 3

    # rightmost, non-sole: 2 + 2 scrub
    a.push_back(p, x); a.push_back(p, y)
    base = c.link_writes
    a.detach(y, p)
    assert c.link_writes - base == 4


def test_concat_cases_and_counts():
    a = Arena()
    c = a.counters
    t = a.alloc("t"); d = a.alloc("d")
    base = c.link_writes
    a.concat(t, d)                 # donor empty: free
    assert c.link_writes - base == 0

    for i in range(2):
        a.push_back(d, a.alloc(i))
    base = c.link_writes
    a.concat(t, d)                 # target empty: 3 writes
    assert c.link_writes - base == 3
    assert keys(a, t) == [0, 1] and d.child is None

    for i in (2, 3):
        a.push_back(d, a.alloc(i))
    base = c.link_writes
    a.concat(t, d)                 # both nonempty: 5 writes
    assert c.link_writes - base == 5
    assert keys(a, t) == [0, 1, 2, 3]
    assert d.child is None
    last = a.list_members(t)[-1]
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["pf", "pb", "dl", "dr", "di"]),
                          st.integers(0, 10)),
                max_size=40))
def test_surgery_mirrors_a_plain_list(ops):
    """Random front/back pushes and position-picked detaches against a model."""
    a = Arena()
    p = a.alloc("p")
    model = []
    n = 0
    for op, j in ops:
        if op == "pf":
            v = a.alloc(n); n += 1
            a.push_front(p, v)
            model.insert(0, v.key)
        elif op == "pb":
            v = a.alloc(n); n += 1
            a.push_back(p, v)
            model.append(v.key)
        elif model:
            ms = a.list_members(p)
            if op == "dl":
                i = 0
            elif op == "dr":
                i = len(ms) - 1
            else:
                i = j % len(ms)
            v = ms[i]
            if i == len(ms) - 1:
                a.detach(v, p)
            else:
                a.detach(v)
            del model[i]
        assert [w.key for w in a.list_members(p)] == model
        ms = a.list_members(p)
        if ms:
            assert p.child is ms[0]
            assert ms[-1].right is p
            assert ms[0].left is ms[-1]
            for x, y in zip(ms, ms[1:]):
                assert x.right is y and y.left is x
        else:
            assert p.child is None


def _links(nodes):
    key = lambda w: None if w is None else w.key
    return [(key(v.left), key(v.right), key(v.child)) for v in nodes]


@pytest.mark.parametrize("fused, push", [("join_back", "push_back"),
                                         ("join_front", "push_front")])
def test_join_equals_detach_then_push(fused, push):
    """Every loser position, every winner and winner list length: the fused
    join leaves the same links and counts the same writes as the two calls.
    The winner is another member, as in find_min, or a vertex outside the
    list, as when a cut moves a child to the root list. join_back also takes
    a sole member and, where detach does, owner=None."""
    back = fused == "join_back"
    for n_roots in range(1 if back else 2, 6):
        for i in range(n_roots):
            owners = ("d", None) if back and i < n_roots - 1 else ("d",)
            for j in [k for k in range(n_roots) if k != i] + ["outside"]:
                for n_kids in range(3):
                    for owner_arg in owners:
                        results = []
                        for form in ("fused", "two calls"):
                            a = Arena()
                            d = a.alloc("d")
                            out = a.alloc("o")
                            roots = [a.alloc(k) for k in range(n_roots)]
                            for v in roots:
                                a.push_back(d, v)
                            loser = roots[i]
                            winner = out if j == "outside" else roots[j]
                            kids = [a.alloc("k%d" % k) for k in range(n_kids)]
                            for v in kids:
                                a.push_back(winner, v)
                            owner = d if owner_arg == "d" else None
                            base = a.counters.link_writes
                            if form == "fused":
                                getattr(a, fused)(owner, winner, loser)
                            else:
                                a.detach(loser, owner)
                                getattr(a, push)(winner, loser)
                            results.append((a.counters.link_writes - base,
                                            _links([d, out] + roots + kids)))
                        assert results[0] == results[1], (
                            n_roots, i, j, n_kids, owner_arg)
                        if n_roots == 1:  # a sole member: 3 + 2 or 3 + 4
                            assert results[0][0] == (7 if n_kids else 5)


def test_alloc_back_equals_alloc_then_push_back():
    for n in range(4):
        results = []
        for form in ("fused", "two calls"):
            a = Arena()
            p = a.alloc("p")
            members = [a.alloc(k) for k in range(n)]
            for v in members:
                a.push_back(p, v)
            base = a.counters.link_writes
            if form == "fused":
                v = a.alloc_back(p, "v")
            else:
                v = a.alloc("v")
                a.push_back(p, v)
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
                    roots = [a.alloc(k) for k in range(n_roots)]
                    for v in roots:
                        a.push_back(d, v)
                    v = roots[i]
                    kids = [a.alloc("k%d" % k) for k in range(n_kids)]
                    for w in kids:
                        a.push_back(v, w)
                    base = a.counters.link_writes
                    if form == "fused":
                        a.detach_promote(d, v)
                    else:
                        a.detach(v, d)
                        a.concat(d, v)
                    rest = roots[:i] + roots[i + 1:]
                    assert a.list_members(d) == rest + kids
                    results.append((a.counters.link_writes - base,
                                    _links([d] + rest + kids)))
                assert results[0] == results[1], (n_roots, i, n_kids)
                if n_roots == 1:  # a lone root: 3 alone, 6 with children
                    assert results[0][0] == (6 if n_kids else 3)
