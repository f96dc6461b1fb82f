import pytest
from hypothesis import given, settings, strategies as st

from padovanheap.node_store import (
    Arena, Node, NONCRITICAL_INNER, CRITICAL_INNER, OUTER_PLACED,
    OUTER_MISPLACED, ROOT, STATUS_NAMES)
from padovanheap.padovan import PadovanHeap

from list_model import (
    LAST, SECOND_LAST, among_last_two, detach, is_leftmost,
    is_rightmost, keys, members, probe, push_back, push_front)


def test_node_layout_is_exactly_six_fields():
    assert Node.__slots__ == ("key", "rank", "status", "left", "right", "child")
    links = [f for f in Node.__slots__ if f in ("left", "right", "child", "parent")]
    assert links == ["left", "right", "child"]
    v = Node(5)
    with pytest.raises(AttributeError):
        v.parent = None  # no fourth link, no dict


def test_status_codes():
    assert (NONCRITICAL_INNER, CRITICAL_INNER, OUTER_PLACED, OUTER_MISPLACED,
            ROOT) == (0, 1, 2, 3, 4)
    assert STATUS_NAMES == ("N", "C", "P", "M", "R")


@pytest.mark.parametrize("status, label", [(5, "?5"), (-1, "?-1")])
def test_repr_shows_an_out_of_range_status_as_is(status, label):
    v = Node(5)
    assert repr(v) == "Node(key=5, rank=0, N)"
    v.status = status
    assert repr(v) == "Node(key=5, rank=0, %s)" % label


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


def make_list(a, owner, ks):
    """Allocate a vertex per key and push each to the back of owner's list."""
    vs = [a.alloc(k) for k in ks]
    for v in vs:
        push_back(a, owner, v)
    return vs


def test_end_tests_and_probe():
    a = Arena()
    p = a.alloc("p")
    n0, n1, n2, n3 = make_list(a, p, range(4))
    # rightmost / leftmost / last-two link tests from the representation
    assert n3.right.left is not n3          # rightmost
    assert n0.left.right is not n0          # leftmost
    assert n1.right.left is n1 and n1.left.right is n1  # interior
    assert n2.right.right.left.left is not n2           # among the last two
    assert n1.right.right.left.left is n1 and n0.right.right.left.left is n0
    assert [(is_rightmost(v), is_leftmost(v), among_last_two(v))
            for v in (n0, n1, n2, n3)] == [
        (False, True, False), (False, False, False),
        (False, False, True), (True, False, True)]
    assert probe(n0) == probe(n1) == (None, None)
    assert probe(n2) == (SECOND_LAST, p)
    assert probe(n3) == (LAST, p)


def test_probe_singleton_and_pair():
    a = Arena()
    d = a.alloc(None)  # self-linked owner, like the dummy head
    (u,) = make_list(a, d, ["u"])
    assert is_rightmost(u) and is_leftmost(u)
    assert probe(u) == (LAST, d)
    (v,) = make_list(a, d, ["v"])
    assert probe(u) == (SECOND_LAST, d)
    assert probe(v) == (LAST, d)


def test_detach_interior_leftmost_rightmost_sole():
    a = Arena()
    p = a.alloc("p")
    n0, n1, n2, n3 = make_list(a, p, range(4))

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

    make_list(a, d, range(2))
    base = c.link_writes
    a.concat(t, d)                 # target empty: 3 writes
    assert c.link_writes - base == 3
    assert keys(t) == [0, 1] and d.child is None

    make_list(a, d, (2, 3))
    base = c.link_writes
    a.concat(t, d)                 # both nonempty: 5 writes
    assert c.link_writes - base == 5
    assert keys(t) == [0, 1, 2, 3]
    assert d.child is None
    last = members(t)[-1]
    assert last.right is t and t.child.left is last


def test_free_scrubs_links():
    a = Arena()
    v = a.alloc(1)
    assert v.left is v and v.right is v and a.counters.link_writes == 2
    a.free(v)
    assert v.left is None and v.right is None and v.child is None
    assert a.counters.link_writes == 2


def _subtree(model, v):
    """v and every vertex below it in the model forest."""
    out = [v]
    for w in out:
        out.extend(model[w])
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["ab", "ab", "mf", "cc", "fr"]),
                          st.integers(0, 20), st.integers(0, 20)),
                max_size=40))
def test_surgery_mirrors_a_plain_list(ops):
    """Random moves on a small forest against plain Python lists: the
    model's alloc + push_back, PadovanHeap._place (the move_front row of
    Arena's table), Arena's concat, and a removal made as the model's
    detach, then concat of the children and free.

    Every vertex owns a list, so moves go between roots, children and
    grandchildren. Each move's writes are priced by the model's two-step
    rule: unlinking costs 1 for a sole member and 2 otherwise, plus 2 for
    the singleton reset; inserting costs 2 into an empty list and 4
    otherwise; a concat costs 3 into an empty list and 5 if not.
    """
    def unlink(size):
        return (1 if size == 1 else 2) + 2

    def insert(size):
        return 2 if size == 0 else 4

    def append(size):
        return 3 if size == 0 else 5

    a = Arena()
    h = PadovanHeap(a)  # places on a's lists; its own forest stays empty
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
            v = a.alloc(n)
            push_back(a, o, v)
            n += 1
            model[o].append(v)
            model[v] = []
            where[v] = o
        elif op == "cc":
            owners = list(model)
            u = owners[i % len(owners)]
            below = _subtree(model, u)
            targets = [t for t in owners if t not in below]
            if not targets:
                continue
            t = targets[j % len(targets)]
            kids = model[u]
            want = append(len(model[t])) if kids else 0
            a.concat(t, u)
            model[t].extend(kids)
            for w in kids:
                where[w] = t
            model[u] = []
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
                placings = a.counters.placings
                h._place(o, v)
                assert v.status == OUTER_PLACED
                assert a.counters.placings == placings + 1
                lst.insert(0, lst.pop(k))
            else:
                kids = model.pop(v)
                want = unlink(len(lst)) + (
                    append(len(lst) - 1) if kids else 0)
                detach(a, v, o)
                a.concat(o, v)
                a.free(v)
                del lst[k]
                lst.extend(kids)
                for w in kids:
                    where[w] = o
                del where[v]
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


def test_move_front_equals_detach_then_push_front():
    """Every position in lists of 1 to 5 members, each member with a child:
    PadovanHeap._place, the move_front row of Arena's table, leaves the same
    links and counts the same writes as detach + push_front, 5 for a sole
    member, which stays in place, and 8 otherwise. It marks the moved member
    placed, counts one placing and no other step, and leaves every other
    status as it was."""
    for n in range(1, 6):
        for i in range(n):
            results = []
            for form in ("fused", "two calls"):
                a = Arena()
                h = PadovanHeap(a)
                d = a.alloc("d")
                vs = make_list(a, d, range(n))
                kids = [make_list(a, v, ["k%d" % v.key])[0] for v in vs]
                for j, w in enumerate(vs):
                    w.status = j % 2  # inner: noncritical or critical
                v = vs[i]
                base = a.counters.snapshot()
                if form == "fused":
                    h._place(d, v)
                    assert [w.status for w in vs] == [
                        OUTER_PLACED if j == i else j % 2 for j in range(n)]
                else:
                    detach(a, v, d)
                    push_front(a, d, v)
                assert keys(d) == [i] + [k for k in range(n) if k != i]
                writes, *others = (
                    y - x for x, y in zip(base, a.counters.snapshot()))
                assert others == ([0, 0, 1] if form == "fused" else [0, 0, 0])
                results.append((writes, _links([d] + vs + kids)))
            assert results[0] == results[1], (n, i)
            assert writes == (5 if n == 1 else 8)
