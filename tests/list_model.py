"""The sibling lists' moves in their plain two-step form, shared by the tests.

A move unlinks a vertex into a self-linked singleton (detach), then inserts
it at either end of a list (push_front, push_back). Each step counts its
writes into arena.counters: unlinking costs 1 for a sole member, else 2,
plus 2 for the singleton reset; inserting costs 2 into an empty list, else
4. Arena's write-count table prices every move as these steps, so a form
built from them counts what the table says by construction. The inline
moves of PadovanHeap are checked against such a form.

Positions come from the three end tests of the representation:

    v is rightmost       <=>  v.right.left is not v
    v is leftmost        <=>  v.left.right is not v
    v among the last two <=>  v.right.right.left.left is not v
"""

from padovanheap.node_store import Node

LAST = "last"
SECOND_LAST = "second last"


def is_rightmost(v):
    return v.right.left is not v


def is_leftmost(v):
    return v.left.right is not v


def among_last_two(v):
    return v.right.right.left.left is not v


def probe(v):
    """(None, None) when v is not among the last two members of its list,
    else (LAST, owner) or (SECOND_LAST, owner): the owner is reachable in
    O(1) from the last two positions only."""
    if not among_last_two(v):
        return None, None
    if is_rightmost(v):
        return LAST, v.right
    return SECOND_LAST, v.right.right


def is_live(heap, v):
    """Whether v is a live vertex of heap; a non-Node handle is not."""
    return isinstance(v, Node) and v in heap._live


def detach(a, v, owner=None):
    """Remove v from its list, leaving it a self-linked singleton. The owner
    is needed only when v is rightmost."""
    c = a.counters
    if is_rightmost(v):  # v.right is the owner
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
    elif is_leftmost(v):  # v.left is the rightmost member
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
