"""Arena of heap vertices with a three-link sibling-list representation.

Every vertex carries exactly three links: `left`, `right`, `child`. A
children list is chained leftmost-to-rightmost through `right`, and the
rightmost member's `right` points at the list OWNER (the parent vertex, or
the dummy head for the root list) instead of a null terminator. The `left`
links form one cycle over exactly the members, so the leftmost member's
`left` is the rightmost member. This gives O(1) access to both ends, O(1)
insertion at either end, and O(1) owner recovery from the last two
positions, all without a parent pointer:

    v is rightmost       <=>  v.right.left is not v
    v is leftmost        <=>  v.left.right is not v
    v among the last two <=>  v.right.right.left.left is not v

The end tests are sound because an owner's own `left` link lives in a
disjoint list (or is the owner itself, for the self-linked dummy head).

The arena keeps the set of live nodes themselves, not their ids (so stale
handles are detectable; a membership test must first check that the handle
is a Node, as is_live does), and owns the shared step counters that every
heap built on it reports into.
"""

NONCRITICAL_INNER = 0
CRITICAL_INNER = 1
OUTER_PLACED = 2
OUTER_MISPLACED = 3

STATUS_NAMES = ("N", "C", "P", "M")

# position_probe result codes
NOT_LAST_TWO = 0
LAST = 1
SECOND_LAST = 2


class Node:
    """A heap vertex: key, rank, status tag, and exactly three links."""

    __slots__ = ("key", "rank", "status", "left", "right", "child")

    def __init__(self, key):
        self.key = key
        self.rank = 0
        self.status = NONCRITICAL_INNER
        self.left = self
        self.right = self
        self.child = None

    def __repr__(self):
        return "Node(key=%r, rank=%d, %s)" % (
            self.key, self.rank, STATUS_NAMES[self.status])


class StepCounters:
    """Primitive-step counters shared by all heaps of one arena.

    link_writes  -- writes to left/right/child fields
    comparisons  -- key comparisons between two vertices
    rank_steps   -- rank-rule applications (one per rule decision)
    placings     -- outer children moved to the front of a children list
    """

    __slots__ = ("link_writes", "comparisons", "rank_steps", "placings")

    def __init__(self):
        self.link_writes = 0
        self.comparisons = 0
        self.rank_steps = 0
        self.placings = 0

    @property
    def total(self):
        return self.link_writes + self.comparisons + self.rank_steps + self.placings

    @property
    def analysis_steps(self):
        """The audited step count: everything except raw link writes.

        Each comparison / rank step / placing performs O(1) link writes, so
        the two totals differ by at most a constant factor; the amortized
        audit prices joins, links, rule applications and placings at one
        step each.
        """
        return self.comparisons + self.rank_steps + self.placings

    def snapshot(self):
        return (self.link_writes, self.comparisons, self.rank_steps, self.placings)

    def __repr__(self):
        return ("StepCounters(link_writes=%d, comparisons=%d, "
                "rank_steps=%d, placings=%d)" % self.snapshot())


class Arena:
    """Allocator + sibling-list moves with counted link writes.

    Each one-call move below counts the writes of the two-step form of its
    move, skipped ones too: unlinking costs 1 for a sole member, else 2, plus
    2 to reset the vertex to a singleton; inserting costs 2 into an empty
    list, else 4.

    PadovanHeap writes its hot moves out inline and counts them by this
    table: find_min's joins and links (join_back and join_front on the root
    list), insert's alloc_back, _cut's join_back onto the root list, and
    _remove_root's detach_promote and free. It calls move_front to place a
    child, and alloc, concat and free to make and meld heaps. The one-call
    forms stay as the counted reference that the inline copies are tested
    against.

        alloc           2
        alloc_back      4 into an empty list, else 6
        join_back       5 for a sole loser, else 6; +2 if winner has children
        join_front      6, or 8 if winner has children (loser is never sole)
        move_front      5 for a sole member, else 8
        detach_promote  3 for a sole v, else 4; +3 if v's children become
                        the whole list, +5 if they join other members
        concat          0 for an empty donor, 3 into an empty target, else 5
    """

    __slots__ = ("counters", "_live")

    def __init__(self):
        self.counters = StepCounters()
        self._live = set()

    # -- allocation ----------------------------------------------------

    def alloc(self, key):
        v = Node(key)
        self._live.add(v)
        self.counters.link_writes += 2  # left=self, right=self
        return v

    def free(self, v):
        assert v in self._live, "double free / foreign node"
        self._live.discard(v)
        # scrub links so a stale handle dereference fails fast; not counted
        # as work (deallocation bookkeeping, not algorithmic link surgery)
        v.left = None
        v.right = None
        v.child = None

    def is_live(self, v):
        return isinstance(v, Node) and v in self._live

    # -- sibling-list moves: each keeps the module docstring's invariants --

    def alloc_back(self, owner, key):
        """Allocate a vertex for key as the new rightmost member of owner's
        list; returns it. 4 writes into an empty list, 6 otherwise."""
        v = Node(key)
        self._live.add(v)
        first = owner.child
        if first is None:
            v.right = owner
            owner.child = v
            self.counters.link_writes += 4
        else:
            last = first.left
            last.right = v
            v.left = last
            v.right = owner
            first.left = v
            self.counters.link_writes += 6
        return v

    def join_back(self, owner, winner, loser):
        """Move loser from owner's list to the right end of winner's children,
        another list: 5 or 6 writes, +2 if winner has children. owner may be
        None unless loser is rightmost."""
        if loser.right.left is not loser:  # rightmost
            new_last = loser.left
            if new_last is loser:  # sole member
                owner.child = None
                w = 3
            else:
                new_last.right = owner
                owner.child.left = new_last
                w = 4
        elif loser.left.right is not loser:  # leftmost
            last = loser.left
            nxt = loser.right
            nxt.left = last
            last.right.child = nxt
            w = 4
        else:
            prev = loser.left
            nxt = loser.right
            prev.right = nxt
            nxt.left = prev
            w = 4
        first = winner.child
        if first is None:
            loser.left = loser
            loser.right = winner
            winner.child = loser
            self.counters.link_writes += w + 2
        else:
            last = first.left
            last.right = loser
            loser.left = last
            loser.right = winner
            first.left = loser
            self.counters.link_writes += w + 4

    def join_front(self, owner, winner, loser):
        """Move loser, not the only member of owner's list, to the front of
        winner's children: 6 writes, or 8 if winner has children.

        winner may be owner itself: each unlink branch leaves owner.child at
        a remaining member, which the insertion then reads, so a move within
        owner's list is correct too, at 8 writes.
        """
        if loser.right.left is not loser:  # rightmost
            new_last = loser.left
            new_last.right = owner
            owner.child.left = new_last
        elif loser.left.right is not loser:  # leftmost
            nxt = loser.right
            nxt.left = loser.left
            owner.child = nxt
        else:
            prev = loser.left
            nxt = loser.right
            prev.right = nxt
            nxt.left = prev
        first = winner.child
        if first is None:
            loser.left = loser
            loser.right = winner
            winner.child = loser
            self.counters.link_writes += 6
        else:
            loser.left = first.left
            loser.right = first
            first.left = loser
            winner.child = loser
            self.counters.link_writes += 8

    def move_front(self, owner, v):
        """Move member v of owner's list to its front: 5 writes for a sole
        member, which is already in front, 8 otherwise."""
        if v.left is v:
            self.counters.link_writes += 5
        else:
            self.join_front(owner, owner, v)

    def detach_promote(self, owner, v):
        """Take v out of owner's list and append v's children at its right
        end, in order: 3 or 4 writes, +3 or +5 with children. v's own links
        are left as they were: free it next."""
        kid = v.child
        if v.right.left is not v:  # rightmost
            new_last = v.left
            if new_last is v:  # sole member: the children replace it
                if kid is None:
                    owner.child = None
                    self.counters.link_writes += 3
                else:
                    owner.child = kid
                    kid.left.right = owner
                    self.counters.link_writes += 6
                return
            new_last.right = owner
            owner.child.left = new_last
        elif v.left.right is not v:  # leftmost
            last = v.left
            nxt = v.right
            nxt.left = last
            owner.child = nxt
        else:
            prev = v.left
            nxt = v.right
            prev.right = nxt
            nxt.left = prev
        if kid is None:
            self.counters.link_writes += 4
            return
        first = owner.child
        k_last = kid.left
        first.left.right = kid
        kid.left = first.left
        k_last.right = owner
        first.left = k_last
        self.counters.link_writes += 9

    def concat(self, target, donor):
        """Append donor's members (in order) at the right end of target's list.

        Donor's list becomes empty. O(1) — only the seam links are touched.
        """
        d_first = donor.child
        if d_first is None:
            return
        c = self.counters
        d_last = d_first.left
        t_first = target.child
        if t_first is None:
            target.child = d_first
            d_last.right = target
            c.link_writes += 2
        else:
            t_last = t_first.left
            t_last.right = d_first
            d_first.left = t_last
            d_last.right = target
            t_first.left = d_last
            c.link_writes += 4
        donor.child = None
        c.link_writes += 1

    @staticmethod
    def position_probe(v):
        """Classify v's position: (NOT_LAST_TWO, None) or (LAST|SECOND_LAST, owner)."""
        if v.right.right.left.left is v:
            return NOT_LAST_TWO, None
        if v.right.left is not v:
            return LAST, v.right
        return SECOND_LAST, v.right.right
