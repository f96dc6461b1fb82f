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

The arena tracks the live vertex set (so stale handles are detectable) and
owns the shared step counters that every heap built on it reports into.
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
    """Allocator + low-level sibling-list surgery with counted link writes."""

    __slots__ = ("counters", "_live")

    def __init__(self):
        self.counters = StepCounters()
        self._live = set()

    # -- allocation ----------------------------------------------------

    def alloc(self, key):
        v = Node(key)
        self._live.add(id(v))
        self.counters.link_writes += 2  # left=self, right=self
        return v

    def free(self, v):
        assert id(v) in self._live, "double free / foreign node"
        self._live.discard(id(v))
        # scrub links so a stale handle dereference fails fast; not counted
        # as work (deallocation bookkeeping, not algorithmic link surgery)
        v.left = None
        v.right = None
        v.child = None

    def is_live(self, v):
        return isinstance(v, Node) and id(v) in self._live

    # -- sibling-list surgery ------------------------------------------
    #
    # All operations keep the representation invariants described in the
    # module docstring and count every left/right/child write.

    def push_front(self, owner, v):
        """Make detached singleton v the new leftmost member of owner's list."""
        first = owner.child
        if first is None:
            # v.left is already v (detached singleton)
            v.right = owner
            owner.child = v
            self.counters.link_writes += 2
        else:
            last = first.left
            v.left = last
            v.right = first
            first.left = v
            owner.child = v
            self.counters.link_writes += 4

    def push_back(self, owner, v):
        """Make detached singleton v the new rightmost member of owner's list."""
        first = owner.child
        if first is None:
            v.right = owner
            owner.child = v
            self.counters.link_writes += 2
        else:
            last = first.left
            last.right = v
            v.left = last
            v.right = owner
            first.left = v
            self.counters.link_writes += 4

    def detach(self, v, owner=None):
        """Remove v from its list, leaving it a detached singleton.

        If v is the rightmost member the caller MUST supply the owner: only
        then can the new rightmost member's right link be rewired. (The heap
        algorithms only ever detach a rightmost node with the owner already
        in hand.) For every other position the owner is recoverable or not
        needed.
        """
        c = self.counters
        if v.right.left is not v:
            # v is rightmost; v.right is the owner
            if owner is None:
                raise ValueError("detach of a rightmost node requires the owner")
            assert v.right is owner, "owner mismatch on rightmost detach"
            if v.left is v:
                owner.child = None
                c.link_writes += 1
            else:
                new_last = v.left
                new_last.right = owner
                owner.child.left = new_last
                c.link_writes += 2
        elif v.left.right is not v:
            # v is leftmost (and not rightmost); v.left is the rightmost
            # member, whose right link is the owner
            last = v.left
            own = last.right
            nxt = v.right
            nxt.left = last
            own.child = nxt
            c.link_writes += 2
        else:
            # interior: both neighbors are members
            prev = v.left
            nxt = v.right
            prev.right = nxt
            nxt.left = prev
            c.link_writes += 2
        v.left = v
        v.right = v
        c.link_writes += 2

    # The heap's list moves, each fused into one call that counts exactly the
    # link writes of the two-call form it replaces: detach's two
    # singleton-reset writes are counted even where the second half
    # overwrites them and so they are skipped.

    def alloc_back(self, owner, key):
        """alloc(key) + push_back(owner, v) in one call; returns v."""
        v = Node(key)
        self._live.add(id(v))
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
        """detach(loser, owner) + push_back(winner, loser) in one call.

        As with detach, owner may be None unless loser is rightmost.
        winner's children form a list other than loser's.
        """
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
        """detach(loser, owner) + push_front(winner, loser) in one call.

        loser is a member of owner's list but not its only one, and winner's
        children form another list.
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

    def detach_promote(self, owner, v):
        """detach(v, owner) + concat(owner, v) in one call.

        v leaves owner's list and its children follow at the right end of
        that list. v's own links are left as they were: free it next.
        """
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

    # -- debugging aids (uncounted) ------------------------------------

    def list_members(self, owner, limit=None):
        """Members of owner's list, leftmost first, following right links."""
        out = []
        v = owner.child
        bound = limit if limit is not None else len(self._live) + 1
        while v is not None and v is not owner:
            out.append(v)
            assert len(out) <= bound, "right chain does not close on the owner"
            v = v.right
        return out
