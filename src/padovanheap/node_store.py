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

A vertex's status is one of the four child statuses (inner noncritical or
critical, outer placed or misplaced) or ROOT. A PadovanHeap marks its roots
ROOT only once its potentials are read; before that a root's status means
nothing.

The arena allocates and frees vertices and owns the shared step counters
that every heap built on it reports into. It keeps no liveness state: each
PadovanHeap keeps the set of its own live vertices, so a handle of another
heap is foreign even when the two heaps share an arena.
"""

NONCRITICAL_INNER = 0
CRITICAL_INNER = 1
OUTER_PLACED = 2
OUTER_MISPLACED = 3
ROOT = 4

STATUS_NAMES = ("N", "C", "P", "M", "R")
_STATUS_LABELS = dict(enumerate(STATUS_NAMES))


def status_label(status):
    """The status's name; one outside 0..4 shows as "?" and its value."""
    return _STATUS_LABELS.get(status) or "?%r" % (status,)


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
            self.key, self.rank, status_label(self.status))


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
    """Allocator and step counters, with the one list move that PadovanHeap
    makes as a call: concat, to meld.

    Every move on the three-link lists is priced as its plain two-step form:
    unlink the vertex into a self-linked singleton (1 write for a sole
    member, else 2, plus 2 for the reset), then insert it at one end of a
    list (2 writes into an empty list, else 4). Skipped writes count too.
    PadovanHeap writes its other moves out in the operation that makes them
    and counts each by its row of this table: insert is alloc_back,
    find_min's joins and links are join_back and join_front on the root
    list, _cut's move onto the root list is join_back, _place is
    move_front, and _remove_root is detach_promote, then free.

        row             two-step form           writes
        alloc           --                      2
        alloc_back      alloc + insert back     4 into an empty list, else 6
        join_back       unlink + insert back    5 for a sole member, else 6;
                                                +2 into a nonempty list
        join_front      unlink + insert front   6, or 8 into a nonempty list
                                                (the member is never sole)
        move_front      unlink + insert front   5 for a sole member, else 8
                        into the same list
        detach_promote  unlink + concat         3 for a sole member, else 4;
                                                +3 if v's children become the
                                                whole list, +5 if they join
                                                other members
        concat          --                      0 for an empty donor, 3 into
                                                an empty target, else 5
    """

    __slots__ = ("counters",)

    def __init__(self):
        self.counters = StepCounters()

    def alloc(self, key):
        v = Node(key)
        self.counters.link_writes += 2  # left=self, right=self
        return v

    def free(self, v):
        # scrub links so a stale handle dereference fails fast; not counted
        # as work (deallocation bookkeeping, not algorithmic link surgery)
        v.left = None
        v.right = None
        v.child = None

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
