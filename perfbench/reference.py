"""Reference kernel that calibrates timings for the speed of the machine.

On a shared host the speed of one core drifts by 1.5x between runs, and a
24-second run cannot average that out. The benchmark therefore runs this
kernel right before and after every timed sample and scales each sample by
how fast the kernel ran next to it (see harness.measure). The kernel is a
small pairing heap on objects with three links, replaying a fixed event
list, so it stresses the interpreter the way the heaps under test do.

It is frozen: it never imports the package and must not change, or every
calibrated figure moves with it.
"""

import random
from time import perf_counter

EVENTS = 150_000
# The kernel's median speed, in events/s, on the machine that recorded
# perfbench/baseline.json. Calibrated figures are what the sample would have
# measured with the kernel running at this speed.
REFERENCE_EVENTS_PER_S = 1_200_000


class _Node:
    __slots__ = ("key", "child", "sibling", "prev")

    def __init__(self, key):
        self.key = key
        self.child = None
        self.sibling = None
        self.prev = None


def _link(a, b):
    if b.key < a.key:
        a, b = b, a
    b.prev = a
    b.sibling = a.child
    if a.child is not None:
        a.child.prev = b
    a.child = b
    return a


def _cut(v):
    if v.prev.child is v:
        v.prev.child = v.sibling
    else:
        v.prev.sibling = v.sibling
    if v.sibling is not None:
        v.sibling.prev = v.prev
    v.prev = v.sibling = None


def _merge_pairs(first):
    pairs = []
    while first is not None:
        a = first
        b = a.sibling
        if b is None:
            a.prev = None
            pairs.append(a)
            break
        first = b.sibling
        a.sibling = b.sibling = a.prev = b.prev = None
        pairs.append(_link(a, b))
    root = pairs.pop() if pairs else None
    while pairs:
        root = _link(pairs.pop(), root)
    return root


def make_events(n=EVENTS, seed=0):
    """A fixed mix: insert .45, delete_min .25, find_min .1, decrease .2."""
    rng = random.Random(seed)
    events = []
    live = 0
    for _ in range(n):
        r = rng.random()
        if live == 0 or r < 0.45:
            events.append(("i", rng.randrange(1 << 30)))
            live += 1
        elif r < 0.70:
            events.append(("d",))
            live -= 1
        elif r < 0.80:
            events.append(("f",))
        else:
            events.append(("k", rng.random(), rng.randrange(1 << 20)))
    return events


def replay(events):
    """Replay on the pairing heap; returns the sum of f/d keys as a check."""
    root = None
    nodes = []
    total = 0
    for ev in events:
        op = ev[0]
        if op == "i":
            v = _Node(ev[1])
            nodes.append(v)
            root = v if root is None else _link(root, v)
        elif op == "f":
            total += root.key
        elif op == "d":
            total += root.key
            root.key = None
            root = _merge_pairs(root.child)
        else:
            v = nodes[int(ev[1] * len(nodes))]
            if v.key is None or v is root:
                continue
            v.key -= ev[2]
            _cut(v)
            root = _link(root, v)
    return total


class Kernel:
    """Times one replay of the fixed events: events/s."""

    def __init__(self):
        self.events = make_events()
        self.check = replay(self.events)

    def speed(self):
        t0 = perf_counter()
        total = replay(self.events)
        speed = len(self.events) / (perf_counter() - t0)
        if total != self.check:
            raise RuntimeError("reference kernel gave a different result")
        return speed
