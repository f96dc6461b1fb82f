"""The trace parser and random-mode generator in their first form.

Kept verbatim, as the reference that tests/test_trace.py compares the
package's parse_trace and iter_workload("random", ...) against. Here each
key and id is drawn by rng.randrange, and each line is stripped, tested for
a comment and split, as before the set-up was written out for speed; the
events, the draws and the errors must stay the same.
"""

import heapq
import random
from bisect import bisect
from itertools import accumulate

from padovanheap.trace import TraceError


def parse_trace(text):
    """Parse trace text into a list of event tuples, validating ids/keys."""
    events = []
    live = {}  # id -> key, canonical simulation
    held = set()  # the keys of live ids, pairwise distinct
    by_key = []  # lazy (key, id) heap mirroring live
    next_id = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        op = parts[0]
        try:
            if op == "i":
                if len(parts) != 2:
                    raise ValueError("expected: i <int>")
                key = int(parts[1])
                if key in held:
                    raise TraceError("duplicate_key", lineno,
                                     "key %d is live" % key)
                held.add(key)
                next_id += 1
                live[next_id] = key
                heapq.heappush(by_key, (key, next_id))
                events.append(("i", key))
            elif op == "f":
                if len(parts) != 1:
                    raise ValueError("expected: f")
                events.append(("f",))
            elif op == "d":
                if len(parts) != 1:
                    raise ValueError("expected: d")
                while by_key and live.get(by_key[0][1]) != by_key[0][0]:
                    heapq.heappop(by_key)  # stale: deleted or decreased
                if by_key:
                    key, vid = heapq.heappop(by_key)
                    del live[vid]
                    held.remove(key)
                events.append(("d",))
            elif op == "k":
                if len(parts) != 3:
                    raise ValueError("expected: k <id> <int>")
                vid = int(parts[1])
                key = int(parts[2])
                if vid not in live:
                    raise TraceError("dead_id", lineno,
                                     "id %d is not live" % vid)
                if key > live[vid]:
                    raise TraceError(
                        "key_increase", lineno,
                        "key %d > current %d for id %d"
                        % (key, live[vid], vid))
                if key != live[vid]:
                    if key in held:
                        raise TraceError("duplicate_key", lineno,
                                         "key %d is live" % key)
                    held.remove(live[vid])
                    held.add(key)
                live[vid] = key
                heapq.heappush(by_key, (key, vid))
                events.append(("k", vid, key))
            elif op == "x":
                if len(parts) != 2:
                    raise ValueError("expected: x <id>")
                vid = int(parts[1])
                if vid not in live:
                    raise TraceError("dead_id", lineno,
                                     "id %d is not live" % vid)
                held.remove(live.pop(vid))
                events.append(("x", vid))
            else:
                raise ValueError("unknown op %r" % op)
        except TraceError:
            raise
        except ValueError as e:
            raise TraceError("syntax", lineno, str(e))
    return events


# random mode's ops and their cumulative weights, summed as random.choices
# sums them: one bisect then draws exactly as choices(_OPS, weights) does
_OPS = ("i", "d", "f", "k", "x")
_CUM = tuple(accumulate((0.40, 0.20, 0.10, 0.25, 0.05)))


def iter_random_workload(n, seed=0):
    """The body of iter_workload("random", n, seed)."""
    rng = random.Random(seed)
    live = {}      # id -> key
    order = []     # live ids for O(1) uniform choice
    pos = {}       # id -> index into order
    by_key = []    # lazy (key, id) heap for the canonical delete_min
    used = set()   # all keys ever issued; keeps live keys distinct
    next_id = 0
    span = 10 ** 6

    def drop(vid):
        del live[vid]
        i = pos.pop(vid)
        last = order.pop()
        if i < len(order):
            order[i] = last
            pos[last] = i

    for _ in range(n):
        op = (_OPS[bisect(_CUM, rng.random() * _CUM[-1], 0, 4)]
              if live else "i")
        if op == "i":
            while True:
                key = rng.randrange(-span, span)
                if key not in used:
                    break
            used.add(key)
            next_id += 1
            live[next_id] = key
            pos[next_id] = len(order)
            order.append(next_id)
            heapq.heappush(by_key, (key, next_id))
            yield ("i", key)
        elif op == "d":
            while live.get(by_key[0][1]) != by_key[0][0]:
                heapq.heappop(by_key)  # stale entry
            drop(heapq.heappop(by_key)[1])
            yield ("d",)
        elif op == "f":
            yield ("f",)
        elif op == "k":
            vid = order[rng.randrange(len(order))]
            cur = live[vid]
            while True:
                nk = rng.randrange(cur - span, cur)
                if nk not in used:
                    break
            used.add(nk)
            live[vid] = nk
            heapq.heappush(by_key, (nk, vid))
            yield ("k", vid, nk)
        else:
            vid = order[rng.randrange(len(order))]
            drop(vid)
            yield ("x", vid)
