"""Trace format, workload generators, and replay.

Grammar, one event per line; `#` starts a comment, blank lines are skipped:

    i <int>        insert key
    f              find_min       (prints the key)
    d              delete_min     (prints the key)
    k <id> <int>   decrease_key of the id-th inserted element
    x <id>         delete the id-th inserted element

Ids are 1-based insert ordinals. parse_trace validates id liveness, the
no-increase rule and distinct live keys against a canonical simulation. An
`i` of a key that a live id holds, or a `k` onto a key that another live id
holds, is a duplicate_key error; a key is free again once its holder is
deleted or decreased away. With no ties among live keys, the replayed
implementations cannot diverge. An f/d on an empty heap is NOT a parse
error; it surfaces as a runtime failure during replay.
"""

import heapq
import random
from bisect import bisect
from itertools import accumulate

from .errors import EmptyHeapError


class TraceError(Exception):
    """Trace rejected at parse time.

    kind: syntax | dead_id | key_increase | duplicate_key.
    """

    def __init__(self, kind, line, message):
        super().__init__("%s at line %d: %s" % (kind, line, message))
        self.kind = kind
        self.line = line


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


def format_trace(events):
    """Render events back to trace text (inverse of parse_trace)."""
    lines = []
    for ev in events:
        op = ev[0]
        if op == "i":
            lines.append("i %d" % ev[1])
        elif op == "f":
            lines.append("f")
        elif op == "d":
            lines.append("d")
        elif op == "k":
            lines.append("k %d %d" % (ev[1], ev[2]))
        elif op == "x":
            lines.append("x %d" % ev[1])
        else:
            raise ValueError("unknown event %r" % (ev,))
    return "\n".join(lines) + "\n"


# random mode's ops and their cumulative weights, summed as random.choices
# sums them: one bisect then draws exactly as choices(_OPS, weights) does
_OPS = ("i", "d", "f", "k", "x")
_CUM = tuple(accumulate((0.40, 0.20, 0.10, 0.25, 0.05)))


def iter_workload(mode, n, seed=0):
    """Stream the workload as event tuples; deterministic in (mode, n, seed).

    random:      n operations drawn with weights i .4 / d .2 / f .1 /
                 k .25 / x .05, restricted to ops valid in the current
                 state; all live keys kept globally distinct.
    ascending:   i 1 .. i n, then a single f.
    competition: n rounds of (i -r, i -(r+1), f, d) — the adversarial
                 sequence that drives a consolidating heap to rebuild
                 ever-larger trees while this heap stays at rank <= 3.
    """
    assert n >= 1
    if mode == "ascending":
        for j in range(1, n + 1):
            yield ("i", j)
        yield ("f",)
    elif mode == "competition":
        for r in range(1, n + 1):
            yield ("i", -r)
            yield ("i", -(r + 1))
            yield ("f",)
            yield ("d",)
    elif mode == "random":
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
    else:
        raise ValueError("unknown mode %r" % mode)


def gen_workload(mode, n, seed=0):
    """Materialized iter_workload, for writing trace files."""
    return list(iter_workload(mode, n, seed))


def replay(events, heap, before=None, after=None, collect_output=True):
    """Replay events against any of the three implementations.

    Returns the list of keys the F/D events produced (or an empty list when
    collect_output is false — benchmarks skip the accumulation). before/after
    are observer callbacks (index, event) bracketing every operation; audits
    hang off them.

    A `d` is issued as find_min + delete_min so the replayer learns which
    handle died and can prune its id maps; after the explicit find_min the
    padovan heap has a single safe root, which delete_min removes without
    calling find_min again.
    """
    id2h = {}
    h2id = {}
    next_id = 0
    out = []
    for idx, ev in enumerate(events):
        if before is not None:
            before(idx, ev)
        op = ev[0]
        if op == "i":
            next_id += 1
            h = heap.insert(ev[1])
            id2h[next_id] = h
            h2id[h] = next_id
        elif op == "f":
            h = heap.find_min()
            if collect_output:
                out.append(heap.key_of(h))
        elif op == "d":
            h = heap.find_min()
            tid = h2id.pop(h)
            del id2h[tid]
            key = heap.delete_min()
            if collect_output:
                out.append(key)
        elif op == "k":
            heap.decrease_key(id2h[ev[1]], ev[2])
        elif op == "x":
            h = id2h.pop(ev[1])
            del h2id[h]
            heap.delete(h)
        else:
            raise ValueError("unknown event %r" % (ev,))
        if after is not None:
            after(idx, ev)
    return out
