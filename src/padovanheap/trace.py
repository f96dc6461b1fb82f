"""Trace format, workload generators, and replay.

Grammar, one event per line; a line whose first word starts with `#` is a
comment, and blank lines are skipped:

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

Random mode draws every integer in [lo, lo + w) by rejection from the
generator's raw bits: k = w.bit_length(), redraw r = getrandbits(k) while
r >= w, and take lo + r. That is the draw Random.randrange(lo, lo + w)
makes on CPython 3.10 and later, so the traces are those randrange gave.
Written out, they depend only on the seeding, random() and getrandbits(),
and not on randrange's private reduction, which a later Python may change.
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
    append = events.append
    heappush = heapq.heappush
    heappop = heapq.heappop
    live = {}  # id -> key, canonical simulation
    holder = {}  # key -> id, the keys of live ids, pairwise distinct
    by_key = []  # lazy heap of keys; holds every live key
    next_id = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            parts = raw.split()
            if not parts:
                continue
            op = parts[0]
            if op == "i":
                if len(parts) != 2:
                    raise ValueError("expected: i <int>")
                key = int(parts[1])
                if key in holder:
                    raise TraceError("duplicate_key", lineno,
                                     "key %d is live" % key)
                next_id += 1
                holder[key] = next_id
                live[next_id] = key
                heappush(by_key, key)
                append(("i", key))
            elif op == "k":
                if len(parts) != 3:
                    raise ValueError("expected: k <id> <int>")
                vid = int(parts[1])
                key = int(parts[2])
                cur = live.get(vid)
                if cur is None:
                    raise TraceError("dead_id", lineno,
                                     "id %d is not live" % vid)
                if key > cur:
                    raise TraceError("key_increase", lineno,
                                     "key %d > current %d for id %d"
                                     % (key, cur, vid))
                if key != cur:
                    if key in holder:
                        raise TraceError("duplicate_key", lineno,
                                         "key %d is live" % key)
                    del holder[cur]
                    holder[key] = vid
                    live[vid] = key
                    heappush(by_key, key)
                append(("k", vid, key))
            elif op == "d":
                if len(parts) != 1:
                    raise ValueError("expected: d")
                while by_key:  # pop stale entries up to the live minimum
                    vid = holder.pop(heappop(by_key), None)
                    if vid is not None:
                        del live[vid]
                        break
                append(("d",))
            elif op == "f":
                if len(parts) != 1:
                    raise ValueError("expected: f")
                append(("f",))
            elif op == "x":
                if len(parts) != 2:
                    raise ValueError("expected: x <id>")
                vid = int(parts[1])
                cur = live.pop(vid, None)
                if cur is None:
                    raise TraceError("dead_id", lineno,
                                     "id %d is not live" % vid)
                del holder[cur]
                append(("x", vid))
            elif op[0] != "#":
                raise ValueError("unknown op %r" % op)
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

    An unknown mode or an n below 1 raises ValueError here, not at the
    first event.
    """
    if mode not in _MODES:
        raise ValueError("unknown mode %r" % mode)
    if n < 1:
        raise ValueError("n must be at least 1, got %r" % n)
    return _MODES[mode](n, seed)


def _ascending(n, seed):
    for j in range(1, n + 1):
        yield ("i", j)
    yield ("f",)


def _competition(n, seed):
    for r in range(1, n + 1):
        yield ("i", -r)
        yield ("i", -(r + 1))
        yield ("f",)
        yield ("d",)


def _random(n, seed):
    rng = random.Random(seed)
    rand = rng.random
    getrandbits = rng.getrandbits
    heappush = heapq.heappush
    heappop = heapq.heappop
    live = {}      # id -> key
    order = []     # live ids for O(1) uniform choice
    pos = {}       # id -> index into order
    by_key = []    # lazy heap of keys for the canonical delete_min
    owner = {}     # key -> id, for all keys ever issued; keeps keys distinct
    next_id = 0
    span = 10 ** 6
    key_bits = (2 * span).bit_length()  # i: a key in [-span, span)
    dec_bits = span.bit_length()        # k: a key in [cur - span, cur)
    total = _CUM[-1]
    for _ in range(n):
        op = _OPS[bisect(_CUM, rand() * total, 0, 4)] if live else "i"
        if op == "i":
            key = getrandbits(key_bits) - span
            while key >= span or key in owner:
                key = getrandbits(key_bits) - span
            next_id += 1
            owner[key] = next_id
            live[next_id] = key
            pos[next_id] = len(order)
            order.append(next_id)
            heappush(by_key, key)
            yield ("i", key)
        elif op == "d":
            key = heappop(by_key)
            vid = owner[key]
            while live.get(vid) != key:  # stale: deleted or decreased
                key = heappop(by_key)
                vid = owner[key]
            del live[vid]
            i = pos.pop(vid)
            last = order.pop()
            if i < len(order):
                order[i] = last
                pos[last] = i
            yield ("d",)
        elif op == "f":
            yield ("f",)
        else:  # k or x, on a live id drawn uniformly
            width = len(order)
            bits = width.bit_length()
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            vid = order[r]
            if op == "k":
                cur = live[vid]
                key = cur - span + getrandbits(dec_bits)
                while key >= cur or key in owner:
                    key = cur - span + getrandbits(dec_bits)
                owner[key] = vid
                live[vid] = key
                heappush(by_key, key)
                yield ("k", vid, key)
            else:
                del live[vid]
                i = pos.pop(vid)
                last = order.pop()
                if i < len(order):
                    order[i] = last
                    pos[last] = i
                yield ("x", vid)


_MODES = {"ascending": _ascending, "competition": _competition,
          "random": _random}


def gen_workload(mode, n, seed=0):
    """iter_workload as a list."""
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
