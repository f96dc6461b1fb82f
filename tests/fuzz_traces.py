"""A Hypothesis strategy for valid traces whose op order the fuzzer picks.

Keys are pairwise distinct over the whole trace. A `k` strictly lowers a
live key, or now and then sets it to its own value, which is no change. So
the element a `d` removes is known without replaying the trace, and later
`k` and `x` events can name only live ids.
"""

from hypothesis import strategies as st


@st.composite
def traces(draw, max_size=80):
    ops = draw(st.lists(st.tuples(st.sampled_from("iiiifdkkx"),
                                  st.integers(0, 10**6)),
                        max_size=max_size))
    events = []
    live = {}  # id -> key
    used = set()
    n = 0
    for op, x in ops:
        if op == "i" or not live:
            key = x
            while key in used:
                key += 1
            used.add(key)
            n += 1
            live[n] = key
            events.append(("i", key))
        elif op in "fd":
            events.append((op,))
            if op == "d":
                del live[min(live, key=live.get)]
        else:
            vid = sorted(live)[x % len(live)]
            if op == "k" and x % 8 == 0:
                events.append(("k", vid, live[vid]))  # an equal key
            elif op == "k":
                key = live[vid] - 1 - x % 1000
                while key in used:
                    key -= 1
                used.add(key)
                live[vid] = key
                events.append(("k", vid, key))
            else:
                del live[vid]
                events.append(("x", vid))
    return events
