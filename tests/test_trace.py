import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from padovanheap import FibonacciHeap, Oracle, PadovanHeap
from padovanheap.errors import EmptyHeapError
from padovanheap.trace import (
    TraceError, format_trace, gen_workload, iter_workload, parse_trace, replay)


def test_parse_basic():
    assert parse_trace("i 5\nf\nd\n") == [("i", 5), ("f",), ("d",)]


def test_parse_comments_blanks_whitespace():
    text = "# header\n\n  i 3\n   # mid\ni -7\n\nk 2 -9\nx 1\n"
    assert parse_trace(text) == [("i", 3), ("i", -7), ("k", 2, -9), ("x", 1)]


def test_parse_syntax_errors():
    for bad, line in (("i\n", 1), ("q 1\n", 1), ("i 5\nf 2\n", 2),
                      ("i one\n", 1), ("i 1\nk 1\n", 2), ("x\n", 1)):
        with pytest.raises(TraceError) as ei:
            parse_trace(bad)
        assert ei.value.kind == "syntax"
        assert ei.value.line == line


def test_parse_dead_id():
    with pytest.raises(TraceError) as ei:
        parse_trace("i 1\nx 2\n")
    assert ei.value.kind == "dead_id" and ei.value.line == 2
    with pytest.raises(TraceError) as ei:
        parse_trace("i 1\nx 1\nk 1 0\n")
    assert ei.value.kind == "dead_id" and ei.value.line == 3
    # delete_min kills the lowest (key, id): id 1 here
    with pytest.raises(TraceError) as ei:
        parse_trace("i 1\ni 2\nd\nk 1 0\n")
    assert ei.value.kind == "dead_id" and ei.value.line == 4


def test_parse_key_increase():
    with pytest.raises(TraceError) as ei:
        parse_trace("i 5\nk 1 6\n")
    assert ei.value.kind == "key_increase" and ei.value.line == 2
    assert parse_trace("i 5\nk 1 5\n")  # equal is fine


def test_parse_duplicate_key():
    for bad, line in (("i 1\ni 1\n", 2),            # insert of a live key
                      ("i 1\ni 2\nk 2 1\n", 3),     # decrease onto one
                      ("i 3\ni 1\nk 1 2\ni 2\n", 4)):
        with pytest.raises(TraceError) as ei:
            parse_trace(bad)
        assert ei.value.kind == "duplicate_key" and ei.value.line == line
    # a key is free again once its holder is deleted or decreased away
    for ok in ("i 1\nk 1 1\n", "i 1\nx 1\ni 1\n", "i 1\nd\ni 1\n",
               "i 2\nk 1 1\ni 2\nk 2 0\n"):
        parse_trace(ok)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("iiifddkx"), st.integers(0, 9),
                          st.integers(0, 2) | st.integers(0, 30)),
                min_size=20, max_size=60))
def test_repeated_keys_are_rejected_or_replay_alike(ops):
    """Traces whose keys repeat often: parse_trace either rejects a
    duplicate live key or all three implementations print the same."""
    lines = []
    live = {}  # id -> key, the parser's canonical simulation
    n = 0
    for op, a, key in ops:
        if op == "i":
            n += 1
            live[n] = key
            lines.append("i %d" % key)
        elif not live:
            continue
        elif op in "fd":
            lines.append(op)
            if op == "d":
                del live[min(live, key=lambda i: (live[i], i))]
        else:
            vid = sorted(live)[a % len(live)]
            if op == "k":
                live[vid] = min(key, live[vid])
                lines.append("k %d %d" % (vid, live[vid]))
            else:
                del live[vid]
                lines.append("x %d" % vid)
    try:
        events = parse_trace("\n".join(lines))
    except TraceError as e:
        assert e.kind == "duplicate_key"
        return
    outs = [replay(events, heap()) for heap in (PadovanHeap, FibonacciHeap, Oracle)]
    assert outs[0] == outs[1] == outs[2]


def test_parse_tracks_decreases():
    # after k, the canonical min moves: d must kill id 2, freeing id 1
    events = parse_trace("i 5\ni 9\nk 2 1\nd\nk 1 0\n")
    assert events[-1] == ("k", 1, 0)


def test_empty_pops_parse_but_fail_at_replay():
    events = parse_trace("f\n")
    with pytest.raises(EmptyHeapError):
        replay(events, PadovanHeap())
    events = parse_trace("i 1\nd\nd\n")
    with pytest.raises(EmptyHeapError):
        replay(events, FibonacciHeap())


def test_format_round_trip():
    events = gen_workload("random", 400, seed=9)
    assert parse_trace(format_trace(events)) == events
    text = format_trace(events)
    assert text.endswith("\n") and "\n\n" not in text


def test_gen_deterministic_and_streamed():
    a = gen_workload("random", 300, seed=4)
    b = gen_workload("random", 300, seed=4)
    c = list(iter_workload("random", 300, seed=4))
    assert a == b == c
    assert a != gen_workload("random", 300, seed=5)
    assert len(a) == 300


# SHA-256 of format_trace(gen_workload(mode, n, seed)) for the generator
# inputs of the acceptance gate: criteria 1 and 5 (random 1e5 from seeds 0
# and 100), criteria 2/3/8 (the first seed of each plan row) and
# criterion 5's competition trace, plus ascending at 1e5. A change to the
# generator that alters any draw changes the gate's traces.
GATE_TRACE_DIGESTS = [
    ("random", 10 ** 5, 0,
     "5c466a232f15fbf32d70d3898206ee0dd93c773582bc25e1e7f015d0226eed41"),
    ("random", 10 ** 5, 100,
     "97ff1fed23a32023e27573efc69930b665b0fd0f6c8d5e979bd015d73feaca2c"),
    ("random", 100, 20000,
     "da5d568e5c71787adbb777b5f742415df137681fb3982d8feb6d39178fbd726d"),
    ("random", 500, 30000,
     "3af5bc99188d4eec52d9a253220768882a133b391d82700d7e2d5561bd4d732e"),
    ("random", 2000, 40000,
     "ddf2989d647e45f49cf0717fbe84e46b3aec4db25879f2a0992136a590d26352"),
    ("competition", 10 ** 5, 0,
     "a8371670306775c3b55635d188077111523520bd5107ccf7b37cf5fbc9ed6af2"),
    ("ascending", 10 ** 5, 0,
     "07b1bc7727718d43c482bbca6c7301cb7e6ec1c73ab8e62f396ab0f5b0acdbf1"),
]


@pytest.mark.parametrize("mode, n, seed, digest", GATE_TRACE_DIGESTS)
def test_gen_workload_is_pinned_on_the_gate_inputs(mode, n, seed, digest):
    text = format_trace(gen_workload(mode, n, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gen_random_is_always_valid():
    for seed in range(5):
        parse_trace(format_trace(gen_workload("random", 500, seed=seed)))


def test_gen_ascending():
    assert gen_workload("ascending", 4) == [
        ("i", 1), ("i", 2), ("i", 3), ("i", 4), ("f",)]


def test_gen_competition_rounds():
    assert gen_workload("competition", 2) == [
        ("i", -1), ("i", -2), ("f",), ("d",),
        ("i", -2), ("i", -3), ("f",), ("d",)]


def test_gen_unknown_mode():
    with pytest.raises(ValueError):
        gen_workload("sideways", 10)


def test_replay_output_matches_oracle_everywhere():
    events = gen_workload("random", 2000, seed=17)
    outs = [replay(events, heap()) for heap in (PadovanHeap, FibonacciHeap, Oracle)]
    assert outs[0] == outs[1] == outs[2]
    assert len(outs[0]) == sum(1 for e in events if e[0] in ("f", "d"))


def test_replay_observers_bracket_every_event():
    events = gen_workload("random", 50, seed=1)
    seen = []
    replay(events, PadovanHeap(),
           before=lambda i, e: seen.append(("b", i, e[0])),
           after=lambda i, e: seen.append(("a", i, e[0])))
    assert len(seen) == 2 * len(events)
    for i, ev in enumerate(events):
        assert seen[2 * i] == ("b", i, ev[0])
        assert seen[2 * i + 1] == ("a", i, ev[0])


def test_replay_without_collection():
    events = gen_workload("random", 200, seed=2)
    assert replay(events, PadovanHeap(), collect_output=False) == []


def test_competition_replay_stays_flat():
    h = PadovanHeap()
    replay(gen_workload("competition", 200), h, collect_output=False)
    assert h.max_rank_seen <= 3
