import pytest

from padovanheap import FibonacciHeap, Oracle, PadovanHeap
from padovanheap.errors import EmptyHeapError, KeyIncreaseError, StaleHandleError


def test_basic_order():
    o = Oracle()
    for k in (5, 2, 8):
        o.insert(k)
    assert o.key_of(o.find_min()) == 2
    assert o.delete_min() == 2
    assert o.delete_min() == 5
    assert o.delete_min() == 8
    assert o.is_empty()


def test_duplicates_resolve_by_insertion_order():
    o = Oracle()
    h1 = o.insert(1)
    h2 = o.insert(1)
    o.insert(2)
    assert o.find_min() == h1
    assert o.delete_min() == 1
    assert o.find_min() == h2
    assert o.delete_min() == 1
    assert o.delete_min() == 2


def test_decrease_key():
    o = Oracle()
    h = o.insert(10)
    o.insert(5)
    o.decrease_key(h, 3)
    assert o.key_of(h) == 3
    assert o.find_min() == h
    with pytest.raises(KeyIncreaseError):
        o.decrease_key(h, 4)
    o.decrease_key(h, 3)  # equal allowed


def test_delete_and_stale_handles():
    o = Oracle()
    h = o.insert(7)
    o.insert(9)
    o.delete(h)
    assert o.size == 1
    for fn in (o.delete, lambda x: o.decrease_key(x, 0), o.key_of):
        with pytest.raises(StaleHandleError):
            fn(h)


def test_empty_raises():
    o = Oracle()
    with pytest.raises(EmptyHeapError):
        o.find_min()
    with pytest.raises(EmptyHeapError):
        o.delete_min()


def test_meld():
    o1 = Oracle()
    o2 = Oracle()
    h1 = o1.insert(4)
    h2 = o2.insert(1)
    o1.meld(o2)
    assert o1.size == 2
    assert o1.find_min() == h2
    assert o2.size == 0  # consumed
    o1.decrease_key(h1, 0)
    assert o1.delete_min() == 0
    with pytest.raises(ValueError):
        o1.meld(o1)


def test_handles_globally_unique_across_oracles():
    a, b = Oracle(), Oracle()
    ha = a.insert(1)
    hb = b.insert(1)
    assert ha != hb
    a.meld(b)
    assert a.key_of(ha) == a.key_of(hb) == 1


@pytest.mark.parametrize("cls", [Oracle, PadovanHeap, FibonacciHeap])
def test_consumed_heap_raises_like_the_heaps(cls):
    """After a.meld(b), every call on b, and a meld with b on either side,
    raises StaleHandleError on the oracle as on both heaps."""
    a, b = cls(), cls()
    a.insert(1)
    v = b.insert(2)
    a.meld(b)
    calls = [lambda: b.insert(5), b.find_min, b.delete_min,
             lambda: b.decrease_key(v, 0), lambda: b.delete(v),
             lambda: b.key_of(v), lambda: b.meld(cls()),
             lambda: cls().meld(b)]
    for call in calls:
        with pytest.raises(StaleHandleError):
            call()
    assert b.size == 0 and a.size == 2
    assert a.key_of(v) == 2
