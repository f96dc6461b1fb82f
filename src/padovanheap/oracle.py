"""Brute-force reference priority queue for differential testing.

A dict of live handles plus a lazily-cleaned binary heap of (key, id)
pairs. Handles are plain ints drawn from a process-wide counter, so handles
from melded oracles never collide. delete_min removes exactly the handle
find_min returns: the lowest-id element among those with the minimal key.
An oracle consumed by meld raises StaleHandleError on every later call, as
the heaps do. It holds no keys, so key_of needs no test for it, and
find_min, delete_min, decrease_key and delete test for it only on their
empty-heap or dead-handle path.
"""

import heapq
import itertools

from .errors import (
    CONSUMED,
    EmptyHeapError,
    KeyIncreaseError,
    StaleHandleError,
)

_next_handle = itertools.count(1)


class Oracle:

    def __init__(self):
        self._keys = {}          # handle -> current key
        self._heap = []          # (key, handle), may contain stale entries
        self._consumed = None    # or why every operation now raises

    @property
    def size(self):
        return len(self._keys)

    def is_empty(self):
        return not self._keys

    def insert(self, key):
        if self._consumed:
            raise StaleHandleError(self._consumed)
        h = next(_next_handle)
        self._keys[h] = key
        heapq.heappush(self._heap, (key, h))
        return h

    def _settle(self):
        # drop heap entries invalidated by decrease_key / delete
        heap = self._heap
        keys = self._keys
        while heap:
            k, h = heap[0]
            if keys.get(h) == k:
                return h
            heapq.heappop(heap)
        raise AssertionError("oracle heap drained with live keys present")

    def find_min(self):
        if not self._keys:
            if self._consumed:
                raise StaleHandleError(self._consumed)
            raise EmptyHeapError("find_min on empty heap")
        return self._settle()

    def delete_min(self):
        if not self._keys:
            if self._consumed:
                raise StaleHandleError(self._consumed)
            raise EmptyHeapError("delete_min on empty heap")
        h = self._settle()
        key, _ = heapq.heappop(self._heap)
        del self._keys[h]
        return key

    # A handle is one of this oracle's own ints: type(h) is int keeps out
    # unhashable junk and the 1.0 and True aliases of the int 1, and one
    # dict access both tests and reads it.

    def decrease_key(self, h, new_key):
        keys = self._keys
        if type(h) is int:
            try:
                cur = keys[h]
            except KeyError:
                pass
            else:
                if new_key > cur:
                    raise KeyIncreaseError(
                        "%r -> %r is an increase" % (cur, new_key))
                keys[h] = new_key
                heapq.heappush(self._heap, (new_key, h))
                return
        raise StaleHandleError(
            self._consumed or "decrease_key on dead handle %r" % (h,))

    def delete(self, h):
        if type(h) is int:
            try:
                del self._keys[h]
                return
            except KeyError:
                pass
        raise StaleHandleError(
            self._consumed or "delete on dead handle %r" % (h,))

    def key_of(self, h):
        if type(h) is int:
            try:
                return self._keys[h]
            except KeyError:
                pass
        raise StaleHandleError("key_of on dead handle %r" % (h,))

    def meld(self, other):
        if self._consumed or other._consumed:
            raise StaleHandleError(self._consumed or other._consumed)
        if other is self:
            raise ValueError("meld with self")
        self._keys.update(other._keys)
        for item in other._heap:
            heapq.heappush(self._heap, item)
        other._keys = {}
        other._heap = []
        other._consumed = CONSUMED
        return self
