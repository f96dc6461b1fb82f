"""Exception types and messages shared by all three priority-queue
implementations."""

# StaleHandleError messages: every call on a heap consumed by meld, and a
# handle that is not live in the heap it is passed to
CONSUMED = "heap was consumed by meld"
STALE = "dead or foreign handle: %r"


class HeapError(Exception):
    pass


class EmptyHeapError(HeapError):
    """find_min / delete_min on an empty heap."""


class KeyIncreaseError(HeapError):
    """decrease_key called with a key larger than the current one."""


class StaleHandleError(HeapError):
    """Operation on a handle that was freed or belongs elsewhere."""
