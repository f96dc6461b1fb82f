"""Padovan heap: a Fibonacci-style priority queue with three links per node.

The package bundles the heap itself, a textbook Fibonacci heap baseline, a
brute-force oracle, an invariant/potential auditor, and trace plumbing used
by the `padovan-heap` command-line tool.
"""

from .errors import (EmptyHeapError, HeapError, KeyIncreaseError,
                     StaleHandleError)
from .fibonacci import FibNode, FibonacciHeap
from .node_store import (Arena, CRITICAL_INNER, NONCRITICAL_INNER, Node,
                         OUTER_MISPLACED, OUTER_PLACED, ROOT, STATUS_NAMES,
                         StepCounters)
from .oracle import Oracle
from .padovan import PLASTIC, PadovanHeap, plastic_cap

__version__ = "0.1.0"

__all__ = [
    "Arena",
    "CRITICAL_INNER",
    "EmptyHeapError",
    "FibNode",
    "FibonacciHeap",
    "HeapError",
    "KeyIncreaseError",
    "NONCRITICAL_INNER",
    "Node",
    "OUTER_MISPLACED",
    "OUTER_PLACED",
    "Oracle",
    "PLASTIC",
    "PadovanHeap",
    "ROOT",
    "STATUS_NAMES",
    "StaleHandleError",
    "StepCounters",
    "plastic_cap",
    "__version__",
]
