"""A fixed reference workload that measures how fast the machine runs now.

The benchmark's host shares its cores: the same job's time moves by up
to 1.7x between phases that last minutes.  Timing this kernel between
jobs and multiplying the jobs' times by the speed it shows removes most
of that drift.  The kernel is plain Python in equal parts of the
package's four kinds of hot path (a long bitset walk as in local search
at n = 60, many small bitsets as in branch-and-bound at n = 7, frontier
BFS as in the flow model, rational arithmetic and text as in LP export)
and does not touch ``ergmax``, so a change to the package cannot move it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

# kernel time, in seconds, that defines speed 1.0: about its time on a
# 2 GHz Xeon in a quiet phase.  Only ratios to it matter.
REFERENCE_S = 0.009


def _walk(bits: int, n: int) -> int:
    """Visit the set bits of an edge bitset and rank each pair (i, j)."""
    total = 0
    while bits:
        low = bits & -bits
        index = low.bit_length() - 1
        i, row = 0, n - 1
        while index >= row:
            index -= row
            i += 1
            row -= 1
        total += i + index
        bits ^= low
    return total


def _hop_total(adj: tuple[int, ...]) -> int:
    """Sum of BFS depths from every node over neighbour bitmasks."""
    total = 0
    for source in range(len(adj)):
        seen = frontier = 1 << source
        depth = 0
        while frontier:
            depth += 1
            reached = 0
            rest = frontier
            while rest:
                low = rest & -rest
                reached |= adj[low.bit_length() - 1]
                rest ^= low
            frontier = reached & ~seen
            seen |= frontier
            total += depth * frontier.bit_count()
    return total


class _Bits:
    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        self.n = n
        self.bits = bits


def kernel() -> None:
    """One fixed unit of interpreter work, 9 ms at speed 1.0."""
    _walk((1 << 1770) - 1 ^ (1 << 700), 60)
    for bits in range(0, 1 << 21, 2000):
        _walk(_Bits(7, bits).bits, 7)
    ring = tuple(
        (0x2492_4924_9249 >> (v % 3)) & ((1 << 30) - 1) & ~(1 << v)
        | 1 << (v + 1) % 30 | 1 << (v - 1) % 30
        for v in range(30)
    )
    for _ in range(18):
        _hop_total(ring)
    value = Fraction(0)
    rows = []
    for k in range(1, 150):
        value += Fraction(k % 7 + 1, k % 13 + 2)
        rows.append({"row": f"r{k}", "rhs": str(value.limit_denominator(1000)), "x": {f"x_{k}": k % 5}})
    json.dumps(rows)


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
