"""Closed-form bounds on the optimum of the two max-min models.

They turn a heuristic answer into a quality figure: how far the
incumbent may still be from the optimum.  Both are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb


def kk_max_triangles(m: int) -> int:
    """Most triangles any graph with ``m`` edges can have (Kruskal–Katona).

    Write ``m = C(s, 2) + r`` with ``0 <= r < s``; the colex graph (a
    clique on ``s`` nodes plus one node joined to ``r`` of them) is
    extremal and has ``C(s, 3) + C(r, 2)`` triangles.
    """
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    s = 0
    while comb(s + 1, 2) <= m:
        s += 1
    return comb(s, 3) + comb(m - comb(s, 2), 2)


def triads_upper_bound(n: int, alpha: Fraction) -> Fraction:
    """Upper bound on max min(alpha * non-edges, (1 - alpha) * triangles).

    A graph with ``m`` edges has ``P - m`` non-edges and at most
    ``kk_max_triangles(m)`` triangles, so no graph on ``n`` nodes, in any
    space, beats ``max over m of min(alpha (P - m), (1 - alpha) KK(m))``.
    """
    alpha = Fraction(alpha)
    pairs = comb(n, 2)
    return max(
        min(alpha * (pairs - m), (1 - alpha) * kk_max_triangles(m))
        for m in range(pairs + 1)
    )


def flow_lower_bound(delta, alpha: Fraction) -> Fraction:
    """Lower bound on min max(alpha * physical, (1 - alpha) * flow distance).

    Flow distance needs a connected graph, so ``m >= n - 1``.  With ``m``
    edges the physical distance is at least the sum of the ``m``
    smallest pair distances, and the ordered hop total is at least
    ``2 (m + 2 (P - m))``: adjacent pairs are one hop apart, the rest at
    least two.
    """
    alpha = Fraction(alpha)
    n = len(delta)
    pairs = comb(n, 2)
    smallest = sorted(delta[i][j] for i in range(n) for j in range(i + 1, n))
    physical = list(accumulate(smallest, initial=Fraction(0)))
    return min(
        max(alpha * physical[m], (1 - alpha) * 2 * (2 * pairs - m))
        for m in range(n - 1, pairs + 1)
    )
