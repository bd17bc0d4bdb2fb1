"""Closed-form starts and intervals for the two max-min models.

The triads model's frontier: the non-edges/triangles max-min objective
depends on a graph only through its edge count m and triangle count t.  By
Kruskal–Katona (Kruskal 1963; Katona 1968) no graph with e edges has more
triangles than the colex graph, a clique K_s plus one node joined to r of
its nodes (e = C(s,2) + r, 0 <= r < s), which has KK(e) = C(s,3) + C(r,2).
So sweeping e over colex graphs padded with isolated nodes finds the exact
optimum over all graphs.

The distance model's interval (:func:`distance_interval`): a lower bound
and a star-plus-cheapest-pairs witness, both read off the sorted pair
distances with no search.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from operator import le
from typing import Callable

from .graph import Graph, all_pairs, num_pairs
from .stats import Hamiltonian, HamiltonianForm, StatisticKind, unscaled


def _sweep(n: int, alpha: Fraction, connected: bool) -> tuple[Fraction, int, int]:
    """(value, s, r) of the best colex core on n nodes for
    min(alpha·(P−m), (1−alpha)·t): K_s on nodes 0..s-1 plus node s joined to
    nodes 0..r-1, the other nodes pendants on node 0 when `connected`, else
    isolated.  Ties go to the smallest core.  The non-edge term never rises
    with the core and the triangle term never falls, so the sweep stops once
    the best value found reaches the non-edge term.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    a, b = alpha.numerator, alpha.denominator
    pairs = num_pairs(n)
    s, r, e, t = 1, 0, 0, 0
    best = best_s = best_r = -1
    while True:
        # m is e plus, when connected, one pendant edge per node outside the core
        room = a * (pairs - (e + n - s - (r > 0) if connected else e))
        value = min(room, (b - a) * t)
        if value > best:
            best, best_s, best_r = value, s, r
        if best >= room or s == n:
            break
        t += r
        e += 1
        r += 1
        if r == s:
            s, r = s + 1, 0
    return Fraction(best, b), best_s, best_r


def optimum(n: int, alpha: Fraction) -> Fraction:
    """The all-space optimum of min(alpha·(P−m), (1−alpha)·t) on n nodes,
    read off the sweep with no graph built; a bound on every space."""
    return _sweep(n, alpha, connected=False)[0]


def witness(n: int, alpha: Fraction, connected: bool) -> Graph:
    """The best colex-core graph on n nodes for min(alpha·(P−m), (1−alpha)·t),
    as :func:`_sweep` finds it; only the graph of the all space (not
    `connected`) is the proven optimum of its space."""
    _, s, r = _sweep(n, alpha, connected)
    core = s + (r > 0)
    return Graph.from_edges(n, [
        *((i, j) for j in range(s) for i in range(j)),
        *((k, s) for k in range(r)),
        *((0, u) for u in range(core, n) if connected),
    ])


def distance_interval(h: Hamiltonian) -> tuple[Fraction, Fraction, Graph]:
    """(lower bound, witness value, witness) for the distance model `h`: the
    max-min of physical distance, then flow distance, minimized, as
    :func:`ergmax.reporting.hamiltonian_for` builds it.  No graph on n nodes
    scores below the bound; the witness holds a spanning star, so it lies in
    the connected space and the all-graphs space.

    Write P for the number of pairs and S_m for the sum of the m smallest
    distances.  *The bound.*  A graph with finite flow distance is
    connected, so has m >= n - 1 edges.  Adjacent pairs are one hop apart
    and all other pairs at least two, so its ordered hop total is at least
    2(m + 2(P - m)) = 2(2P - m); distances are nonnegative, so its physical
    distance is at least S_m.  So it scores at least the least over
    m >= n - 1 of max(alpha·S_m, (1 - alpha)·2(2P - m)).
    *The witness.*  A graph holding the star at a centre c has diameter at
    most two, so its ordered hop total is exactly 2(2P - m).  For each c
    the sweep adds to the star the k cheapest pairs that avoid c, in
    (distance, i, j) order, so its physical distance is a prefix sum.

    Both sweeps run over the pairs sorted once, in ints on h's grid, and
    read their sums off one prefix sum of the sorted distances.  The k
    cheapest pairs that avoid c are the first k + t sorted pairs less the
    t of c's pairs ranked among them, where t counts c's pairs with fewer
    than k avoiding pairs ranked before them; a bisection over those
    counts, ascending in c's ranking, finds t.  As k grows the physical
    term rises and the flow term falls, so the value falls until the
    physical term binds and never falls after it: the best k is the first
    at which it binds, found by bisection, or the one before.  So after
    the sort each centre costs O(n + log n · log P).  Ties go to the
    lowest centre, then the fewest pairs.
    """
    kinds = [spec.kind for _, spec in h.terms]
    if (h.form is not HamiltonianForm.MAX_MIN or h.floor is not None or max(h.grid_weights) > 0
            or kinds != [StatisticKind.PHYSICAL_DISTANCE, StatisticKind.FLOW_DISTANCE]):
        raise ValueError("the distance interval needs the minimized max-min of "
                         "physical distance, then flow distance")
    (wp, wf), rows = h.grid_weights, h.terms[0][1].grid_delta
    n = len(rows)
    pairs = num_pairs(n)
    most = pairs - (n - 1)  # the pairs a spanning star or tree leaves out
    ranked = sorted((rows[i][j], i, j) for i, j in all_pairs(n))
    costs = [d for d, _, _ in ranked]
    prefix = [0, *accumulate(costs)]
    ranks: list[list[int]] = [[] for _ in range(n)]  # each node's pairs' ranks, ascending
    for r, (_, i, j) in enumerate(ranked):
        ranks[i].append(r)
        ranks[j].append(r)

    def best(total: Callable[[int], int]) -> tuple[int, int]:
        """(score, -k) at the best k, the fewest on ties, for n - 1 edges
        plus k more pairs, of total distance total(k), 0 <= k <= most."""
        def terms(k: int) -> tuple[int, int]:
            return wp * total(k), wf * 2 * (2 * pairs - (n - 1) - k)

        binds = bisect_left(range(most + 1), True, key=lambda k: le(*terms(k)))
        return max((min(terms(k)), -k) for k in (binds - 1, binds) if 0 <= k <= most)

    def avoiding(c: int) -> Callable[[int], int]:
        """The distance of c's star plus the k cheapest pairs that avoid c, as a function of k."""
        # ahead[t]: the avoiding pairs ranked before c's pair t; struck[t]: c's first t pairs' sum
        ahead = [r - t for t, r in enumerate(ranks[c])]
        struck = [0, *accumulate(costs[r] for r in ranks[c])]
        star = struck[-1]

        def total(k: int) -> int:
            t = bisect_left(ahead, k)
            return star + prefix[k + t] - struck[t]

        return total

    lower, _ = best(lambda k: prefix[n - 1 + k])
    # negated, so that among equal scores max keeps the lowest centre
    (value, fewest), lowest = max((best(avoiding(c)), -c) for c in range(n))
    c, k = -lowest, -fewest
    star = [(c, v) for v in range(n) if v != c]
    chords = [(i, j) for _, i, j in ranked if c != i and c != j][:k]
    return unscaled(h, lower), unscaled(h, value), Graph.from_edges(n, star + chords)
