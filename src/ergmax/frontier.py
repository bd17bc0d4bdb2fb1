"""The triads model's frontier: the most triangles a graph with e edges holds.

The non-edges/triangles max-min objective depends on a graph only through
its edge count m and triangle count t.  By Kruskal–Katona (Kruskal 1963;
Katona 1968) no graph with e edges has more triangles than the colex graph,
a clique K_s plus one node joined to r of its nodes (e = C(s,2) + r,
0 <= r < s), which has KK(e) = C(s,3) + C(r,2).  So sweeping e over colex
graphs padded with isolated nodes finds the exact optimum over all graphs.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import Graph, num_pairs


def witness(n: int, alpha: Fraction, connected: bool) -> Graph:
    """The best colex-core graph on n nodes for min(alpha·(P−m), (1−alpha)·t).

    The core is K_s on nodes 0..s-1 plus node s joined to nodes 0..r-1; the
    other nodes are pendants on node 0 when `connected`, else isolated, and
    only the latter graph is the proven optimum of its space.  Ties go to the
    smallest core.  The non-edge term never rises with the core and the
    triangle term never falls, so the sweep stops once the best value found
    reaches the non-edge term.
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
    core = best_s + (best_r > 0)
    return Graph.from_edges(n, [
        *((i, j) for j in range(best_s) for i in range(j)),
        *((k, best_s) for k in range(best_r)),
        *((0, u) for u in range(core, n) if connected),
    ])
