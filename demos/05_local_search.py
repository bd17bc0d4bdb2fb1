"""
First-improve local search
==========================

Beyond about seven nodes exhaustive search is out of reach, so a
first-improve walk toggles one edge at a time: scan the candidate
toggles in rank order, apply the first strictly improving feasible one,
and stop when a full scan finds nothing.  The walk is deterministic.  A
scan scores only the toggles in a direction that can raise the binding
term, the one at the minimum, since no other can raise the max-min; and
since every toggle moves the non-edge count by exactly one, it skips a
direction that would bring the non-edge term down to the minimum.  A
walk can stall below the optimum, so the solvers start from the
Kruskal–Katona frontier witness instead, which no single toggle improves.
"""

from fractions import Fraction

from ergmax import (
    Graph,
    Hamiltonian,
    SampleSpace,
    StatisticKind,
    StatisticSpec,
    branch_and_bound,
    brute_force,
    eval_hamiltonian,
    first_improve,
    has_improving_toggle,
)
from ergmax.frontier import witness

NE = StatisticSpec(StatisticKind.NON_EDGES)
TRI = StatisticSpec(StatisticKind.TRIANGLES)
space = SampleSpace.connected_graphs()
h = Hamiltonian.max_min_pair(Fraction(1, 2), NE, TRI)

# a complete graph scores zero (no non-edges): the walk immediately
# finds removals that trade non-edges for retained triangles
k6 = Graph.complete(6)
print("start K6: objective", eval_hamiltonian(h, k6))
res = first_improve(k6, h, space)
print("after first-improve:", res.objective, f"({res.graph.edge_count} edges, "
      f"{res.nodes_explored} candidate evaluations)")
print("1-toggle locally optimal:", not has_improving_toggle(res.graph, h, space))

# a climb from the star stalls below the optimum
h7 = Hamiltonian.max_min_pair(Fraction(7, 10), NE, TRI)
ref, _ = brute_force(6, space, h7)
single = first_improve(Graph.star(6), h7, space)
print(f"\nn=6, alpha=7/10: brute-force optimum {ref.objective}")
print(f"  climb from the star: {single.objective}")

# the frontier witness scores the optimum in closed form, and bnb
# warm-started from it only has to prove that no graph does better
start = witness(6, Fraction(7, 10), True)
print(f"  frontier witness:    {eval_hamiltonian(h7, start)}")
exact = branch_and_bound(6, space, h7, incumbent=start)
print(f"  bnb from the witness: {exact.objective}, {exact.status} "
      f"after {exact.nodes_explored} nodes")
