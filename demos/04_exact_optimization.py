"""
Exact solvers: brute force, branch-and-bound, and the two-stage variant
=======================================================================

Brute force enumerates every graph in the space and is the oracle for
everything else.  Branch-and-bound explores edge variables depth-first
with admissible per-statistic bounds and exact rational pruning, so it
returns the same optimum while visiting far fewer states.  The model's
interval, a bound and a closed-form witness, gives a strong feasible
incumbent to start from.
"""

from fractions import Fraction

from ergmax import (
    Hamiltonian,
    SampleSpace,
    StatisticKind,
    StatisticSpec,
    branch_and_bound,
    brute_force,
    count_triangles,
    solve_two_stage,
)
from ergmax.reporting import ExperimentSpec, hamiltonian_for, interval_for

NE = StatisticSpec(StatisticKind.NON_EDGES)
TRI = StatisticSpec(StatisticKind.TRIANGLES)
space = SampleSpace.connected_graphs()

# oracle vs search on a small grid
print("n  alpha  brute      bnb        bnb nodes")
for n in (4, 5, 6):
    for alpha in (Fraction(3, 10), Fraction(7, 10)):
        h = Hamiltonian.max_min_pair(alpha, NE, TRI)
        ref, argmax = brute_force(n, space, h)
        res = branch_and_bound(n, space, h)
        print(f"{n}  {str(alpha):5}  {str(ref.objective):9}  {str(res.objective):9}  {res.nodes_explored}")
        assert res.objective == ref.objective

# the interval, with no search: no connected graph scores above the
# all-space optimum of the Kruskal-Katona sweep, and the witness, a colex
# core with pendants, is connected and scores its value
spec = ExperimentSpec(n=60, alpha=Fraction(7, 10))
bound, value, witness = interval_for(spec, hamiltonian_for(spec))
print(f"\nn={spec.n}, alpha={spec.alpha}: the optimum lies in [{value}, {bound}]")
print(f"witness: {witness.edge_count} edges, {count_triangles(witness)} triangles")
assert (bound, value, witness.edge_count) == (975, Fraction(9541, 10), 407)

# warm-starting the search with the witness only tightens it
spec = ExperimentSpec(n=6, alpha=Fraction(1, 2))
h = hamiltonian_for(spec)
cold = branch_and_bound(6, space, h)
warm = branch_and_bound(6, space, h, incumbent=interval_for(spec, h)[2])
print(f"\nwarm start: {cold.nodes_explored} nodes -> {warm.nodes_explored} nodes, "
      f"same optimum {warm.objective == cold.objective}")

# two-stage robust solve: stage 1 fixes the attainable value, stage 2
# re-optimizes the weighted minimum subject to staying within gamma of it
terms = [(Fraction(1), NE), (Fraction(1), TRI)]
for gamma in (Fraction(0), Fraction(1, 2), Fraction(1)):
    two = solve_two_stage(5, space, terms, gamma, p_star_objective="linear")
    print(f"gamma={gamma}: P*={two.p_star}  stage-2 objective={two.stage2.objective}  "
          f"stage-2 edges={two.stage2.graph.edge_count}")
