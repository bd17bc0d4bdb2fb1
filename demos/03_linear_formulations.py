"""
Compiling graph structure into linear constraints
=================================================

Everything the solvers optimize can also be written as a mixed-binary
linear program: triangle indicators via an AND linearization, and
connectivity via an artificial single-commodity flow.  The exporter
writes CPLEX LP text for external solvers, and the checker verifies any
assignment against both the rows and the graph semantics they encode.
"""

import itertools
from fractions import Fraction

from ergmax import Graph
from ergmax import lp

# --- triangle indicators ----------------------------------------------------
# For each triple, binary w must equal the product of its three edge bits.
cs = lp.build_triangle_indicators(3)
print("AND linearization, one triple, all 8 edge corners:")
for corner in itertools.product((0, 1), repeat=3):
    xij, xjk, xik = corner
    feasible_w = [
        w for w in (0, 1)
        if lp.check_assignment(
            cs, {"x_0_1": xij, "x_1_2": xjk, "x_0_2": xik, "w_0_1_2": w}
        ).feasible
    ]
    print(f"  x = {corner} -> feasible w: {feasible_w}")

# --- connectivity as a flow ---------------------------------------------------
# n-1 units leave the root, node 0; capacities n*x zero out absent pairs, so a
# feasible flow exists exactly when the graph is connected.
path = Graph.path(3)
flow = lp.connectivity_flow_assignment(path)
print("\nflow certifying the 3-path:", {k: str(v) for k, v in flow.items() if v})

split = Graph.from_edges(4, [(0, 1), (2, 3)])
cut = lp.zero_capacity_cut(split)
print("disconnected witness: nodes reachable from the root =", sorted(cut))

# --- a complete model and its export -----------------------------------------
cs = lp.build_maxmin(4, Fraction(1, 2))
print(f"\nmax-min model on 4 nodes: {len(cs.variables)} variables, {len(cs.rows)} rows")
text = lp.lp_string(cs)
print("LP text preview:")
print("\n".join(text.splitlines()[:8]))
print(" ...")

# verify a candidate solution end to end (rows + semantics)
g = Graph.complete(4).without_edge(0, 1)
assignment = lp.maxmin_assignment(4, Fraction(1, 2), g)
verdict = lp.check_assignment(cs, assignment)
print(f"\nK4 minus an edge: H = {assignment['H']}, feasible = {verdict.feasible}")
