"""Shared independent oracles used across the test suite.

Everything here deliberately avoids the production code paths it is
used to check: triangles by triple enumeration, connectivity by
union-find, shortest paths by dense Floyd-Warshall, and branch-and-bound
by the loop that built a Graph pair per node and read every term afresh.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from typing import Callable, Iterator

from ergmax import (
    ConstraintSystem,
    Graph,
    Hamiltonian,
    SampleSpace,
    SolveResult,
    StatisticKind,
    StatisticSpec,
    lp,
)
from ergmax.exact import _breaks_lex_order
from ergmax.graph import DisconnectedGraphError, all_pairs, is_connected, num_pairs, reached
from ergmax.stats import grid_values, score


def iter_graphs(n: int) -> Iterator[Graph]:
    for bits in range(1 << num_pairs(n)):
        yield Graph(n, bits)


def random_connected_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    """Seeded G(n, p) sample, patched with extra edges until connected: a
    start for climbs that should not begin at a graph with a hub."""
    g = Graph.from_edges(n, (pair for pair in all_pairs(n) if rng.random() < p))
    while (comp := reached(g, 0)) != (1 << n) - 1:
        inside = [v for v in range(n) if comp >> v & 1]
        outside = [v for v in range(n) if not comp >> v & 1]
        g = g.with_edge(rng.choice(inside), rng.choice(outside))
    return g


def triangle_count_by_triples(g: Graph) -> int:
    total = 0
    for i, j, k in itertools.combinations(range(g.n), 3):
        if g.has_edge(i, j) and g.has_edge(j, k) and g.has_edge(i, k):
            total += 1
    return total


def union_find_connected(g: Graph) -> bool:
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in g.edges():
        parent[find(i)] = find(j)
    return len({find(v) for v in range(g.n)}) == 1


def floyd_warshall_hops(g: Graph) -> list[list[float]]:
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for i, j in g.edges():
        dist[i][j] = dist[j][i] = 1
    for k in range(g.n):
        for i in range(g.n):
            dik = dist[i][k]
            if dik == inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(g.n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def ordered_hop_sum(g: Graph) -> int:
    """Independent flow-distance oracle from Floyd-Warshall distances."""
    dist = floyd_warshall_hops(g)
    total = 0
    for i in range(g.n):
        for j in range(g.n):
            if i != j:
                if dist[i][j] == float("inf"):
                    raise ValueError("disconnected")
                total += int(dist[i][j])
    return total


def triads_maxmin(alpha: Fraction, sense: str = "maximize") -> Hamiltonian:
    return Hamiltonian.max_min_pair(
        Fraction(alpha),
        StatisticSpec(StatisticKind.NON_EDGES),
        StatisticSpec(StatisticKind.TRIANGLES),
        sense=sense,
    )


def reference_node_bound(h: Hamiltonian) -> Callable[[Graph, Graph], int | None]:
    """The reference bnb's bound for `h`: a function of a partial assignment
    that bounds, on h's grid, the objective over every completion of it.

    `realized` has the decided-present edges, `optimistic` every undecided
    pair too; each statistic is monotone in the edge set, so takes its
    extreme at one of the two, chosen here once per term by the sign of
    its grid weight (a weight-0 term at `optimistic`, where a flow distance
    is finite if any completion's is).  Scored, the extremes bound the
    score, and under a floor their weighted sum bounds each completion's.
    At a leaf the bound is exact.  None means no completion scores: none
    reaches the floor, or none has a finite flow distance.
    """
    extremes = tuple(
        (read, spec.kind.increasing == (w > 0))
        for read, w, (_, spec) in zip(h.readers, h.grid_weights, h.terms)
    )

    def bound(realized: Graph, optimistic: Graph) -> int | None:
        try:
            return score(h, [read(optimistic if up else realized) for read, up in extremes])
        except DisconnectedGraphError:
            return None

    return bound


def reference_branch_and_bound(
    n: int,
    space: SampleSpace,
    h: Hamiltonian,
    incumbent: Graph | None = None,
    node_limit: int = 10_000_000,
) -> SolveResult:
    """`exact.branch_and_bound` as a plain loop over Graph pairs: each node
    holds its realized and optimistic graphs, derived from its parent's by
    one toggle, searches the optimistic graph for connectivity and reads
    every term at its extreme afresh.  It visits the same nodes in the same
    order, so its answer, node count and root bound are the referee's."""
    pairs = num_pairs(n)
    pair_list = all_pairs(n)
    symmetric = all(spec.kind.label_invariant for _, spec in h.terms)
    start = time.perf_counter()
    node_bound = reference_node_bound(h)
    best_graph, best_val = incumbent, None
    if incumbent is not None:
        best_val = score(h, grid_values(h, incumbent))
    bound_at_root = None
    nodes = 0
    limit_hit = False
    stack = [(0, Graph(n), Graph.complete(n))]
    # a 1-branch child shares its parent's optimistic graph, and the
    # parent is the pop just before it: that graph is connected already
    connected = None
    while stack:
        if nodes >= node_limit:
            limit_hit = True
            break
        depth, realized, optimistic = stack.pop()
        nodes += 1
        if space.density is not None:
            if realized.edge_count > space.density or optimistic.edge_count < space.density:
                continue
        if space.connected and optimistic is not connected:
            if not is_connected(optimistic):
                continue
            connected = optimistic
        bound = node_bound(realized, optimistic)
        if bound is None:
            continue
        if bound_at_root is None:
            bound_at_root = bound
        if best_val is not None and bound <= best_val:
            continue
        if depth == pairs:
            best_val, best_graph = bound, realized
            continue
        i, j = pair_list[depth]
        stack.append((depth + 1, realized, optimistic.toggled(i, j)))
        child = realized.toggled(i, j)
        if symmetric and (_breaks_lex_order(child.adjacency(), i, (2 << j) - 1)
                          or _breaks_lex_order(child.adjacency(), j, (2 << i) - 1)):
            continue
        stack.append((depth + 1, child, optimistic))
    status = "incumbent" if limit_hit else "infeasible" if best_graph is None else "optimal"
    return SolveResult.of(h, best_graph, best_val, status, nodes, start, bound_at_root)


def mc_flow_lp_value(g: Graph) -> float | None:
    """Minimum of the multicommodity-flow LP with edges fixed to g (HiGHS).

    Returns None when the LP is infeasible.  This is the route that does
    NOT go through BFS, so it can cross-validate the combinatorial
    flow-distance statistic.
    """
    import numpy as np
    from scipy.optimize import linprog

    from ergmax import lp

    n = g.n
    cs = lp.build_multicommodity_flow(n)
    x_vals = lp.edge_assignment(g)
    names = [v.name for v in cs.variables if v.name.startswith("fm_")]
    idx = {name: i for i, name in enumerate(names)}
    c = np.ones(len(names))  # total circulating flow
    A_eq, b_eq, A_ub, b_ub = [], [], [], []
    for row in cs.rows:
        coeffs = np.zeros(len(names))
        const = 0.0
        for name, coef in row.coeffs.items():
            if name in idx:
                coeffs[idx[name]] = float(coef)
            else:
                const += float(coef) * float(x_vals[name])
        rhs = float(row.rhs) - const
        if row.relation == "=":
            A_eq.append(coeffs)
            b_eq.append(rhs)
        elif row.relation == "<=":
            A_ub.append(coeffs)
            b_ub.append(rhs)
        else:
            A_ub.append(-coeffs)
            b_ub.append(-rhs)
    res = linprog(
        c,
        A_ub=np.array(A_ub),
        b_ub=np.array(b_ub),
        A_eq=np.array(A_eq),
        b_eq=np.array(b_eq),
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:  # infeasible
        return None
    assert res.status == 0, res.message
    return float(res.fun)


def solve_ir_with_milp(cs) -> tuple[float, dict[str, float]] | None:
    """Solve a whole constraint system with scipy's MILP (HiGHS).

    Acts as the external integer-programming solver the LP export is
    meant for.  Returns (objective, assignment) or None if infeasible.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    variables = cs.variables
    names = [v.name for v in variables]
    idx = {name: i for i, name in enumerate(names)}
    nv = len(names)
    sign = -1.0 if cs.objective_sense == "maximize" else 1.0
    c = np.zeros(nv)
    for name, coef in cs.objective.items():
        c[idx[name]] = sign * float(coef)
    integrality = np.array([1 if v.kind == "binary" else 0 for v in variables])
    lb = np.array(
        [0.0 if v.kind == "binary" else (-np.inf if v.lower is None else float(v.lower))
         for v in variables]
    )
    ub = np.array(
        [1.0 if v.kind == "binary" else (np.inf if v.upper is None else float(v.upper))
         for v in variables]
    )
    constraints = []
    for row in cs.rows:
        a = np.zeros(nv)
        for name, coef in row.coeffs.items():
            a[idx[name]] = float(coef)
        rhs = float(row.rhs)
        if row.relation == "<=":
            constraints.append(LinearConstraint(a, -np.inf, rhs))
        elif row.relation == ">=":
            constraints.append(LinearConstraint(a, rhs, np.inf))
        else:
            constraints.append(LinearConstraint(a, rhs, rhs))
    res = milp(c, constraints=constraints, integrality=integrality, bounds=Bounds(lb, ub))
    if res.status == 2:
        return None
    assert res.success, res.message
    return sign * res.fun, dict(zip(names, (float(x) for x in res.x)))


# -- constraint systems by name: one add_variable or add_row per variable or row


def edge_variables_by_name(cs: ConstraintSystem, n: int) -> None:
    """``lp.ensure_edge_variables``: one add_variable per edge name."""
    cs.meta.setdefault("n", n)
    if cs.meta["n"] != n:
        raise ValueError("constraint system already built for a different n")
    for i, j in all_pairs(n):
        if not cs.has_variable(lp.x_name(i, j)):
            cs.add_variable(lp.x_name(i, j), "binary")


def fixed_density_by_rows(n: int, d: int, cs: ConstraintSystem | None = None):
    cs = cs or ConstraintSystem("fixed_density")
    edge_variables_by_name(cs, n)
    cs.add_row("edge_count", {lp.x_name(i, j): 1 for i, j in all_pairs(n)}, "=", d)
    return cs


def triangle_indicators_by_rows(n: int, cs: ConstraintSystem | None = None):
    cs = cs or ConstraintSystem("triangle_indicators")
    edge_variables_by_name(cs, n)
    cs.meta["triangle_variant"] = "and"
    for i, j, k in itertools.combinations(range(n), 3):
        w = lp.w_name(i, j, k)
        xij, xjk, xik = lp.x_name(i, j), lp.x_name(j, k), lp.x_name(i, k)
        cs.add_variable(w, "binary")
        cs.add_row(f"tri_ub1_{i}_{j}_{k}", {w: 1, xij: -1}, "<=", 0)
        cs.add_row(f"tri_ub2_{i}_{j}_{k}", {w: 1, xjk: -1}, "<=", 0)
        cs.add_row(f"tri_ub3_{i}_{j}_{k}", {w: 1, xik: -1}, "<=", 0)
        cs.add_row(f"tri_lb_{i}_{j}_{k}", {xij: 1, xjk: 1, xik: 1, w: -1}, "<=", 2)
    return cs


def commodity_by_rows(cs: ConstraintSystem, n: int, source: int,
                      arc: Callable[[int, int], str], balance: str) -> None:
    """One commodity's arc variables and balance rows, n-1 units from `source`."""
    for i, j in all_pairs(n):
        cs.add_variable(arc(i, j), "continuous", lower=0)
        cs.add_variable(arc(j, i), "continuous", lower=0)
    for k in range(n):
        coeffs = {}
        for j in range(n):
            if j != k:
                coeffs[arc(k, j)] = 1
                coeffs[arc(j, k)] = -1
        cs.add_row(f"{balance}_{k}", coeffs, "=", n - 1 if k == source else -1)


def connectivity_flow_by_rows(n: int, cs: ConstraintSystem | None = None):
    cs = cs or ConstraintSystem("connectivity_flow")
    edge_variables_by_name(cs, n)
    cs.meta["flow_root"] = 0
    commodity_by_rows(cs, n, 0, lp.flow_name, "flow_balance")
    for i, j in all_pairs(n):
        cs.add_row(f"flow_cap_{i}_{j}",
                   {lp.flow_name(i, j): 1, lp.flow_name(j, i): 1, lp.x_name(i, j): -n}, "<=", 0)
    return cs


def multicommodity_flow_by_rows(n: int, cs: ConstraintSystem | None = None):
    cs = cs or ConstraintSystem("multicommodity_flow")
    edge_variables_by_name(cs, n)
    for h in range(n):
        commodity_by_rows(cs, n, h, lambda a, b, h=h: lp.mcflow_name(h, a, b),
                          f"mcflow_balance_{h}")
    for i, j in all_pairs(n):
        coeffs = {lp.mcflow_name(h, a, b): 1 for h in range(n) for a, b in ((i, j), (j, i))}
        coeffs[lp.x_name(i, j)] = -n * n
        cs.add_row(f"mcflow_cap_{i}_{j}", coeffs, "<=", 0)
    return cs


def maxmin_by_rows(n: int, alpha: Fraction, space: SampleSpace) -> ConstraintSystem:
    """``lp.build_maxmin``: maximize H below alpha * non-edges and (1 - alpha) * triangles."""
    alpha = Fraction(alpha)
    cs = ConstraintSystem("maxmin_nonedges_triangles")
    edge_variables_by_name(cs, n)
    triangle_indicators_by_rows(n, cs)
    if space.density is not None:
        fixed_density_by_rows(n, space.density, cs)
    if space.connected:
        connectivity_flow_by_rows(n, cs)
    cs.meta["space"] = space.label()
    pairs = num_pairs(n)
    cs.add_variable("H", "continuous", lower=0, upper=alpha * pairs)
    row = {lp.x_name(i, j): alpha for i, j in all_pairs(n)}
    cs.add_row("epi_non_edges", {**row, "H": 1}, "<=", alpha * pairs)
    row = {lp.w_name(i, j, k): alpha - 1 for i, j, k in itertools.combinations(range(n), 3)}
    cs.add_row("epi_triangles", {**row, "H": 1}, "<=", 0)
    cs.set_objective("maximize", {"H": 1})
    cs.meta["alpha"] = str(alpha)
    cs.meta["formulation"] = "maxmin_nonedges_triangles"
    return cs


def minmax_distance_by_rows(n: int, alpha: Fraction, delta,
                            space: SampleSpace) -> ConstraintSystem:
    """``lp.build_minmax_distance``: minimize H above alpha * physical distance
    and (1 - alpha) * total flow."""
    alpha = Fraction(alpha)
    cs = ConstraintSystem("minmax_distance")
    edge_variables_by_name(cs, n)
    multicommodity_flow_by_rows(n, cs)
    if space.density is not None:
        fixed_density_by_rows(n, space.density, cs)
    cs.meta["space"] = space.label()
    cs.add_variable("H", "continuous", lower=0)
    row = {lp.x_name(i, j): alpha * Fraction(delta[i][j]) for i, j in all_pairs(n)}
    cs.add_row("epi_physical", {**row, "H": -1}, "<=", 0)
    row = {lp.mcflow_name(h, a, b): 1 - alpha
           for h in range(n) for i, j in all_pairs(n) for a, b in ((i, j), (j, i))}
    cs.add_row("epi_flow", {**row, "H": -1}, "<=", 0)
    cs.set_objective("minimize", {"H": 1})
    cs.meta["alpha"] = str(alpha)
    cs.meta["formulation"] = "minmax_distance"
    return cs


def expanded(cs: ConstraintSystem) -> tuple[list, list]:
    """Every variable and every row of `cs` with its coefficients in order,
    as plain tuples, so that two systems compare term by term."""
    return ([(v.name, v.kind, v.lower, v.upper) for v in cs.variables],
            [(r.name, list(r.coeffs.items()), r.relation, r.rhs) for r in cs.rows])
