"""Exact maximization over graph spaces: brute force and branch-and-bound.

Both solvers score and compare on the objective's integer grid, scaled
once per Hamiltonian (see :class:`~ergmax.stats.Hamiltonian`): every
value, bound, floor test and incumbent is an exact Python int where
higher is better in either sense, so no comparison reads the sense.
The reported objective and root bound are divided back to Fractions in
one place, :meth:`SolveResult.of`.  So pruning decisions and reported
optima carry no floating-point ambiguity.  Brute force is the oracle for
everything else and is capped at n = 7 (2^21 graphs).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .graph import DisconnectedGraphError, Graph, all_pairs, is_connected, num_pairs
from .space import SampleSpace
from .stats import (
    Hamiltonian,
    StatisticKind,
    StatisticSpec,
    grid_values,
    score,
    statistic_values,
    unscaled,
)

BRUTE_FORCE_MAX_N = 7


@dataclass
class SolveResult:
    """Outcome of one solve: the graph, its exact objective, and telemetry."""

    graph: Graph | None
    objective: Fraction | None
    statistic_values: tuple[Fraction | int, ...]
    status: str  # 'optimal' | 'incumbent' | 'infeasible'
    nodes_explored: int
    wall_time: float
    bound_at_root: Fraction | None = None

    @classmethod
    def of(cls, h: Hamiltonian, graph: Graph | None, score: int | None, status: str,
           nodes: int, start: float, root: int | None = None) -> "SolveResult":
        """A solver's outcome on h's grid divided back, the one place that does
        it: `score` and the root bound `root` to exact objectives, and `graph`
        read for its raw statistics; timed from the perf_counter `start`."""
        values = () if graph is None else statistic_values(h, graph)
        return cls(graph, unscaled(h, score), values, status, nodes,
                   time.perf_counter() - start, unscaled(h, root))


@dataclass(frozen=True)
class StructuralBound:
    """Guaranteed triangle and edge counts of an optimal connected solution."""

    min_triangles: int
    min_edges: int


def structural_lower_bounds(n: int, alpha: Fraction) -> StructuralBound:
    """Lower bounds derived from the star-plus-chords construction.

    With Q = (n-1)(n-2)/2, the guaranteed triangle count is
    h = min(n-1, floor(alpha*Q)); the fractional value is floored because
    a partial chord contributes no triangle.  The star with h chords has
    Q-h non-edges and at least h triangles, and h <= alpha*Q gives
    alpha*(Q-h) >= (1-alpha)*h, so its value is at least (1-alpha)*h.
    When alpha < 1 a graph with fewer triangles scores less, so every
    optimum has at least h triangles.  At alpha = 1 the triangle weight
    is 0 and every connected graph is optimal, trees included, so h = 0.
    Some optimal solution then carries at least n-1+h edges.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    alpha = Fraction(alpha)
    if not (0 <= alpha <= 1):
        raise ValueError("alpha must lie in [0, 1]")
    frac_bound = alpha * (n - 2) * (n - 1) / 2
    h = min(n - 1, frac_bound.numerator // frac_bound.denominator) if alpha < 1 else 0
    return StructuralBound(min_triangles=h, min_edges=(n - 1) + h)


def available_chord_slots(n: int) -> int:
    """Distinct consecutive leaf pairs (circular order) around a star center."""
    if n <= 2:
        return 0
    if n == 3:
        return 1
    return n - 1


def star_with_chords(n: int, chords: int) -> Graph:
    """A star on n nodes plus `chords` edges between consecutive leaves.

    Every added chord closes a triangle through the center, so the result
    is connected with n-1+chords edges and at least `chords` triangles.
    """
    slots = available_chord_slots(n)
    if not (0 <= chords <= slots):
        raise ValueError(f"chords={chords} exceeds the {slots} available slots for n={n}")
    g = Graph.star(n, center=0)
    leaves = list(range(1, n))
    for t in range(chords):
        g = g.with_edge(leaves[t], leaves[(t + 1) % len(leaves)])
    return g


# ---------------------------------------------------------------------------
# brute force


def brute_force(
    n: int, space: SampleSpace, h: Hamiltonian
) -> tuple[SolveResult, tuple[Graph, ...]]:
    """Enumerate every graph in the space; return the optimum and all argmaxes.

    With a floor on `h`, only graphs whose weighted statistic sum reaches
    it compete.  Hard-capped at n = 7.  The argmax tuple is ordered by
    increasing edge bitset, and the result graph is its first element.
    """
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n = {BRUTE_FORCE_MAX_N}")
    space.validate_for(n)
    start = time.perf_counter()
    best: int | None = None
    argmax: list[Graph] = []
    evaluated = 0
    for bits in range(1 << num_pairs(n)):
        g = Graph(n, bits)
        if not space.admits(g):
            continue
        try:
            value = score(h, grid_values(h, g))
        except DisconnectedGraphError:
            # flow distance is undefined here; the graph is outside the
            # objective's domain, hence infeasible
            evaluated += 1
            continue
        if value is None:
            continue
        evaluated += 1
        if best is None or value > best:
            best = value
            argmax = [g]
        elif value == best:
            argmax.append(g)
    top = argmax[0] if argmax else None
    status = "infeasible" if top is None else "optimal"
    return SolveResult.of(h, top, best, status, evaluated, start), tuple(argmax)


# ---------------------------------------------------------------------------
# branch and bound


def _node_bound(h: Hamiltonian) -> Callable[[Graph, Graph], int | None]:
    """bnb's bound for `h`: a function of a partial assignment that bounds,
    on h's grid, the objective over every completion of it.

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


def _breaks_lex_order(rows: tuple[int, ...], x: int, columns: int) -> bool:
    """True when row x of the adjacency matrix is lexicographically above
    some earlier row over the decided `columns` (a bitmask, column 0 most
    significant), leaving out the columns of the two rows themselves.

    Every earlier row must be decided on those columns.  A graph none of
    whose rows is above an earlier one is a lex-leader in the sense of
    Codish, Miller, Prosser & Stuckey (Constraints 24, 2019): every
    isomorphism class holds one.
    """
    row = rows[x]
    for i in range(x):
        diff = (rows[i] ^ row) & columns & ~(1 << i | 1 << x)
        # the lowest set bit of diff is the first column where the rows differ
        if row & diff & -diff:
            return True
    return False


def branch_and_bound(
    n: int,
    space: SampleSpace,
    h: Hamiltonian,
    incumbent: Graph | None = None,
    node_limit: int = 10_000_000,
    time_limit: float = 300.0,
) -> SolveResult:
    """Depth-first search over edge variables in lexicographic order, 1-branch first.

    A node is pruned when its admissible bound cannot beat the incumbent,
    when the forced-absent pairs already disconnect the optimistic graph
    (undecided treated as present), when a fixed edge count has become
    unreachable, or when no completion reaches h's floor.  Exhausting
    node or time limits downgrades the status to 'incumbent'; it never
    mislabels a best-so-far as optimal.

    When every term is label-invariant, the 1-branch is not taken when it
    lifts a row of the adjacency matrix above an earlier one, so only
    lex-leaders are completed: each isomorphism class is searched once,
    and the graph returned may be a relabelling of another optimum.
    """
    space.validate_for(n)
    if any(s.kind is StatisticKind.FLOW_DISTANCE and w > 0
           for w, (_, s) in zip(h.grid_weights, h.terms)):
        # a flow term that scores more as it grows is bounded at `realized`, which
        # may be disconnected while some completion is connected: a wrong prune
        raise ValueError(
            "flow distance admits no finite optimistic maximum over partial assignments")
    pairs = num_pairs(n)
    pair_list = all_pairs(n)
    symmetric = all(spec.kind.label_invariant for _, spec in h.terms)
    start = time.perf_counter()

    node_bound = _node_bound(h)
    # values, bounds and the incumbent are ints on h's grid
    best_graph, best_val = incumbent, None
    if incumbent is not None:
        if incumbent.n != n or not space.admits(incumbent):
            raise ValueError("warm-start incumbent is infeasible for the space")
        best_val = score(h, grid_values(h, incumbent))
        if best_val is None:
            raise ValueError("warm-start incumbent violates the floor row")

    bound_at_root: int | None = None
    nodes = 0
    limit_hit = False
    # stack of (depth, realized, optimistic): pairs of rank below depth are
    # decided, the rest are absent from realized and present in optimistic;
    # the 1-branch is pushed last so it pops first
    stack: list[tuple[int, Graph, Graph]] = [(0, Graph(n), Graph.complete(n))]
    # a 1-branch child shares its parent's optimistic graph, and the
    # parent is the pop just before it: that graph is connected already
    connected: Graph | None = None
    while stack:
        if nodes >= node_limit or time.perf_counter() - start > time_limit:
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
            # a leaf: realized equals optimistic, the density and connectivity
            # checks above were exact, and its bound is its score, the best yet
            best_val, best_graph = bound, realized
            continue
        i, j = pair_list[depth]
        stack.append((depth + 1, realized, optimistic.toggled(i, j)))
        # pairs are decided in rank order, so the rows before i are decided,
        # row i up to column j and each row up to j up to column i.  A 0
        # never lifts a row; a 1 can lift only the two rows it is set in.
        child = realized.toggled(i, j)
        if symmetric and (_breaks_lex_order(child.adjacency(), i, (2 << j) - 1)
                          or _breaks_lex_order(child.adjacency(), j, (2 << i) - 1)):
            continue
        stack.append((depth + 1, child, optimistic))

    status = "incumbent" if limit_hit else "infeasible" if best_graph is None else "optimal"
    return SolveResult.of(h, best_graph, best_val, status, nodes, start, bound_at_root)


# ---------------------------------------------------------------------------
# two-stage robust solve


@dataclass
class TwoStageResult:
    p_star: Fraction | None
    p_star_objective: str  # 'maxmin' | 'linear'
    gamma: Fraction
    stage1: SolveResult
    stage2: SolveResult | None


def solve_two_stage(
    n: int,
    space: SampleSpace,
    terms: list[tuple[Fraction, StatisticSpec]],
    gamma: Fraction,
    p_star_objective: str = "maxmin",
    method: str = "brute",
    **bnb_options,
) -> TwoStageResult:
    """Stage 1 fixes the best attainable value; stage 2 re-solves the
    weighted-minimum objective subject to keeping the weighted sum within
    gamma of it.

    `p_star_objective` selects what stage 1 maximizes: the weighted
    minimum ('maxmin', default) or the weighted sum ('linear'); the
    choice is echoed in the result.  With method='bnb', `bnb_options`
    (limits, an incumbent) apply to stage 1 and, but for the incumbent,
    to stage 2, which starts from stage 1's graph when that meets the
    floor and is 'optimal' only if stage 1 is too.
    """
    gamma = Fraction(gamma)
    if not (0 <= gamma <= 1):
        raise ValueError("gamma must lie in [0, 1]")
    if p_star_objective not in ("maxmin", "linear"):
        raise ValueError("p_star_objective must be 'maxmin' or 'linear'")
    if method not in ("brute", "bnb"):
        raise ValueError("method must be 'brute' or 'bnb'")

    def solve(h: Hamiltonian, **options) -> SolveResult:
        if method == "brute":
            return brute_force(n, space, h)[0]
        return branch_and_bound(n, space, h, **(bnb_options | options))

    maxmin_h = Hamiltonian.max_min(terms)
    stage1 = solve(maxmin_h if p_star_objective == "maxmin" else Hamiltonian.linear(terms))
    if stage1.status == "infeasible" or stage1.objective is None:
        return TwoStageResult(None, p_star_objective, gamma, stage1, None)

    p_star = stage1.objective
    floored_h = dataclasses.replace(maxmin_h, floor=gamma * p_star)
    meets_floor = score(floored_h, grid_values(floored_h, stage1.graph)) is not None
    # stage 1's start may violate the floor, so stage 2 never inherits it
    stage2 = solve(floored_h, incumbent=stage1.graph if meets_floor else None)
    if stage2.status == "optimal" and stage1.status != "optimal":
        # the floor rests on an unproven p*, so stage 2's optimum is unproven too
        stage2.status = "incumbent"
    return TwoStageResult(p_star, p_star_objective, gamma, stage1, stage2)
