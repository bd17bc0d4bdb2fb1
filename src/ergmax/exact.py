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
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .graph import DisconnectedGraphError, Graph, all_pairs, joined_without, num_pairs
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
    ceiling: Fraction | None = None,
) -> SolveResult:
    """Depth-first search over edge variables in lexicographic order, 1-branch first.

    A node holds the adjacency rows of `realized`, its decided edges (the
    pairs of rank below its depth), and `optimistic`, the undecided pairs
    too, and each term's value at the one where it peaks (a weight-0 flow
    term at `optimistic`, finite if any completion's is), stepped from its
    parent's by the term's toggle step.  Only a leaf that beats the
    incumbent builds a Graph.

    A node is pruned when its admissible bound cannot beat the incumbent,
    when the forced-absent pairs already disconnect the optimistic graph,
    when a fixed edge count has become unreachable, or when no completion
    reaches h's floor.  Exhausting node or time limits downgrades the
    status to 'incumbent'; it never mislabels a best-so-far as optimal.

    A `ceiling` is an objective no graph in the space beats (an upper
    bound when maximizing, a lower bound when minimizing), such as a
    closed form's bound or a proven optimum over a larger space.  Each
    node's bound is capped at the last grid value not past it, and so is
    the reported root bound.  The cap prunes a node only once the
    incumbent has reached the ceiling, after which no leaf could have
    replaced it: status, objective and graph are those of the search
    without it, and no more nodes are explored.  A ceiling the warm
    start already beats is refused, since it is no bound.

    When every term is label-invariant, the 1-branch is not taken when it
    lifts a row of the adjacency matrix above an earlier one, so only
    lex-leaders are completed: each isomorphism class is searched once,
    and the graph returned may be a relabelling of another optimum.
    """
    space.validate_for(n)
    ups = [spec.kind.increasing == (w > 0) for w, (_, spec) in zip(h.grid_weights, h.terms)]
    if any(s.kind is StatisticKind.FLOW_DISTANCE and not up for up, (_, s) in zip(ups, h.terms)):
        # at a disconnected `realized`, a flow term that scores more as it grows would prune wrongly
        raise ValueError(
            "flow distance admits no finite optimistic maximum over partial assignments")
    pairs = num_pairs(n)
    pair_list = all_pairs(n)
    symmetric = all(spec.kind.label_invariant for _, spec in h.terms)
    start = time.perf_counter()

    # values, bounds and the incumbent are ints on h's grid
    best_graph, best_val = incumbent, None
    if incumbent is not None:
        if incumbent.n != n or not space.admits(incumbent):
            raise ValueError("warm-start incumbent is infeasible for the space")
        best_val = score(h, grid_values(h, incumbent))
        if best_val is None:
            raise ValueError("warm-start incumbent violates the floor row")
    # the best grid value not past the ceiling: higher is better on the grid in either sense
    cap = math.inf if ceiling is None else math.floor(Fraction(ceiling) * h.scale)
    if best_val is not None and best_val > cap:
        raise ValueError(f"the warm-start incumbent beats the ceiling {ceiling}, so it is no bound")

    # the root reads the terms, a 1-branch steps those read at realized, a 0-branch the rest
    adds = [(k, step) for k, step in enumerate(h.steppers) if not ups[k]]
    drops = [(k, step) for k, step in enumerate(h.steppers) if ups[k]]
    empty, complete = Graph(n), Graph.complete(n)
    values = [read(complete if up else empty) for read, up in zip(h.readers, ups)]

    bound_at_root, nodes, limit_hit = None, 0, False
    # stack of (depth, realized's bits and rows, optimistic's rows, the terms' values (None
    # if optimistic has no flow distance), a 0-branch's dropped pair); 1-branches pop first
    stack = [(0, 0, empty.adjacency(), complete.adjacency(), values, None)]
    while stack:
        if nodes >= node_limit or time.perf_counter() - start > time_limit:
            limit_hit = True
            break
        depth, bits, rows, opt_rows, values, dropped = stack.pop()
        nodes += 1
        if space.density is not None and not 0 <= space.density - bits.bit_count() <= pairs - depth:
            continue
        # optimistic is connected at the root and kept by a 1-branch; a 0-branch's is
        # when the dropped pair's ends share a neighbour or a search over it joins them
        if space.connected and dropped is not None:
            i, j = dropped
            if not opt_rows[i] & opt_rows[j] and not joined_without(opt_rows, i, j):
                continue
        if values is None or (bound := score(h, values)) is None:
            continue
        bound = min(bound, cap)
        if bound_at_root is None:
            bound_at_root = bound
        if best_val is not None and bound <= best_val:
            continue
        if depth == pairs:
            # a leaf: realized is optimistic, the checks above were exact, its bound is its score
            best_val, best_graph = bound, Graph(n, bits)
            continue
        i, j = pair_list[depth]
        child = list(opt_rows)
        child[i] ^= 1 << j
        child[j] ^= 1 << i
        stepped = values.copy()
        try:
            for k, step in drops:
                stepped[k] = step(opt_rows, i, j, False, values[k])
        except DisconnectedGraphError:
            stepped = None
        stack.append((depth + 1, bits, rows, tuple(child), stepped, pair_list[depth]))
        # pairs are decided in rank order, so the rows before i are decided,
        # row i up to column j and each row up to j up to column i.  A 0
        # never lifts a row; a 1 can lift only the two rows it is set in.
        child = list(rows)
        child[i] |= 1 << j
        child[j] |= 1 << i
        if symmetric and (_breaks_lex_order(child, i, (2 << j) - 1)
                          or _breaks_lex_order(child, j, (2 << i) - 1)):
            continue
        stepped = values.copy()
        for k, step in adds:
            stepped[k] = step(rows, i, j, True, values[k])
        stack.append((depth + 1, bits | 1 << depth, tuple(child), opt_rows, stepped, None))

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
    (limits, an incumbent, a ceiling) apply to both stages but for two.
    The incumbent warms stage 1 only: stage 2 starts from stage 1's graph
    when that meets the floor, and is 'optimal' only if stage 1 is too.
    A `ceiling` bounds the weighted-minimum objective, so stage 1 gets it
    only when stage 1 is 'maxmin'.  Stage 2 maximizes that objective over
    part of the space, so it gets the lower of the ceiling and, when
    stage 1 is a proven 'maxmin' optimum, p*.  With weights >= 0 stage
    1's graph then meets the floor and reaches p*, so stage 2 proves it
    at its root.
    """
    gamma = Fraction(gamma)
    if not (0 <= gamma <= 1):
        raise ValueError("gamma must lie in [0, 1]")
    if p_star_objective not in ("maxmin", "linear"):
        raise ValueError("p_star_objective must be 'maxmin' or 'linear'")
    if method not in ("brute", "bnb"):
        raise ValueError("method must be 'brute' or 'bnb'")
    ceiling = bnb_options.pop("ceiling", None)

    def solve(h: Hamiltonian, **options) -> SolveResult:
        if method == "brute":
            return brute_force(n, space, h)[0]
        return branch_and_bound(n, space, h, **(bnb_options | options))

    maxmin_h = Hamiltonian.max_min(terms)
    if p_star_objective == "maxmin":
        stage1 = solve(maxmin_h, ceiling=ceiling)
    else:
        stage1 = solve(Hamiltonian.linear(terms))
    if stage1.status == "infeasible" or stage1.objective is None:
        return TwoStageResult(None, p_star_objective, gamma, stage1, None)

    p_star = stage1.objective
    if p_star_objective == "maxmin" and stage1.status == "optimal":
        ceiling = p_star if ceiling is None else min(ceiling, p_star)
    floored_h = dataclasses.replace(maxmin_h, floor=gamma * p_star)
    meets_floor = score(floored_h, grid_values(floored_h, stage1.graph)) is not None
    # stage 1's start may violate the floor, so stage 2 never inherits it
    stage2 = solve(floored_h, incumbent=stage1.graph if meets_floor else None, ceiling=ceiling)
    if stage2.status == "optimal" and stage1.status != "optimal":
        # the floor rests on an unproven p*, so stage 2's optimum is unproven too
        stage2.status = "incumbent"
    return TwoStageResult(p_star, p_star_objective, gamma, stage1, stage2)
