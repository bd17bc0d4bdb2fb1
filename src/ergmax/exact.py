"""Exact maximization over graph spaces: brute force and branch-and-bound.

Both solvers compare objectives with exact rational arithmetic, so
pruning decisions and reported optima carry no floating-point
ambiguity.  Brute force is the oracle for everything else and is capped
at n = 7 (2^21 graphs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .graph import DisconnectedGraphError, Graph, count_triangles, is_connected, num_pairs
from .space import SampleSpace
from .stats import (
    Hamiltonian,
    StatisticKind,
    StatisticSpec,
    combine,
    eval_hamiltonian,
    improves,
    s_flow_distance,
    s_physical_distance,
    statistic_values,
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


@dataclass(frozen=True)
class StructuralBound:
    """Guaranteed triangle and edge counts of an optimal connected solution."""

    min_triangles: int
    min_edges: int


def structural_lower_bounds(n: int, alpha: Fraction) -> StructuralBound:
    """Lower bounds derived from the star-plus-chords construction.

    The guaranteed triangle count is min(n-1, floor(alpha*(n-2)*(n-1)/2));
    the fractional value is floored because a partial chord contributes
    no triangle.  Optimal solutions then carry at least n-1+h edges.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    alpha = Fraction(alpha)
    if not (0 <= alpha <= 1):
        raise ValueError("alpha must lie in [0, 1]")
    frac_bound = alpha * (n - 2) * (n - 1) / 2
    h = min(n - 1, frac_bound.numerator // frac_bound.denominator)
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
        a = leaves[t]
        b = leaves[(t + 1) % len(leaves)]
        g = g.with_edge(min(a, b), max(a, b))
    return g


# ---------------------------------------------------------------------------
# brute force


def _iter_space(n: int, space: SampleSpace) -> Iterator[Graph]:
    pairs = num_pairs(n)
    for bits in range(1 << pairs):
        g = Graph(n, bits)
        if space.admits(g):
            yield g


def brute_force(
    n: int,
    space: SampleSpace,
    h: Hamiltonian,
    extra_filter: Callable[[Graph], bool] | None = None,
) -> tuple[SolveResult, tuple[Graph, ...]]:
    """Enumerate every graph in the space; return the optimum and all argmaxes.

    Hard-capped at n = 7.  The argmax tuple is ordered by increasing edge
    bitset, and the result graph is its first element.
    """
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n = {BRUTE_FORCE_MAX_N}")
    space.validate_for(n)
    start = time.perf_counter()
    best: Fraction | None = None
    argmax: list[Graph] = []
    evaluated = 0
    for g in _iter_space(n, space):
        if extra_filter is not None and not extra_filter(g):
            continue
        evaluated += 1
        try:
            value = eval_hamiltonian(h, g)
        except DisconnectedGraphError:
            # flow distance is undefined here; the graph is outside the
            # objective's domain, hence infeasible
            continue
        if best is None or improves(value, best, h.sense):
            best = value
            argmax = [g]
        elif value == best:
            argmax.append(g)
    elapsed = time.perf_counter() - start
    if best is None:
        return (
            SolveResult(None, None, (), "infeasible", evaluated, elapsed),
            (),
        )
    top = argmax[0]
    return (
        SolveResult(
            top, best, statistic_values(h, top), "optimal", evaluated, elapsed
        ),
        tuple(argmax),
    )


# ---------------------------------------------------------------------------
# branch and bound


class _Infeasible(Exception):
    """No completion of the current partial assignment is feasible."""


def _statistic_extreme(
    spec: StatisticSpec,
    n: int,
    realized: Graph,
    optimistic: Graph,
    want_max: bool,
) -> Fraction | int:
    """Best-case statistic value over all completions of a partial assignment.

    `realized` has only the decided-present edges; `optimistic` also has
    every undecided pair present.
    """
    kind = spec.kind
    if kind is StatisticKind.NON_EDGES:
        pairs = num_pairs(n)
        return pairs - (realized.edge_count if want_max else optimistic.edge_count)
    if kind is StatisticKind.TRIANGLES:
        return count_triangles(optimistic if want_max else realized)
    if kind is StatisticKind.PHYSICAL_DISTANCE:
        assert spec.delta is not None
        return s_physical_distance(optimistic if want_max else realized, spec.delta)
    if kind is StatisticKind.FLOW_DISTANCE:
        if want_max:
            raise ValueError(
                "flow distance admits no finite optimistic maximum over partial assignments"
            )
        if not is_connected(optimistic):
            raise _Infeasible
        return s_flow_distance(optimistic)
    raise ValueError(f"unknown statistic kind {kind!r}")


def _node_bound(h: Hamiltonian, n: int, realized: Graph, optimistic: Graph) -> Fraction:
    """Admissible objective bound over every completion of a partial assignment."""
    maximize = h.sense == "maximize"
    weighted = []
    for theta, spec in h.terms:
        s = _statistic_extreme(spec, n, realized, optimistic, (theta >= 0) == maximize)
        weighted.append(theta * Fraction(s))
    return combine(h, weighted)


def branch_and_bound(
    n: int,
    space: SampleSpace,
    h: Hamiltonian,
    incumbent: Graph | None = None,
    node_limit: int = 10_000_000,
    time_limit: float = 300.0,
    floor_terms: tuple[tuple[Fraction, StatisticSpec], ...] | None = None,
    floor_value: Fraction | None = None,
) -> SolveResult:
    """Depth-first search over edge variables in lexicographic order, 1-branch first.

    A node is pruned when its admissible bound cannot beat the incumbent,
    when the forced-absent pairs already disconnect the optimistic graph
    (undecided treated as present), or when a fixed edge count has become
    unreachable.  `floor_terms`/`floor_value` add the second-stage
    requirement that the weighted statistic sum stay at or above the
    floor.  Exhausting node or time limits downgrades the status to
    'incumbent'; it never mislabels a best-so-far as optimal.
    """
    space.validate_for(n)
    if (floor_terms is None) != (floor_value is None):
        raise ValueError("floor_terms and floor_value must be given together")
    floor_h = None if floor_terms is None else Hamiltonian.linear(list(floor_terms))
    pairs = num_pairs(n)
    full = (1 << pairs) - 1
    start = time.perf_counter()

    best_graph: Graph | None = None
    best_val: Fraction | None = None
    if incumbent is not None:
        if incumbent.n != n or not space.admits(incumbent):
            raise ValueError("warm-start incumbent is infeasible for the space")
        if floor_h is not None and eval_hamiltonian(floor_h, incumbent) < floor_value:
            raise ValueError("warm-start incumbent violates the floor row")
        best_graph = incumbent
        best_val = eval_hamiltonian(h, incumbent)

    bound_at_root: Fraction | None = None
    nodes = 0
    limit_hit = False
    # stack of (depth, included_bits); the 1-branch is pushed last so it pops first
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        if nodes >= node_limit or time.perf_counter() - start > time_limit:
            limit_hit = True
            break
        depth, included = stack.pop()
        nodes += 1
        undecided = pairs - depth
        included_count = included.bit_count()
        if space.density is not None:
            if included_count > space.density or included_count + undecided < space.density:
                continue
        realized = Graph(n, included)
        optimistic = Graph(n, included | (full >> depth << depth))
        if space.connected and not is_connected(optimistic):
            continue
        if depth == pairs:
            if space.density is not None and included_count != space.density:
                continue
            if space.connected and not is_connected(realized):
                continue
            try:
                if floor_h is not None and eval_hamiltonian(floor_h, realized) < floor_value:
                    continue
                value = eval_hamiltonian(h, realized)
            except (_Infeasible, DisconnectedGraphError):
                continue
            if best_val is None or improves(value, best_val, h.sense):
                best_val = value
                best_graph = realized
            continue
        try:
            bound = _node_bound(h, n, realized, optimistic)
            if floor_h is not None and _node_bound(floor_h, n, realized, optimistic) < floor_value:
                continue
        except _Infeasible:
            continue
        if bound_at_root is None:
            bound_at_root = bound
        if best_val is not None and not improves(bound, best_val, h.sense):
            continue
        stack.append((depth + 1, included))
        stack.append((depth + 1, included | (1 << depth)))

    elapsed = time.perf_counter() - start
    if best_graph is None:
        status = "incumbent" if limit_hit else "infeasible"
        return SolveResult(None, None, (), status, nodes, elapsed, bound_at_root)
    status = "incumbent" if limit_hit else "optimal"
    return SolveResult(
        best_graph,
        best_val,
        statistic_values(h, best_graph),
        status,
        nodes,
        elapsed,
        bound_at_root,
    )


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
    choice is echoed in the result.
    """
    gamma = Fraction(gamma)
    if not (0 <= gamma <= 1):
        raise ValueError("gamma must lie in [0, 1]")
    if p_star_objective not in ("maxmin", "linear"):
        raise ValueError("p_star_objective must be 'maxmin' or 'linear'")
    if method not in ("brute", "bnb"):
        raise ValueError("method must be 'brute' or 'bnb'")
    terms_t = tuple((Fraction(th), sp) for th, sp in terms)
    linear_h = Hamiltonian.linear(list(terms_t))
    stage1_h = Hamiltonian.max_min(list(terms_t)) if p_star_objective == "maxmin" else linear_h
    if method == "brute":
        stage1, _ = brute_force(n, space, stage1_h)
    else:
        stage1 = branch_and_bound(n, space, stage1_h, **bnb_options)
    if stage1.status == "infeasible" or stage1.objective is None:
        return TwoStageResult(None, p_star_objective, gamma, stage1, None)

    p_star = stage1.objective
    floor = gamma * p_star
    stage2_h = Hamiltonian.max_min(list(terms_t))
    if method == "brute":
        stage2, _ = brute_force(
            n, space, stage2_h, extra_filter=lambda g: eval_hamiltonian(linear_h, g) >= floor
        )
    else:
        stage2 = branch_and_bound(
            n, space, stage2_h, floor_terms=terms_t, floor_value=floor, **bnb_options
        )
    return TwoStageResult(p_star, p_star_objective, gamma, stage1, stage2)
