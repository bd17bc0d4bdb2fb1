"""Referees for the integer grid the solvers score on.

Every solver scores on its Hamiltonian's integer grid and divides back
once.  These tests re-run brute force, branch-and-bound and first-improve
local search in plain ``Fraction`` arithmetic, with statistics from the
independent oracles of ``helpers``, on weights whose denominators share
no factor and distances on mixed grids, and ask for the same answers and
the same amount of work.
"""

from __future__ import annotations

import dataclasses
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmax import Graph, Hamiltonian, SampleSpace, StatisticKind, StatisticSpec
from ergmax.exact import _breaks_lex_order, branch_and_bound, brute_force, solve_two_stage
from ergmax.graph import all_pairs, num_pairs
from ergmax.local_search import first_improve
from ergmax.stats import HamiltonianForm, eval_hamiltonian, parse_delta

from helpers import (
    iter_graphs,
    ordered_hop_sum,
    random_connected_graph,
    triads_maxmin,
    triangle_count_by_triples,
    union_find_connected,
)

WEIGHTS = (Fraction(2, 7), Fraction(5, 11), Fraction(1, 3))
SIGNED_WEIGHTS = (Fraction(0), Fraction(2, 7), Fraction(-5, 11), Fraction(1, 3), Fraction(-1))
ENTRIES = ("1/3", "0.25", "1", "2", "3")
SPACES = (SampleSpace.connected_graphs(), SampleSpace.all_graphs())


def reference_values(terms, g):
    """Raw statistic values from the oracles; None off the flow domain."""
    values = []
    for _, spec in terms:
        if spec.kind is StatisticKind.NON_EDGES:
            values.append(num_pairs(g.n) - g.edge_count)
        elif spec.kind is StatisticKind.TRIANGLES:
            values.append(triangle_count_by_triples(g))
        elif spec.kind is StatisticKind.PHYSICAL_DISTANCE:
            values.append(sum((spec.delta[i][j] for i, j in g.edges()), start=Fraction(0)))
        elif not union_find_connected(g):
            return None
        else:
            values.append(ordered_hop_sum(g))
    return values


def reference_score(h, values):
    weighted = [theta * v for (theta, _), v in zip(h.terms, values)]
    if h.floor is not None and sum(weighted) < h.floor:
        return None
    if h.form is HamiltonianForm.LINEAR:
        return sum(weighted, start=Fraction(0))
    return min(weighted) if h.sense == "maximize" else max(weighted)


def reference_value(h, terms, g):
    values = reference_values(terms, g)
    return None if values is None else reference_score(h, values)


def better(a, b, sense):
    return a > b if sense == "maximize" else a < b


def answer(result):
    bits = None if result.graph is None else result.graph.bits
    return result.objective, bits, result.status, result.nodes_explored, result.statistic_values


def reference_brute(n, space, h):
    best, top, evaluated = None, None, 0
    for g in iter_graphs(n):
        if not space.admits(g):
            continue
        values = reference_values(h.terms, g)
        if values is None:
            evaluated += 1
            continue
        value = reference_score(h, values)
        if value is None:
            continue
        evaluated += 1
        if best is None or better(value, best, h.sense):
            best, top = value, g
    if top is None:
        return None, None, "infeasible", evaluated, ()
    return best, top.bits, "optimal", evaluated, tuple(reference_values(h.terms, top))


def reference_bnb(n, space, h):
    """branch_and_bound's search, with every bound a Fraction from the oracles."""
    maximize = h.sense == "maximize"
    pairs = all_pairs(n)
    symmetric = all(spec.kind.label_invariant for _, spec in h.terms)
    best, top, nodes = None, None, 0
    stack = [(0, Graph(n), Graph.complete(n))]
    while stack:
        depth, realized, optimistic = stack.pop()
        nodes += 1
        if space.connected and not union_find_connected(optimistic):
            continue
        extremes = [
            optimistic if spec.kind.increasing == ((theta >= 0) == maximize) else realized
            for theta, spec in h.terms
        ]
        values = [reference_values([term], g) for term, g in zip(h.terms, extremes)]
        bound = None if None in values else reference_score(h, [v for [v] in values])
        if bound is None:
            continue
        if depth == len(pairs):
            if best is None or better(bound, best, h.sense):
                best, top = bound, realized
            continue
        if best is not None and not better(bound, best, h.sense):
            continue
        i, j = pairs[depth]
        stack.append((depth + 1, realized, optimistic.toggled(i, j)))
        child = realized.toggled(i, j)
        if symmetric and (_breaks_lex_order(child.adjacency(), i, (2 << j) - 1)
                          or _breaks_lex_order(child.adjacency(), j, (2 << i) - 1)):
            continue
        stack.append((depth + 1, child, optimistic))
    if top is None:
        return None, None, "infeasible", nodes, ()
    return best, top.bits, "optimal", nodes, tuple(reference_values(h.terms, top))


# whether a statistic rises (or else falls) as edges are added: triangles and
# the physical distance, a sum of nonnegative distances, rise; non-edges and
# hop counts fall
RISES_WITH_AN_EDGE = {
    StatisticKind.NON_EDGES: False,
    StatisticKind.TRIANGLES: True,
    StatisticKind.PHYSICAL_DISTANCE: True,
    StatisticKind.FLOW_DISTANCE: False,
}


def helpful_directions(h, g, objective):
    """{added: whether a toggle that adds (True) or removes (False) an edge of
    g may better `objective`}: a weighted min (max when minimizing) betters
    only when every term at it moves the right way, a zero weight never
    moves, and the non-edge count moves by exactly one, so its term must
    better `objective` one step later."""
    helpful = {True: True, False: True}
    if h.form is HamiltonianForm.LINEAR:
        return helpful
    maximize = h.sense == "maximize"
    for (theta, spec), v in zip(h.terms, reference_values(h.terms, g)):
        for added in (True, False):
            if spec.kind is StatisticKind.NON_EDGES:
                helpful[added] &= better(theta * (v - 1 if added else v + 1), objective, h.sense)
            elif theta * v == objective:
                rises = (theta > 0) == RISES_WITH_AN_EDGE[spec.kind]  # theta·v, with an edge added
                helpful[added] &= theta != 0 and (rises == added) == maximize
    return helpful


def reference_first_improve(start, h, space):
    """first_improve's walk in plain Fractions: each scan scores every
    toggled graph from scratch, in rank order, and takes the first that betters.

    Every toggle is scored, but only those in a direction that may help
    are counted, as first_improve scores only those: a ruled-out toggle
    that improved would send this walk elsewhere."""
    g, objective, evaluations = start, reference_value(h, h.terms, start), 0
    improved = True
    while improved:
        improved = False
        helpful = helpful_directions(h, g, objective)
        for i, j in all_pairs(start.n):
            toggled = g.toggled(i, j)
            value = reference_value(h, h.terms, toggled)
            if value is None or not space.admits(toggled):
                continue
            evaluations += helpful[not g.has_edge(i, j)]
            if better(value, objective, h.sense):
                g, objective, improved = toggled, value, True
                break
    return objective, g.bits, "incumbent", evaluations, tuple(reference_values(h.terms, g))


@st.composite
def mixed_grid_delta(draw, n):
    """A distance matrix read from text whose entries mix thirds, quarters and ints."""
    upper = {(i, j): draw(st.sampled_from(ENTRIES)) for i, j in all_pairs(n)}
    text = f"{n}\n" + "".join(
        " ".join("0" if i == j else upper[min(i, j), max(i, j)] for j in range(n)) + "\n"
        for i in range(n)
    )
    return parse_delta(io.StringIO(text))


@st.composite
def problems(draw, weights=WEIGHTS):
    n = draw(st.integers(3, 5), label="n")
    delta = draw(mixed_grid_delta(n), label="delta")
    kinds = draw(st.lists(st.sampled_from(StatisticKind), min_size=1, max_size=3), label="kinds")
    terms = [
        (draw(st.sampled_from(weights)),
         StatisticSpec(kind, delta if kind is StatisticKind.PHYSICAL_DISTANCE else None))
        for kind in kinds
    ]
    form = draw(st.sampled_from(HamiltonianForm), label="form")
    sense = draw(st.sampled_from(["maximize", "minimize"]), label="sense")
    h = Hamiltonian(form, tuple(terms), sense)
    if sense == "maximize" and draw(st.booleans(), label="floored"):
        floor = draw(st.builds(Fraction, st.integers(0, 60), st.integers(1, 13)), label="floor")
        h = dataclasses.replace(h, floor=floor)
    return n, draw(st.sampled_from(SPACES), label="space"), h


def flow_maximized(h):
    # bnb refuses a flow term whose optimum it would take at the realized graph
    return any(s.kind is StatisticKind.FLOW_DISTANCE and (t >= 0) == (h.sense == "maximize")
               for t, s in h.terms)


@settings(max_examples=150, deadline=None)
@given(problems(), st.integers(0, 2**16))
def test_every_solver_matches_a_fraction_reference(problem, seed):
    n, space, h = problem
    assert answer(brute_force(n, space, h)[0]) == reference_brute(n, space, h)
    if not flow_maximized(h):
        assert answer(branch_and_bound(n, space, h)) == reference_bnb(n, space, h)
    if h.floor is None:
        start = random_connected_graph(n, random.Random(seed))
        result = first_improve(start, h, space)
        assert answer(result) == reference_first_improve(start, h, space)


@settings(max_examples=40, deadline=None)
@given(problems(), st.sampled_from([Fraction(3, 7), Fraction(13, 5), Fraction(1, 1000), 11]),
       st.integers(0, 2**16))
def test_scaling_every_weight_by_c_scales_the_optimum_by_c(problem, c, seed):
    n, space, h = problem
    scaled = dataclasses.replace(
        h, terms=tuple((c * t, s) for t, s in h.terms),
        floor=None if h.floor is None else c * h.floor)

    def same_work(a, b):
        assert (a.objective is None) == (b.objective is None)
        if a.objective is not None:
            assert b.objective == c * a.objective
        assert (a.graph, a.status, a.nodes_explored, a.statistic_values) == (
            b.graph, b.status, b.nodes_explored, b.statistic_values)

    same_work(brute_force(n, space, h)[0], brute_force(n, space, scaled)[0])
    if not flow_maximized(h):
        same_work(branch_and_bound(n, space, h), branch_and_bound(n, space, scaled))
    if h.floor is None:
        start = random_connected_graph(n, random.Random(seed))
        same_work(first_improve(start, h, space), first_improve(start, scaled, space))


def weighted_sum(h, g):
    return sum(theta * v for (theta, _), v in zip(h.terms, reference_values(h.terms, g)))


@pytest.mark.parametrize("method", ["brute", "bnb"])
def test_a_floor_off_the_grid_admits_exactly_the_graphs_that_reach_it(method):
    # stage 1 maximizes the weighted sum, so p* is the complete graph's 50/7
    # and the floor γ·p* = 50/21 binds: L = 7 puts it between two grid points
    n, gamma = 5, Fraction(1, 3)
    h = triads_maxmin(Fraction(2, 7))
    space = SampleSpace.connected_graphs()
    sums = {g: weighted_sum(h, g) for g in iter_graphs(n) if space.admits(g)}
    two = solve_two_stage(n, space, list(h.terms), gamma, p_star_objective="linear", method=method)
    assert two.p_star == max(sums.values())
    floor = gamma * two.p_star
    assert (floor * h.scale).denominator != 1
    floored = dataclasses.replace(h, floor=floor)
    assert floored.grid_floor == math.ceil(floor * h.scale)
    on = min((g for g in sums if sums[g] >= floor), key=sums.get)
    below = max((g for g in sums if sums[g] < floor), key=sums.get)
    assert eval_hamiltonian(floored, on) == reference_value(h, h.terms, on)
    assert eval_hamiltonian(floored, below) is None
    # a graph exactly on a floor is admitted, and the nearest one below it refused
    exact = dataclasses.replace(h, floor=sums[on])
    assert eval_hamiltonian(exact, on) == reference_value(h, h.terms, on)
    assert eval_hamiltonian(exact, below) is None
    # stage 2 keeps exactly the graphs whose weighted sum reaches γ·p*
    expected = max(reference_value(h, h.terms, g) for g in sums if sums[g] >= floor)
    assert (two.stage2.status, two.stage2.objective) == ("optimal", expected)
    assert sums[two.stage2.graph] >= floor


def mirrored(h):
    """h with every weight negated and the sense flipped: the same objective, negated."""
    sense = "minimize" if h.sense == "maximize" else "maximize"
    return Hamiltonian(h.form, tuple((-t, s) for t, s in h.terms), sense)


def negated(value):
    return None if value is None else -value


@settings(max_examples=150, deadline=None)
@given(problems(SIGNED_WEIGHTS), st.integers(0, 2**16))
def test_a_mirrored_objective_is_solved_alike_with_its_value_negated(problem, seed):
    # zero weights and flow terms are drawn, so every solver must treat a
    # term's direction alike whether it comes from its weight or the sense
    n, space, h = problem
    h = dataclasses.replace(h, floor=None)
    start = random_connected_graph(n, random.Random(seed))
    solvers = {
        "brute": lambda h: brute_force(n, space, h)[0],
        "bnb": lambda h: branch_and_bound(n, space, h),
        "first_improve": lambda h: first_improve(start, h, space),
    }
    for name, solve in solvers.items():
        outcomes = []
        for variant in (h, mirrored(h)):
            try:
                result = solve(variant)
            except ValueError as exc:
                outcomes.append(str(exc))
                continue
            outcomes.append((result.status, result.graph, result.nodes_explored,
                             result.statistic_values, result.objective, result.bound_at_root))
        if isinstance(outcomes[0], tuple) and isinstance(outcomes[1], tuple):
            *same, objective, root = outcomes[1]
            outcomes[1] = (*same, negated(objective), negated(root))
        assert outcomes[0] == outcomes[1], name
