from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmax import (
    Graph,
    Hamiltonian,
    SampleSpace,
    StatisticKind,
    StatisticSpec,
    branch_and_bound,
    brute_force,
    eval_hamiltonian,
    random_unit_square_delta,
)
from ergmax.frontier import distance_interval, witness
from ergmax.graph import all_pairs, num_pairs
from ergmax.reporting import ExperimentSpec, hamiltonian_for, interval_for

from helpers import triangle_count_by_triples, triads_maxmin, union_find_connected
from test_integer_scale import mixed_grid_delta

ALPHAS = [Fraction(k, 10) for k in (0, 1, 3, 5, 7, 9, 10)]
SPACES = [SampleSpace.connected_graphs(), SampleSpace.all_graphs()]


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
def test_witness_scores_the_brute_force_optimum_up_to_six_nodes(space, alpha):
    h = triads_maxmin(alpha)
    for n in range(2, 7):
        optimum, _ = brute_force(n, space, h)
        assert eval_hamiltonian(h, witness(n, alpha, space.connected)) == optimum.objective, n


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("n", [7, 8])
def test_connected_witness_scores_the_proven_bnb_optimum(n, alpha):
    h = triads_maxmin(alpha)
    g = witness(n, alpha, connected=True)
    result = branch_and_bound(n, SampleSpace.connected_graphs(), h, incumbent=g)
    assert result.status == "optimal"
    assert eval_hamiltonian(h, g) == result.objective


def full_sweep(n: int, alpha: Fraction, connected: bool) -> tuple[int, int]:
    """(m, KK(e)) of the smallest core edge count e scoring best, by scoring
    every e from 0 to n(n-1)/2."""
    pairs = num_pairs(n)
    scored = []
    for e in range(pairs + 1):
        s = max(k for k in range(1, n + 1) if comb(k, 2) <= e)
        r = e - comb(s, 2)
        m = e + n - s - (r > 0) if connected else e
        t = comb(s, 3) + comb(r, 2)
        scored.append((min(alpha * (pairs - m), (1 - alpha) * t), -e, m, t))
    _, _, m, t = max(scored)
    return m, t


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.fractions(min_value=0, max_value=1, max_denominator=20),
    st.booleans(),
)
def test_witness_lies_in_its_space_with_the_counts_the_full_sweep_picks(n, alpha, connected):
    g = witness(n, alpha, connected)
    assert g.n == n
    assert union_find_connected(g) or not connected
    assert (g.edge_count, triangle_count_by_triples(g)) == full_sweep(n, alpha, connected)


def test_witness_rejects_an_alpha_outside_the_unit_interval():
    with pytest.raises(ValueError, match="alpha must lie in"):
        witness(5, Fraction(11, 10), connected=True)


# -- the distance model's interval ---------------------------------------------

FLOW = StatisticSpec(StatisticKind.FLOW_DISTANCE)


def distance_model(delta, alpha: Fraction, scale: int = 1) -> Hamiltonian:
    physical = StatisticSpec(StatisticKind.PHYSICAL_DISTANCE,
                             tuple(tuple(scale * d for d in row) for row in delta))
    return Hamiltonian.max_min_pair(alpha, physical, FLOW, sense="minimize")


def bound_over_every_edge_count(h: Hamiltonian) -> Fraction:
    """The lower bound's formula, min over m >= n - 1 of max(alpha·S_m,
    (1 - alpha)·2(2P - m)), with every m scored in Fractions."""
    (alpha, physical), (beta, _) = h.terms
    n = len(physical.delta)
    pairs = num_pairs(n)
    smallest = sorted(physical.delta[i][j] for i in range(n) for j in range(i + 1, n))
    return min(max(alpha * sum(smallest[:m]), beta * 2 * (2 * pairs - m))
               for m in range(n - 1, pairs + 1))


def witness_by_full_sweep(h: Hamiltonian) -> tuple[Fraction, Graph]:
    """The best star plus cheapest avoiding pairs, the lowest centre and then
    the fewest pairs on ties, by scoring every centre and pair count in
    Fractions."""
    (alpha, physical), (beta, _) = h.terms
    delta = physical.delta
    n = len(delta)
    pairs = num_pairs(n)
    best = None
    for c in range(n):
        avoiding = sorted((delta[i][j], i, j) for i in range(n) for j in range(i + 1, n)
                          if c not in (i, j))
        for k in range(len(avoiding) + 1):
            value = max(alpha * (sum(delta[c]) + sum(d for d, _, _ in avoiding[:k])),
                        beta * 2 * (2 * pairs - (n - 1) - k))
            if best is None or value < best[0]:
                edges = [(c, v) for v in range(n) if v != c] + [(i, j) for _, i, j in avoiding[:k]]
                best = value, Graph.from_edges(n, edges)
    return best


def assert_interval_holds(h: Hamiltonian, optimum: Fraction | None = None):
    lower, value, g = distance_interval(h)
    assert union_find_connected(g)
    assert eval_hamiltonian(h, g) == value
    assert (value, g) == witness_by_full_sweep(h)
    assert lower == bound_over_every_edge_count(h)
    assert lower <= value
    if optimum is not None:
        assert lower <= optimum <= value


@pytest.mark.parametrize("scale", [1, 20])
@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_distance_interval_brackets_the_brute_force_optimum(n, space, scale):
    for seed in (1, 2, 3):
        delta = random_unit_square_delta(n, seed)
        for alpha in ALPHAS:
            h = distance_model(delta, alpha, scale)
            optimum, _ = brute_force(n, space, h)
            assert_interval_holds(h, optimum.objective)


@pytest.mark.parametrize("scale, alpha", [
    (1, Fraction(7, 10)), (20, Fraction(7, 10)), (20, Fraction(1, 2)), (20, Fraction(3, 10))])
def test_distance_interval_brackets_the_brute_force_optimum_at_six_nodes(scale, alpha):
    h = distance_model(random_unit_square_delta(6, 6), alpha, scale)
    optimum, _ = brute_force(6, SampleSpace.connected_graphs(), h)
    assert_interval_holds(h, optimum.objective)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12).flatmap(mixed_grid_delta),
       st.fractions(min_value=0, max_value=1, max_denominator=20))
def test_distance_witness_is_connected_and_scores_its_closed_form(delta, alpha):
    assert_interval_holds(distance_model(delta, alpha))


def interval_by_list_sweep(h: Hamiltonian) -> tuple[Fraction, Fraction, Graph]:
    """distance_interval as it was first written: for each centre, a list
    of the pairs that avoid it and a prefix sum over that list."""
    (wp, wf), rows = h.grid_weights, h.terms[0][1].grid_delta
    n = len(rows)
    pairs = num_pairs(n)
    ranked = sorted((rows[i][j], i, j) for i in range(n) for j in range(i + 1, n))

    def best(m, costs):
        sums = list(accumulate(costs))

        def terms(k):
            return wp * sums[k], wf * 2 * (2 * pairs - m - k)

        binds = bisect_left(range(len(sums)), True, key=lambda k: le(*terms(k)))
        return max((min(terms(k)), -k) for k in (binds - 1, binds) if 0 <= k < len(sums))

    costs = [d for d, _, _ in ranked]
    lower, _ = best(n - 1, [sum(costs[:n - 1])] + costs[n - 1:])
    (value, fewest), lowest = max(
        (best(n - 1, [sum(rows[c])] + [d for d, i, j in ranked if c != i and c != j]), -c)
        for c in range(n))
    c, k = -lowest, -fewest
    star = [(c, v) for v in range(n) if v != c]
    chords = [(i, j) for _, i, j in ranked if c != i and c != j][:k]
    return (Fraction(lower, h.scale), Fraction(value, h.scale),
            Graph.from_edges(n, star + chords))


@st.composite
def interval_grids(draw):
    """A symmetric distance matrix on 2..16 nodes: ints 0..5, heavy with ties,
    or fractions over mixed denominators."""
    n = draw(st.integers(2, 16), label="n")
    if draw(st.booleans(), label="ties"):
        entry = st.integers(0, 5).map(Fraction)
    else:
        entry = st.builds(Fraction, st.integers(0, 60), st.sampled_from([1, 2, 3, 4, 7, 10]))
    upper = {pair: draw(entry) for pair in all_pairs(n)}
    return tuple(tuple(Fraction(0) if i == j else upper[min(i, j), max(i, j)]
                       for j in range(n)) for i in range(n))


@settings(max_examples=200, deadline=None)
@given(interval_grids(), st.sampled_from([Fraction(a) for a in ("0", "3/10", "1/2", "7/10", "1")]))
def test_distance_interval_matches_the_list_sweep(delta, alpha):
    h = distance_model(delta, alpha)
    lower, value, g = distance_interval(h)
    ref_lower, ref_value, ref_g = interval_by_list_sweep(h)
    assert (lower, value, g.bits) == (ref_lower, ref_value, ref_g.bits)


def test_distance_interval_at_the_benchmark_scale():
    # the seed-1 points x20 at n = 30, as the flow-heuristic workload lays them out
    delta = random_unit_square_delta(30, 1)
    intervals = [distance_interval(distance_model(delta, Fraction(a), 20))
                 for a in ("7/10", "1/2", "3/10")]
    assert [(lower, value, g.edge_count) for lower, value, g in intervals] == [
        (Fraction(2217, 5), Fraction(2238, 5), 124),
        (Fraction(662), Fraction(663), 207),
        (Fraction(777), Fraction(777), 315),
    ]


PHYSICAL = StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, random_unit_square_delta(4, 1))


@pytest.mark.parametrize("h", [
    triads_maxmin(Fraction(1, 2)),
    Hamiltonian.max_min_pair(Fraction(1, 2), FLOW, PHYSICAL, sense="minimize"),
    Hamiltonian.linear([(Fraction(1, 2), PHYSICAL), (Fraction(1, 2), FLOW)], sense="minimize"),
    Hamiltonian.max_min_pair(Fraction(1, 2), PHYSICAL, FLOW, sense="maximize"),
], ids=["triads", "flow-first", "linear", "maximized"])
def test_distance_interval_refuses_other_objectives(h):
    with pytest.raises(ValueError, match="distance interval needs"):
        distance_interval(h)


# -- one interval per model ------------------------------------------------------

INTERVAL_ALPHAS = [Fraction(a) for a in ("0", "3/10", "1/2", "7/10", "1")]
# (model, seed, scale of the seed's distances)
INSTANCES = [("triads_vs_nonedges", 0, 1)] + [
    ("distance_vs_flow", seed, scale) for seed in (1, 2) for scale in (1, 20)]


def interval_spaces(n: int) -> list[SampleSpace]:
    """The connected and all spaces, and each at a tree's edge count and at
    one edge fewer, where a connected graph cannot reach and flow is infinite."""
    return SPACES + [SampleSpace.fixed_density(d, connected)
                     for d in (n - 1, n - 2) for connected in (True, False)]


def assert_interval_for_brackets_the_optimum(model, seed, scale, n, alpha, space):
    spec = ExperimentSpec(n=n, model=model, alpha=alpha, space=space, seed=seed)
    h = hamiltonian_for(spec, tuple(tuple(scale * d for d in row)
                                    for row in random_unit_square_delta(n, seed)))
    bound, value, g = interval_for(spec, h)
    optimum = brute_force(n, space, h)[0].objective
    if space.density is not None:
        assert value is None and g is None
    else:
        assert space.admits(g) and eval_hamiltonian(h, g) == value
    # the optimum, where the space holds a graph of finite score, lies between
    # the witness's value and the bound
    scores = [value, optimum, bound] if model == "triads_vs_nonedges" else [bound, optimum, value]
    scores = [q for q in scores if q is not None]
    assert scores == sorted(scores), (alpha, space.label(), scores)
    if model == "triads_vs_nonedges" and space == SampleSpace.all_graphs():
        assert bound == value == optimum


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("model, seed, scale", INSTANCES)
def test_interval_for_brackets_the_brute_force_optimum(model, seed, scale, n):
    for alpha in INTERVAL_ALPHAS:
        for space in interval_spaces(n):
            assert_interval_for_brackets_the_optimum(model, seed, scale, n, alpha, space)


@pytest.mark.parametrize("i", range(len(INSTANCES)))
def test_interval_for_brackets_the_brute_force_optimum_at_six_nodes(i):
    # brute force takes most of a second a cell here, so one cell per instance
    assert_interval_for_brackets_the_optimum(
        *INSTANCES[i], 6, INTERVAL_ALPHAS[1 + i % 3], SPACES[i % 2])


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 40), st.fractions(min_value=0, max_value=1, max_denominator=20),
       st.booleans())
def test_the_triads_bound_is_the_all_space_witness_value(n, alpha, connected):
    spec = ExperimentSpec(n=n, alpha=alpha, space=SampleSpace(connected=connected))
    h = hamiltonian_for(spec)
    bound, _, _ = interval_for(spec, h)
    assert bound == eval_hamiltonian(h, witness(n, alpha, connected=False))
