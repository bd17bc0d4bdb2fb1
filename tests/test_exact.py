import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmax import (
    DisconnectedGraphError,
    Graph,
    Hamiltonian,
    SampleSpace,
    StatisticKind,
    StatisticSpec,
    branch_and_bound,
    brute_force,
    count_triangles,
    eval_hamiltonian,
    is_connected,
    random_unit_square_delta,
    solve_two_stage,
    star_with_chords,
    structural_lower_bounds,
)
from ergmax.exact import _breaks_lex_order, available_chord_slots
from ergmax.graph import all_pairs, edge_index, num_pairs
from ergmax.frontier import distance_interval, optimum, witness
from ergmax.reporting import ExperimentSpec, hamiltonian_for, interval_for
from ergmax.stats import HamiltonianForm, statistic_values

from helpers import (
    iter_graphs,
    reference_branch_and_bound,
    reference_node_bound,
    triads_maxmin,
)

CONNECTED = SampleSpace.connected_graphs()

# values computed once by the exhaustive oracle below and frozen
ORACLE_OPTIMA = {
    (4, Fraction(3, 10)): Fraction(3, 5),
    (4, Fraction(1, 2)): Fraction(1, 2),
    (4, Fraction(7, 10)): Fraction(3, 5),
    (5, Fraction(3, 10)): Fraction(6, 5),
    (5, Fraction(1, 2)): Fraction(3, 2),
    (5, Fraction(7, 10)): Fraction(7, 5),
}


# -- brute force -------------------------------------------------------------


def test_brute_force_trivial_spaces():
    res, argmax = brute_force(3, SampleSpace.fixed_density(3), triads_maxmin(Fraction(1, 2)))
    assert argmax == (Graph.complete(3),)
    assert res.objective == 0

    res, argmax = brute_force(2, CONNECTED, triads_maxmin(Fraction(1, 2)))
    assert argmax == (Graph.complete(2),)
    assert res.objective == 0


def test_brute_force_matches_frozen_oracle_values():
    for (n, alpha), expected in ORACLE_OPTIMA.items():
        res, argmax = brute_force(n, CONNECTED, triads_maxmin(alpha))
        assert res.status == "optimal"
        assert res.objective == expected
        assert res.graph == argmax[0]
        assert eval_hamiltonian(triads_maxmin(alpha), res.graph) == expected


def test_brute_force_counts_connected_graphs():
    res, _ = brute_force(4, CONNECTED, triads_maxmin(Fraction(1, 2)))
    assert res.nodes_explored == 38
    res, _ = brute_force(5, CONNECTED, triads_maxmin(Fraction(1, 2)))
    assert res.nodes_explored == 728


def test_brute_force_infeasible_and_cap():
    empty_space = SampleSpace.fixed_density(0, connected=True)
    res, argmax = brute_force(3, empty_space, triads_maxmin(Fraction(1, 2)))
    assert res.status == "infeasible"
    assert argmax == ()
    with pytest.raises(ValueError):
        brute_force(8, CONNECTED, triads_maxmin(Fraction(1, 2)))


# -- structural bounds -------------------------------------------------------


def test_structural_bounds_examples():
    b = structural_lower_bounds(60, Fraction(7, 10))
    assert (b.min_triangles, b.min_edges) == (59, 118)
    b = structural_lower_bounds(10, Fraction(0))
    assert (b.min_triangles, b.min_edges) == (0, 9)
    b = structural_lower_bounds(4, Fraction(1, 10))
    assert (b.min_triangles, b.min_edges) == (0, 3)


def test_structural_bounds_hold_at_oracle_scale():
    # The triangle bound holds for EVERY optimal solution; the edge bound
    # only for SOME optimum: at n=6, alpha=1/2 the optimum 5/2 is also
    # attained by 9-edge graphs (S = (6, 5)) below the claimed 10.  At
    # alpha = 1 every connected graph is optimal, trees included.
    for n in (4, 5, 6):
        for alpha in (Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10),
                      Fraction(9, 10), Fraction(1)):
            bound = structural_lower_bounds(n, alpha)
            _, argmax = brute_force(n, CONNECTED, triads_maxmin(alpha))
            for g in argmax:
                assert count_triangles(g) >= bound.min_triangles
            assert any(g.edge_count >= bound.min_edges for g in argmax)


def test_edge_bound_is_not_universal_among_optima():
    # pin the counterexample that refutes the all-optima edge bound
    bound = structural_lower_bounds(6, Fraction(1, 2))
    assert bound.min_edges == 10
    res, argmax = brute_force(6, CONNECTED, triads_maxmin(Fraction(1, 2)))
    slim = [g for g in argmax if g.edge_count < bound.min_edges]
    assert slim, "expected 9-edge optima at n=6, alpha=1/2"
    for g in slim:
        assert g.edge_count == 9
        assert count_triangles(g) == 5  # still meets the triangle bound


def test_star_with_chords_examples():
    g = star_with_chords(5, 0)
    assert g == Graph.star(5)
    assert count_triangles(g) == 0

    g = star_with_chords(5, 2)
    assert g.edge_count == 6
    assert count_triangles(g) == 2

    g = star_with_chords(60, 59)
    assert g.edge_count == 118
    assert count_triangles(g) >= 59
    assert is_connected(g)

    with pytest.raises(ValueError):
        star_with_chords(5, available_chord_slots(5) + 1)
    assert available_chord_slots(3) == 1
    assert star_with_chords(3, 1) == Graph.complete(3)


def test_star_with_chords_meets_the_proof_inequality():
    n, alpha = 60, Fraction(7, 10)
    h = structural_lower_bounds(n, alpha).min_triangles
    g = star_with_chords(n, h)
    objective = eval_hamiltonian(triads_maxmin(alpha), g)
    pairs = num_pairs(n)
    assert objective >= min((1 - alpha) * h, alpha * (pairs - (n - 1) - h))


# -- branch and bound --------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("alpha", [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)])
def test_bnb_matches_brute_force(n, alpha):
    h = triads_maxmin(alpha)
    ref, _ = brute_force(n, CONNECTED, h)
    res = branch_and_bound(n, CONNECTED, h)
    assert res.status == "optimal"
    assert res.objective == ref.objective
    assert res.nodes_explored < 2**10 or n > 4


def test_bnb_respects_fixed_density_space():
    h = triads_maxmin(Fraction(1, 2))
    space = SampleSpace.fixed_density(4, connected=True)
    ref, _ = brute_force(5, space, h)
    res = branch_and_bound(5, space, h)
    assert res.status == "optimal"
    assert res.objective == ref.objective


def test_bnb_warm_start_is_validated_and_helps():
    h = triads_maxmin(Fraction(1, 2))
    cold = branch_and_bound(5, CONNECTED, h)
    seed_graph = star_with_chords(5, structural_lower_bounds(5, Fraction(1, 2)).min_triangles)
    warm = branch_and_bound(5, CONNECTED, h, incumbent=seed_graph)
    assert warm.objective == cold.objective
    assert warm.nodes_explored <= cold.nodes_explored
    with pytest.raises(ValueError):
        branch_and_bound(5, CONNECTED, h, incumbent=Graph(5))  # disconnected


@pytest.mark.parametrize("alpha", [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)])
def test_bnb_warm_start_never_worsens_on_the_n6_grid(alpha):
    h = triads_maxmin(alpha)
    cold = branch_and_bound(6, CONNECTED, h)
    chords = min(structural_lower_bounds(6, alpha).min_triangles, 5)
    warm = branch_and_bound(6, CONNECTED, h, incumbent=star_with_chords(6, chords))
    assert warm.objective == cold.objective
    assert warm.nodes_explored <= cold.nodes_explored


@pytest.mark.parametrize("alpha, nodes", [
    (Fraction(3, 10), 200), (Fraction(1, 2), 214), (Fraction(7, 10), 112)])
def test_bnb_builds_no_graph_per_node(monkeypatch, alpha, nodes):
    # the n = 6 connected triads jobs, warm-started from a star with chords:
    # nodes carry rows and term values, so bnb builds the root's empty and
    # complete graphs and then only each leaf that beats the incumbent
    h = triads_maxmin(alpha)
    start = star_with_chords(6, structural_lower_bounds(6, alpha).min_triangles)
    built = []
    init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda g, *args: built.append(args) or init(g, *args))
    res = branch_and_bound(6, CONNECTED, h, incumbent=start)
    root, leaves = built[:2], [bits for _, bits in built[2:]]
    assert res.nodes_explored == nodes
    assert root == [(6,), (6, (1 << 15) - 1)]
    # each leaf built scores strictly more than the incumbent before it
    scores = [eval_hamiltonian(h, Graph(6, bits)) for bits in leaves]
    assert scores == sorted(set(scores)) and all(v > eval_hamiltonian(h, start) for v in scores)
    assert res.graph.bits == (leaves[-1] if leaves else start.bits)


def spaces_for(n):
    """Connected, all, and both with the edge count fixed to n."""
    return [
        CONNECTED,
        SampleSpace.all_graphs(),
        SampleSpace.fixed_density(n, connected=True),
        SampleSpace.fixed_density(n),
    ]


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", [1, 2])
def test_bnb_matches_brute_force_on_the_distance_model(n, seed):
    phys = StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, random_unit_square_delta(n, seed))
    flow = StatisticSpec(StatisticKind.FLOW_DISTANCE)
    triangles = StatisticSpec(StatisticKind.TRIANGLES)
    cells = [Hamiltonian.max_min_pair(alpha, phys, flow, sense="minimize")
             for alpha in (Fraction(1, 2), Fraction(9, 10))]
    # a maximized objective with a weight-0 flow term: the term weighs 0
    # but keeps the domain to connected graphs, in either form
    cells += [
        Hamiltonian(form, ((Fraction(0), flow), (Fraction(-1), phys), *extra))
        for form in HamiltonianForm
        for extra in ((), ((Fraction(1, 2), triangles),))
    ]
    for h in cells:
        for space in spaces_for(n):
            ref, argmax = brute_force(n, space, h)
            res = branch_and_bound(n, space, h)
            assert res.status == ref.status == "optimal"
            assert res.objective == ref.objective
            assert res.graph in argmax


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_bnb_equals_brute_force_on_random_cells(n, data):
    space = SampleSpace(
        connected=data.draw(st.booleans()),
        density=data.draw(st.none() | st.integers(min_value=0, max_value=num_pairs(n))),
    )
    alpha = data.draw(st.sampled_from([Fraction(k, 10) for k in range(11)]))
    model = data.draw(st.sampled_from(["triads", "triads_gamma", "distance"]))
    if model == "triads_gamma":
        terms = list(triads_maxmin(alpha).terms)
        gamma = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(9, 10), 1]))
        objective = data.draw(st.sampled_from(["maxmin", "linear"]))
        ref = solve_two_stage(n, space, terms, gamma, objective)
        alt = solve_two_stage(n, space, terms, gamma, objective, method="bnb")
        assert alt.p_star == ref.p_star
        ref, res = ref.stage2 or ref.stage1, alt.stage2 or alt.stage1
    else:
        if model == "triads":
            h = triads_maxmin(alpha)
        else:
            delta = random_unit_square_delta(n, data.draw(st.integers(min_value=0, max_value=99)))
            phys = StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta)
            flow = StatisticSpec(StatisticKind.FLOW_DISTANCE)
            h = Hamiltonian.max_min_pair(alpha, phys, flow, sense="minimize")
        ref, _ = brute_force(n, space, h)
        res = branch_and_bound(n, space, h)
    assert res.status == ref.status
    assert res.objective == ref.objective


def twenty_times(delta):
    return tuple(tuple(20 * d for d in row) for row in delta)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.data())
def test_bnb_walks_the_reference_loop_node_for_node(n, data):
    # the loop over rows and carried values against the loop over Graph pairs
    # it replaced: the same nodes, so the same answer, count and root bound
    pairs = num_pairs(n)
    density = data.draw(st.none() | st.integers(min_value=0, max_value=pairs))
    space = SampleSpace(connected=data.draw(st.booleans()), density=density)
    alpha = data.draw(st.sampled_from([Fraction(k, 10) for k in range(11)]))
    model = data.draw(st.sampled_from(["triads", "triads_floor", "distance"]))
    if model == "distance":
        delta = twenty_times(random_unit_square_delta(n, data.draw(st.integers(0, 99))))
        h = Hamiltonian.max_min_pair(alpha, StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta),
                                     StatisticSpec(StatisticKind.FLOW_DISTANCE), "minimize")
    else:
        h = triads_maxmin(alpha)
        if model == "triads_floor":
            floor = data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(5, 2), 4]))
            h = dataclasses.replace(Hamiltonian.max_min(list(h.terms)), floor=floor)
    # no start, the witness run_experiment starts from, or a drawn graph, if feasible
    start = data.draw(st.sampled_from(["none", "witness", "drawn"]))
    if start == "witness":
        g = distance_interval(h)[2] if model == "distance" else witness(n, alpha, space.connected)
    else:
        ranks = data.draw(st.sets(st.integers(0, pairs - 1), min_size=density or 0,
                                  max_size=pairs if density is None else density))
        g = Graph(n, sum(1 << r for r in ranks))
    try:
        feasible = start != "none" and space.admits(g) and eval_hamiltonian(h, g) is not None
    except DisconnectedGraphError:
        feasible = False
    incumbent = g if feasible else None
    ref = reference_branch_and_bound(n, space, h, incumbent, node_limit=20_000)
    res = branch_and_bound(n, space, h, incumbent, node_limit=20_000)
    assert (res.status, res.objective, res.nodes_explored, res.bound_at_root) == (
        ref.status, ref.objective, ref.nodes_explored, ref.bound_at_root)
    assert (res.graph and res.graph.bits) == (ref.graph and ref.graph.bits)


# recorded from the loop over Graph pairs: (alpha, nodes, objective, edge bitset,
# root bound) of the connected triads model at n = 8 warm-started from the
# frontier witness, and of the distance model at n = 7 (seed 1, distances x20)
# warm-started from the distance witness, as run_experiment starts them
PINNED_TRIADS_N8 = [
    ("7/10", 3307, "63/10", 0x4CEFFF, "84/5"),
    ("1/2", 6573, "13/2", 0x4E7FF, "14"),
    ("3/10", 9676, "24/5", 0x63FF, "42/5"),
]
PINNED_DISTANCE_N7 = [
    ("7/10", 16207, "13699609/500000", 0x115420, "63/5"),
    ("1/2", 70303, "34", 0x17862, "21"),
    ("3/10", 139057, "196/5", 0x11FC3F, "147/5"),
]


@pytest.mark.parametrize("model, n, cells", [
    ("triads_vs_nonedges", 8, PINNED_TRIADS_N8), ("distance_vs_flow", 7, PINNED_DISTANCE_N7)])
def test_bnb_keeps_its_recorded_answers_and_node_counts(model, n, cells):
    for alpha, nodes, objective, bits, root in cells:
        spec = ExperimentSpec(n=n, model=model, alpha=Fraction(alpha), seed=1)
        delta = twenty_times(random_unit_square_delta(n, 1)) if model == "distance_vs_flow" else None
        h = hamiltonian_for(spec, delta)
        res = branch_and_bound(n, spec.space, h, incumbent=interval_for(spec, h)[2])
        assert (res.status, res.nodes_explored, res.objective, res.graph.bits,
                res.bound_at_root) == ("optimal", nodes, Fraction(objective), bits, Fraction(root))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.data())
def test_bnb_with_a_ceiling_returns_what_it_returns_without_one(n, data):
    # a ceiling prunes only once the incumbent has reached it: the same answer
    # in no more nodes, with the root bound capped at the ceiling
    space = data.draw(st.sampled_from([
        CONNECTED, SampleSpace.all_graphs(),
        SampleSpace(connected=data.draw(st.booleans()),
                    density=data.draw(st.integers(0, num_pairs(n))))]))
    alpha = data.draw(st.sampled_from([Fraction(k, 10) for k in range(11)]))
    model = data.draw(st.sampled_from(["triads", "triads_floor", "distance"]))
    spec = ExperimentSpec(n=n, model="distance_vs_flow" if model == "distance" else
                          "triads_vs_nonedges", alpha=alpha, space=space)
    delta = twenty_times(random_unit_square_delta(n, data.draw(st.integers(0, 99))))
    h = hamiltonian_for(spec, delta)
    if model == "triads_floor":
        floor = data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(5, 2), 4]))
        h = dataclasses.replace(Hamiltonian.max_min(list(h.terms)), floor=floor)
    bound, _, start = interval_for(spec, h)
    # run_experiment's warm start, when it lies in the space and meets the floor
    if not (data.draw(st.booleans()) and start is not None and space.admits(start)
            and eval_hamiltonian(h, start) is not None):
        start = None
    ref = branch_and_bound(n, space, h, start)
    best = brute_force(n, space, h)[0].objective
    ceilings = [bound] if best is None else [bound, best]
    for ceiling in ceilings:
        res = branch_and_bound(n, space, h, start, ceiling=ceiling)
        assert (res.status, res.objective) == (ref.status, ref.objective)
        assert (res.graph and res.graph.bits) == (ref.graph and ref.graph.bits)
        assert res.nodes_explored <= ref.nodes_explored
        # the lower on h's grid, where higher is better in either sense
        assert res.bound_at_root == (None if ref.bound_at_root is None else min(
            ref.bound_at_root, ceiling, key=lambda v: v * h.scale))
    if best is not None:
        # res ran at the optimum; a third of a grid step past it, on the side no
        # graph reaches, caps as the optimum does: at the last grid value not past it
        past = branch_and_bound(n, space, h, start, ceiling=best + Fraction(1, 3 * h.scale))
        assert (past.nodes_explored, past.bound_at_root) == (res.nodes_explored, res.bound_at_root)


@pytest.mark.parametrize("model", ["triads_vs_nonedges", "distance_vs_flow"])
def test_bnb_refuses_a_ceiling_its_warm_start_beats(model):
    spec = ExperimentSpec(n=6, model=model, seed=1)
    h = hamiltonian_for(spec)
    _, value, start = interval_for(spec, h)
    # the witness scores value: a ceiling at it proves at the root, one grid step worse is no bound
    res = branch_and_bound(6, spec.space, h, start, ceiling=value)
    assert (res.status, res.objective, res.nodes_explored, res.bound_at_root) == (
        "optimal", value, 1, value)
    with pytest.raises(ValueError, match="beats the ceiling"):
        branch_and_bound(6, spec.space, h, start, ceiling=value - Fraction(1, h.scale))


def test_two_stage_is_optimal_only_if_both_stages_are():
    # stage 1 stops at the node limit; stage 2 finishes within it, but its
    # floor rests on an unproven p*
    terms = list(triads_maxmin(Fraction(7, 10)).terms)
    two = solve_two_stage(5, CONNECTED, terms, Fraction(1, 2), "linear", method="bnb",
                          node_limit=70)
    assert two.stage1.status == "incumbent"
    assert two.stage2.nodes_explored < 70
    assert two.stage2.status == "incumbent"
    unlimited = solve_two_stage(5, CONNECTED, terms, Fraction(1, 2), "linear", method="bnb")
    assert unlimited.stage2.status == "optimal"


def test_bnb_node_limit_yields_incumbent_status():
    h = triads_maxmin(Fraction(1, 2))
    res = branch_and_bound(6, CONNECTED, h, node_limit=50)
    assert res.status == "incumbent"


def test_node_bound_is_admissible_on_partial_assignments():
    n = 5
    pairs = num_pairs(n)
    full = (1 << pairs) - 1
    # at alpha = 9/10 either term can be the larger one
    distance_model = Hamiltonian.max_min_pair(
        Fraction(9, 10),
        StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, random_unit_square_delta(n, 1)),
        StatisticSpec(StatisticKind.FLOW_DISTANCE),
        sense="minimize",
    )
    # a floor of 4 keeps 82 of the 1 024 graphs on 5 nodes
    floored = dataclasses.replace(triads_maxmin(Fraction(1, 2)), floor=4)
    for h in (triads_maxmin(Fraction(1, 2)), distance_model, floored):
        # spot-check a grid of partial assignments at several depths
        for depth in (2, 5, 7):
            for included in range(0, 1 << depth, 3):
                realized = Graph(n, included)
                optimistic = Graph(n, included | (full >> depth << depth))
                # None: then no completion may score
                bound = reference_node_bound(h)(realized, optimistic)
                for completion_bits in range(1 << (pairs - depth)):
                    g = Graph(n, included | (completion_bits << depth))
                    try:
                        value = eval_hamiltonian(h, g)
                    except DisconnectedGraphError:
                        continue  # outside the flow objective's domain
                    if value is not None:
                        # both on h's grid, where higher is better in either sense
                        assert bound is not None and value * h.scale <= bound


@pytest.mark.parametrize("sense, weight", [("maximize", 1), ("minimize", -1)])
def test_bnb_refuses_to_maximize_flow_distance(sense, weight):
    h = Hamiltonian.linear([(Fraction(weight), StatisticSpec(StatisticKind.FLOW_DISTANCE))], sense)
    with pytest.raises(ValueError, match="flow distance admits no finite optimistic maximum"):
        branch_and_bound(4, CONNECTED, h)


def test_bound_at_root_recorded():
    res = branch_and_bound(4, CONNECTED, triads_maxmin(Fraction(1, 2)))
    assert res.bound_at_root is not None
    assert res.bound_at_root >= res.objective


# -- symmetry breaking -------------------------------------------------------

# non-isomorphic graphs on n nodes (OEIS A000088)
ISOMORPHISM_CLASSES = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def relabelled_ranks(n):
    """Per node permutation pi, the rank of (pi[i], pi[j]) for each pair (i, j)."""
    return [
        [edge_index(*sorted((pi[i], pi[j])), n) for i, j in all_pairs(n)]
        for pi in itertools.permutations(range(n))
    ]


def lex_leader(g, ranks):
    """The relabelling of g whose pair values, read in rank order, form the
    lexicographically largest sequence: a brute-force canonical form."""
    best = max(tuple(g.bits >> k & 1 for k in perm) for perm in ranks)
    return Graph(g.n, sum(bit << k for k, bit in enumerate(best)))


def keeps_every_row(g):
    """The row rule on a whole graph: no row above an earlier one."""
    rows, everything = list(g.adjacency()), (1 << g.n) - 1
    return not any(_breaks_lex_order(rows, x, everything) for x in range(g.n))


@pytest.mark.parametrize("n, classes", ISOMORPHISM_CLASSES.items())
def test_the_row_rule_keeps_the_lex_leader_of_every_isomorphism_class(n, classes):
    kept = [g for g in iter_graphs(n) if keeps_every_row(g)]
    ranks = relabelled_ranks(n)
    leaders = {lex_leader(g, ranks) for g in kept}
    assert len(leaders) == classes
    assert all(keeps_every_row(g) for g in leaders)


def test_the_row_rule_compares_decided_columns_only():
    # rows 0 and 1 of the path 0-1-3 agree on column 2 (columns 0 and 1 are
    # left out); column 3, where only row 1 has a 1, lifts row 1 above row 0
    # once it counts as decided
    rows = list(Graph.from_edges(4, [(0, 1), (1, 3)]).adjacency())
    assert not _breaks_lex_order(rows, 1, 0b0111)
    assert _breaks_lex_order(rows, 1, 0b1111)


@pytest.mark.parametrize("n, nodes_without_the_rule", [(6, 2275), (7, 84031)])
def test_symmetry_breaking_cuts_bnb_nodes_at_least_fourfold(n, nodes_without_the_rule):
    # the counts before symmetry breaking were recorded with this same warm start
    alpha = Fraction(7, 10)
    warm = star_with_chords(n, structural_lower_bounds(n, alpha).min_triangles)
    res = branch_and_bound(n, CONNECTED, triads_maxmin(alpha), incumbent=warm)
    assert res.status == "optimal"
    assert res.objective == {6: Fraction(14, 5), 7: Fraction(21, 5)}[n]
    assert res.nodes_explored <= nodes_without_the_rule // 4


# -- two-stage ---------------------------------------------------------------


def two_nonedge_triangle_terms():
    return [
        (Fraction(1), StatisticSpec(StatisticKind.NON_EDGES)),
        (Fraction(1), StatisticSpec(StatisticKind.TRIANGLES)),
    ]


def test_two_stage_gamma_zero_equals_stage_one():
    two = solve_two_stage(4, CONNECTED, two_nonedge_triangle_terms(), Fraction(0))
    assert two.stage2.objective == two.stage1.objective
    assert two.p_star == two.stage1.objective


def test_two_stage_single_statistic_stages_coincide():
    terms = [(Fraction(1), StatisticSpec(StatisticKind.NON_EDGES))]
    two = solve_two_stage(4, CONNECTED, terms, Fraction(1))
    assert two.p_star == 3  # spanning tree maximizes non-edges
    assert two.stage2.objective == two.p_star


def test_two_stage_gamma_one_breaks_ties_by_the_min_term():
    # crafted 3-node instance: stage-1 (linear) optimum 4 is attained by K3
    # and two of the three paths; among those the paths have min term 1
    delta = (
        (Fraction(0), Fraction(2), Fraction(1)),
        (Fraction(2), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0)),
    )
    terms = [
        (Fraction(1), StatisticSpec(StatisticKind.NON_EDGES)),
        (Fraction(1), StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta)),
    ]
    two = solve_two_stage(3, CONNECTED, terms, Fraction(1), p_star_objective="linear")
    assert two.p_star == 4
    assert two.stage2.objective == 1
    assert two.stage2.graph.edge_count == 2  # a path, not K3


def test_two_stage_bnb_agrees_with_brute():
    for gamma in (Fraction(0), Fraction(1, 2), Fraction(1)):
        ref = solve_two_stage(4, CONNECTED, two_nonedge_triangle_terms(), gamma)
        alt = solve_two_stage(
            4, CONNECTED, two_nonedge_triangle_terms(), gamma, method="bnb"
        )
        assert alt.stage2.objective == ref.stage2.objective
        assert alt.p_star == ref.p_star


@pytest.mark.parametrize("n", [3, 4, 5])
def test_two_stage_bnb_agrees_with_brute_across_spaces_and_objectives(n):
    for space in spaces_for(n):
        for alpha in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
            terms = list(triads_maxmin(alpha).terms)
            for gamma in (Fraction(0), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
                for objective in ("maxmin", "linear"):
                    ref = solve_two_stage(n, space, terms, gamma, objective)
                    alt = solve_two_stage(n, space, terms, gamma, objective, method="bnb")
                    assert alt.p_star == ref.p_star
                    assert alt.stage2.status == ref.stage2.status
                    assert alt.stage2.objective == ref.stage2.objective


def test_two_stage_bnb_starts_stage_two_from_the_stage_one_graph():
    # 21/10 is brute force's optimum.  Stage 2 maximizes stage 1's objective over
    # part of the space, so the proven p* caps it, and its start, stage 1's graph,
    # reaches the cap at the root (240 nodes without the start, 200 without the cap)
    terms = list(triads_maxmin(Fraction(3, 10)).terms)
    two = solve_two_stage(6, CONNECTED, terms, Fraction(9, 10), method="bnb")
    assert two.stage2.status == "optimal"
    assert (two.stage2.nodes_explored, two.stage2.bound_at_root) == (1, two.p_star)
    assert two.stage2.objective == Fraction(21, 10)
    assert two.stage2.graph == two.stage1.graph


@pytest.mark.parametrize("objective", ["maxmin", "linear"])
def test_two_stage_passes_a_ceiling_to_the_maxmin_stages_only(objective):
    # the all-space optimum bounds the max-min objective, not the linear one
    n, alpha, gamma = 6, Fraction(1, 2), Fraction(9, 10)
    terms = list(triads_maxmin(alpha).terms)
    ceiling = optimum(n, alpha)
    capped = solve_two_stage(n, CONNECTED, terms, gamma, objective, method="bnb", ceiling=ceiling)
    plain = solve_two_stage(n, CONNECTED, terms, gamma, objective, method="bnb")
    assert capped.p_star == plain.p_star
    root = plain.stage1.bound_at_root
    assert capped.stage1.bound_at_root == (min(root, ceiling) if objective == "maxmin" else root)
    assert (capped.stage2.status, capped.stage2.objective) == (
        plain.stage2.status, plain.stage2.objective)
    caps = [ceiling, capped.p_star] if objective == "maxmin" else [ceiling]
    assert capped.stage2.bound_at_root == min(plain.stage2.bound_at_root, *caps)


@pytest.mark.parametrize("objective, cold_nodes", [("maxmin", 237), ("linear", 80)])
def test_two_stage_bnb_warms_stage_one_from_an_incumbent_option(objective, cold_nodes):
    # at gamma = 1 the linear floor is p* = 10, which the start's weighted
    # sum 5 misses: the start warms stage 1 only
    n, alpha = 6, Fraction(1, 2)
    terms = list(triads_maxmin(alpha).terms)
    start = star_with_chords(n, structural_lower_bounds(n, alpha).min_triangles)
    h = Hamiltonian.max_min(terms) if objective == "maxmin" else Hamiltonian.linear(terms)
    two = solve_two_stage(n, CONNECTED, terms, Fraction(1), objective, method="bnb",
                          incumbent=start)
    warm = branch_and_bound(n, CONNECTED, h, incumbent=start)
    assert (two.stage1.nodes_explored, two.p_star) == (warm.nodes_explored, warm.objective)
    assert warm.nodes_explored <= cold_nodes
    ref = solve_two_stage(n, CONNECTED, terms, Fraction(1), objective)
    assert two.stage2.status == "optimal"
    assert two.stage2.objective == ref.stage2.objective


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=3, max_value=5), st.data())
def test_two_stage_equals_brute_force_with_the_floor_row(n, data):
    # brute force referees stage one; stage two's referee is enumerated
    # here, so that it shares no floor code with the solvers
    space = SampleSpace(
        connected=data.draw(st.booleans()),
        density=data.draw(st.none() | st.integers(min_value=0, max_value=num_pairs(n))),
    )
    gamma = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(9, 10), Fraction(1)]))
    method = data.draw(st.sampled_from(["brute", "bnb"]))
    delta = random_unit_square_delta(n, data.draw(st.integers(min_value=0, max_value=99)))
    statistic = st.sampled_from([
        StatisticSpec(StatisticKind.NON_EDGES),
        StatisticSpec(StatisticKind.TRIANGLES),
        StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta),
    ])
    weight = st.builds(Fraction, st.integers(min_value=-3, max_value=3),
                       st.integers(min_value=1, max_value=4))
    terms = data.draw(st.lists(st.tuples(weight, statistic), min_size=1, max_size=3))
    h = Hamiltonian.max_min(terms)
    two = solve_two_stage(n, space, terms, gamma, method=method)
    stage1, _ = brute_force(n, space, h)
    assert two.p_star == stage1.objective
    if stage1.objective is None:
        assert two.stage2 is None
        return
    floor = gamma * stage1.objective
    floored = []  # (weighted minimum, graph) for each graph in the space reaching the floor
    for g in iter_graphs(n):
        weighted = [theta * v for (theta, _), v in zip(h.terms, statistic_values(h, g))]
        if space.admits(g) and sum(weighted) >= floor:
            floored.append((min(weighted), g))
    if not floored:
        assert (two.stage2.status, two.stage2.objective) == ("infeasible", None)
        return
    best = max(value for value, _ in floored)
    assert (two.stage2.status, two.stage2.objective) == ("optimal", best)
    if method == "brute":
        # brute force returns the optimum with the lowest edge bitset
        assert two.stage2.graph == next(g for value, g in floored if value == best)


def test_two_stage_infeasible_stage_one_propagates():
    space = SampleSpace.fixed_density(0, connected=True)
    two = solve_two_stage(3, space, two_nonedge_triangle_terms(), Fraction(1, 2))
    assert two.stage1.status == "infeasible"
    assert two.stage2 is None
    assert two.p_star is None
