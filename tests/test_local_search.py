import dataclasses
import random
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmax import (
    ExperimentSpec,
    Graph,
    Hamiltonian,
    SampleSpace,
    StatisticKind,
    StatisticSpec,
    branch_and_bound,
    eval_hamiltonian,
    first_improve,
    has_improving_toggle,
    is_connected,
    random_unit_square_delta,
    run_experiment,
)
from ergmax.frontier import witness
from ergmax import graph
from ergmax.graph import DisconnectedGraphError, all_pairs, num_pairs, total_hop_count
from ergmax.local_search import _feasible_toggles
from ergmax.stats import grid_stepper, grid_values, improving_directions, score

from helpers import (
    ordered_hop_sum, random_connected_graph, triangle_count_by_triples, triads_maxmin,
    union_find_connected,
)
from test_integer_scale import helpful_directions, mirrored, reference_value

CONNECTED = SampleSpace.connected_graphs()


def test_complete_graph_is_not_locally_optimal():
    # K4 scores 0; dropping any edge yields min(alpha, 2*(1-alpha)) > 0
    h = triads_maxmin(Fraction(1, 2))
    k4 = Graph.complete(4)
    assert eval_hamiltonian(h, k4) == 0
    assert has_improving_toggle(k4, h, CONNECTED)
    res = first_improve(k4, h, CONNECTED)
    assert res.objective > 0
    assert res.status == "incumbent"
    assert not has_improving_toggle(res.graph, h, CONNECTED)


def test_local_optimum_is_a_fixed_point():
    h = triads_maxmin(Fraction(1, 2))
    first = first_improve(Graph.star(6), h, CONNECTED)
    again = first_improve(first.graph, h, CONNECTED)
    assert again.graph == first.graph
    assert again.objective == first.objective


def test_objective_never_decreases_and_stays_feasible():
    h = triads_maxmin(Fraction(7, 10))
    # replay first_improve's walk move by move from starts that are not
    # locally optimal: the first improving toggle of each scan, in rank order
    for start in (Graph.star(6), Graph.complete(5)):
        g, values, moves = start, grid_values(h, start), 0
        while True:
            for i, j, cand_values, cand_obj in _feasible_toggles(
                    g, h, CONNECTED, values, all_pairs(g.n)):
                if cand_obj > score(h, values):
                    toggled = g.toggled(i, j)
                    assert is_connected(toggled)
                    assert eval_hamiltonian(h, toggled) > eval_hamiltonian(h, g)
                    g, values = toggled, cand_values
                    moves += 1
                    break
            else:
                break
        assert moves >= 2
        assert g == first_improve(start, h, CONNECTED).graph


def test_restarts_from_a_one_toggle_optimal_start_stop_after_the_first():
    # run_experiment climbs from the witness, which no toggle improves, and
    # the climb is deterministic: a restart count runs one climb, whatever it is
    start = witness(8, Fraction(1, 2), connected=True)
    assert not has_improving_toggle(start, triads_maxmin(Fraction(1, 2)), CONNECTED)
    once, many = (run_experiment(ExperimentSpec(n=8, solver="local_search", restarts=restarts)).result
                  for restarts in (1, 10))
    assert many.graph == once.graph == start
    assert (many.objective, many.nodes_explored) == (once.objective, once.nodes_explored)


@pytest.mark.parametrize("alpha", [Fraction(7, 10), Fraction(1, 2), Fraction(3, 10)])
def test_pendant_edge_removals_are_refused_without_a_connectivity_search(monkeypatch, alpha):
    # the connected witness is a clique core with pendants on node 0: each
    # removal either keeps its endpoints' common neighbour or strands a pendant
    from ergmax import local_search

    searched = []
    search = local_search.joined_without

    def counted(adj, i, j):
        searched.append((i, j))
        return search(adj, i, j)

    monkeypatch.setattr(local_search, "joined_without", counted)
    g = witness(60, alpha, connected=True)
    assert not has_improving_toggle(g, triads_maxmin(alpha), CONNECTED)
    assert not searched


def test_heuristic_value_is_a_valid_bnb_lower_bound():
    h = triads_maxmin(Fraction(7, 10))
    start = random_connected_graph(6, random.Random(2))
    heur = first_improve(start, h, CONNECTED)
    exact = branch_and_bound(6, CONNECTED, h, incumbent=heur.graph)
    assert exact.status == "optimal"
    assert exact.objective >= heur.objective


def test_infeasible_start_is_rejected():
    h = triads_maxmin(Fraction(1, 2))
    with pytest.raises(ValueError):
        first_improve(Graph(5), h, CONNECTED)
    # a floored objective would leave candidates without a value to compare
    with pytest.raises(ValueError, match="no floor"):
        first_improve(Graph.star(5), dataclasses.replace(h, floor=6), CONNECTED)


def test_fixed_density_space_admits_no_single_toggle():
    h = triads_maxmin(Fraction(1, 2))
    space = SampleSpace.fixed_density(3, connected=True)
    start = Graph.star(4)
    res = first_improve(start, h, space)
    assert res.graph == start  # every toggle changes the edge count


def test_random_connected_graph_is_connected_and_seeded():
    g1 = random_connected_graph(7, random.Random(21))
    g2 = random_connected_graph(7, random.Random(21))
    assert g1 == g2
    assert is_connected(g1)
    sparse = random_connected_graph(9, random.Random(4), p=0.05)
    assert is_connected(sparse)
    # a seed names one graph: the draws follow the pairs in rank order
    assert g1.bits == 241177
    assert sparse.bits == 1342489112


# Recorded when scans took the pairs in rank order and confirmed by the
# Fraction walk of test_integer_scale.reference_first_improve; the seeded
# scan orders it replaced climbed elsewhere.
@pytest.mark.parametrize("alpha, objective, bits, evaluations", [
    (Fraction(7, 10), Fraction(49561701, 500000), 0x8000000010013FFF, 75),
    (Fraction(1, 2), Fraction(15395721, 100000), 0x800000000FFFFFFF, 80),
    (Fraction(3, 10), Fraction(868, 5), 0x5FFFFFFFFFFFFFF, 79),
])
def test_seeded_distance_model_answers_are_pinned(alpha, objective, bits, evaluations):
    res = pinned_distance_climb(alpha)
    assert (res.objective, res.graph.bits, res.nodes_explored) == (objective, bits, evaluations)


def pinned_distance_climb(alpha):
    # demo 06's x20 layout at n = 14, climbing from the star
    n = 14
    delta = tuple(tuple(20 * v for v in row) for row in random_unit_square_delta(n, seed=2))
    h = Hamiltonian.max_min_pair(
        alpha,
        StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta),
        StatisticSpec(StatisticKind.FLOW_DISTANCE),
        sense="minimize",
    )
    return first_improve(Graph.star(n), h, CONNECTED)


# Every toggle of a graph with a hub, and the hop total of such a graph, is
# stepped or summed in closed form, and the climb from the star never leaves
# graphs with a hub: the one search left is the start's connectivity test
# (608 / 642 / 730 searches before hubs were used, 220 / 230 / 154 before a
# removal at the hub was stepped in closed form).
@pytest.mark.parametrize("alpha, searches", [
    (Fraction(7, 10), 1), (Fraction(1, 2), 1), (Fraction(3, 10), 1)])
def test_the_pinned_distance_climb_runs_no_more_searches(monkeypatch, alpha, searches):
    calls = []
    search = graph.bfs_layers

    def counted(g, source):
        calls.append(source)
        return search(g, source)

    monkeypatch.setattr(graph, "bfs_layers", counted)
    pinned_distance_climb(alpha)
    assert len(calls) == searches


@pytest.mark.parametrize("alpha", [Fraction(7, 10), Fraction(1, 2), Fraction(3, 10)])
def test_the_pinned_distance_climb_sums_hop_rows_only_for_its_starts_and_answers(
        monkeypatch, alpha):
    # every candidate's flow total steps in closed form; a total is summed
    # only to score the start and report the answer
    from ergmax import stats

    calls = []
    total = stats.total_hop_count

    def counted(g):
        calls.append(g)
        return total(g)

    monkeypatch.setattr(stats, "total_hop_count", counted)
    pinned_distance_climb(alpha)
    assert len(calls) == 2


def climb_from_a_random_start(n, h, seed):
    return first_improve(random_connected_graph(n, random.Random(seed)), h, CONNECTED)


# Recorded when scans took the pairs in rank order; the n = 20 answers were
# confirmed by the Fraction walk of test_integer_scale.reference_first_improve.
# Climbs from random starts take moves, which the witness start of the n = 60
# benchmark never does.
@pytest.mark.parametrize("alpha, objective, bits, evaluations", [
    (Fraction(7, 10), Fraction(621, 10), 0x22E535445C9FEDDB9078E98098831E31B048C8FFF9BFFFF, 8),
    (Fraction(1, 2), Fraction(111, 2), 0x22E535445C9FEDDB9078E98098831A31B048C8FFE010000, 37),
    (Fraction(3, 10), Fraction(411, 10), 0x22E535441C9FEDDB9078E18098800200004000800010000, 127),
])
def test_seeded_triads_climbs_at_n20_are_pinned(alpha, objective, bits, evaluations):
    res = climb_from_a_random_start(20, triads_maxmin(alpha), seed=1)
    assert (res.objective, res.graph.bits, res.nodes_explored) == (objective, bits, evaluations)


@pytest.mark.parametrize("alpha, objective, edges, triangles, evaluations", [
    (Fraction(7, 10), Fraction(7651, 10), 677, 2554, 854),
    (Fraction(1, 2), Fraction(1327, 2), 443, 1329, 842),
    (Fraction(3, 10), Fraction(2229, 5), 284, 637, 832),
])
def test_seeded_triads_climbs_at_n60_are_pinned(alpha, objective, edges, triangles, evaluations):
    res = climb_from_a_random_start(60, triads_maxmin(alpha), seed=1)
    assert (res.objective, res.graph.edge_count, triangle_count_by_triples(res.graph),
            res.nodes_explored) == (objective, edges, triangles, evaluations)


# the seed of a start per alpha that climbs several moves and then scores
# many candidates that do not help
CLIMBING_STARTS = {Fraction(7, 10): 12, Fraction(1, 2): 41, Fraction(3, 10): 237}


@pytest.mark.parametrize("alpha", [Fraction(7, 10), Fraction(1, 2), Fraction(3, 10)])
def test_a_triads_climb_builds_a_graph_only_for_each_move_it_takes(monkeypatch, alpha):
    # in the all space no removal needs a connectivity search on a built graph
    h = triads_maxmin(alpha)
    start = random_connected_graph(20, random.Random(CLIMBING_STARTS[alpha]))
    built = []
    toggled = Graph.toggled

    def counted(g, i, j):
        built.append(toggled(g, i, j))
        return built[-1]

    monkeypatch.setattr(Graph, "toggled", counted)
    res = first_improve(start, h, SampleSpace.all_graphs())
    # each graph built is the move taken from the one before it: it scores higher
    walk = [start, *built]
    assert walk[-1] == res.graph
    for before, after in zip(walk, walk[1:]):
        assert (before.bits ^ after.bits).bit_count() == 1
        assert eval_hamiltonian(h, after) > eval_hamiltonian(h, before)
    assert res.nodes_explored > 10 * len(built) > 0


def test_the_connected_space_tests_a_removal_on_the_parent_rows():
    # two triangles joined by the bridge (2, 3), and a 4-cycle: neither pair's
    # endpoints share a neighbour, but only the bridge's removal disconnects
    h = triads_maxmin(Fraction(1, 2))
    for g, pair, kept in [
        (Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]), (2, 3), False),
        (Graph.cycle(4), (0, 1), True),
    ]:
        values = grid_values(h, g)
        assert len(list(_feasible_toggles(g, h, CONNECTED, values, [pair]))) == kept
        assert len(list(_feasible_toggles(g, h, SampleSpace.all_graphs(), values, [pair]))) == 1


def test_a_connected_climb_builds_no_graph_to_test_a_removal(monkeypatch):
    # a removal whose endpoints share no neighbour is tested by a search over
    # the parent's rows, so the connected space builds only the moves taken,
    # as the all space does (411 graphs for 409 moves when the test built the
    # graph).  The two walks part where a removal would disconnect the graph.
    h = triads_maxmin(Fraction(3, 10))
    start = random_connected_graph(60, random.Random(1))
    counts = {}
    toggled = Graph.toggled
    for space in (CONNECTED, SampleSpace.all_graphs()):
        built = []

        def counted(g, i, j):
            built.append(toggled(g, i, j))
            return built[-1]

        monkeypatch.setattr(Graph, "toggled", counted)
        res = first_improve(start, h, space)
        # each graph built is the move taken from the one before it
        walk = [start, *built]
        assert walk[-1] == res.graph
        assert all((before.bits ^ after.bits).bit_count() == 1
                   for before, after in zip(walk, walk[1:]))
        counts[space.label()] = (len(built), res.nodes_explored, res.objective)
    assert counts == {"connected": (576, 832, Fraction(2229, 5)),
                      "all": (597, 860, Fraction(4521, 10))}


FLOW = StatisticSpec(StatisticKind.FLOW_DISTANCE)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=12),
       st.sampled_from([CONNECTED, SampleSpace.all_graphs()]), st.data())
def test_flow_distance_steps_exactly_along_a_walk_of_toggles(n, space, data):
    h = Hamiltonian.linear([(Fraction(1), FLOW)], sense="minimize")
    g = random_connected_graph(n, random.Random(data.draw(st.integers(0, 2**32), label="seed")))
    values = grid_values(h, g)
    for i, j in data.draw(st.lists(st.sampled_from(all_pairs(n)), max_size=25), label="toggles"):
        if not is_connected(g.toggled(i, j)):
            with pytest.raises(DisconnectedGraphError):
                grid_stepper(FLOW)(g.adjacency(), i, j, not g.has_edge(i, j), values[0])
            assert not list(_feasible_toggles(g, h, space, values, [(i, j)]))
            continue
        [(_, _, cand_values, _)] = _feasible_toggles(g, h, space, values, [(i, j)])
        toggled = g.toggled(i, j)
        assert cand_values == (ordered_hop_sum(toggled),)
        assert total_hop_count(toggled) == ordered_hop_sum(toggled)
        if data.draw(st.booleans(), label="accept"):
            g, values = toggled, cand_values


@st.composite
def hub_graphs(draw):
    """A random graph on 1..12 nodes with a star ORed in at one or two centres."""
    n = draw(st.integers(min_value=1, max_value=12))
    bits = draw(st.integers(min_value=0, max_value=(1 << num_pairs(n)) - 1))
    for centre in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
        bits |= Graph.star(n, centre).bits
    return Graph(n, bits)


@settings(max_examples=200, deadline=None)
@given(hub_graphs())
def test_a_graph_with_a_hub_has_its_hop_total_without_a_search(g):
    with unittest.mock.patch.object(graph, "bfs_layers", side_effect=AssertionError("searched")):
        total = total_hop_count(g)
    assert total == ordered_hop_sum(g)


@settings(max_examples=200, deadline=None)
@given(hub_graphs())
def test_the_flow_step_of_a_hub_graph_matches_a_fresh_hop_total(g):
    step, current = grid_stepper(FLOW), ordered_hop_sum(g)
    hubs = {v for v in range(g.n) if all(g.has_edge(v, u) for u in range(g.n) if u != v)}
    for i, j in all_pairs(g.n):
        added = not g.has_edge(i, j)
        toggled = Graph(g.n, g.bits ^ Graph.from_edges(g.n, [(i, j)]).bits)
        # every toggle of a graph with a hub steps in closed form, with no search
        with unittest.mock.patch.object(graph, "bfs_layers",
                                        side_effect=AssertionError("searched")):
            if not union_find_connected(toggled):
                # only a removal that touches the one hub can disconnect g
                assert hubs & {i, j} and not hubs - {i, j}
                with pytest.raises(DisconnectedGraphError):
                    step(g.adjacency(), i, j, added, current)
            else:
                assert step(g.adjacency(), i, j, added, current) == ordered_hop_sum(toggled)


def heuristic_spec(**kwargs):
    return ExperimentSpec(n=5, solver="local_search", **kwargs)


def test_search_config_validation():
    # a heuristic run is configured by its seed and restarts; one climb runs
    # whatever the count, so any count of at least 1 gives the same answer
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restart count of at least 1"):
            heuristic_spec(restarts=restarts)
    answers = {(res.objective, res.graph, res.nodes_explored)
               for res in (run_experiment(heuristic_spec(restarts=r)).result for r in (1, 2, 10))}
    assert len(answers) == 1


@pytest.mark.parametrize("seed", [None, 1.0, "1", True, False])
def test_search_config_refuses_a_seed_that_is_not_an_int(seed):
    # a None seed would draw the distance model's points from the operating system
    for model in ("triads_vs_nonedges", "distance_vs_flow"):
        with pytest.raises(ValueError, match="need a nonnegative int seed"):
            heuristic_spec(model=model, seed=seed)


def test_search_config_refuses_a_negative_seed_and_keeps_zero_and_large_ones():
    for model in ("triads_vs_nonedges", "distance_vs_flow"):
        with pytest.raises(ValueError, match="need a nonnegative int seed"):
            heuristic_spec(model=model, seed=-1)
        for seed in (0, 2**63 - 1):
            report = run_experiment(heuristic_spec(model=model, seed=seed))
            assert report.result.status == "incumbent"
            assert not has_improving_toggle(report.result.graph, report.hamiltonian, CONNECTED)


def reference_has_improving_toggle(g, h, space):
    """Evaluate every toggled graph from scratch."""
    base = eval_hamiltonian(h, g)
    for i, j in all_pairs(g.n):
        t = g.toggled(i, j)
        if not space.admits(t):
            continue
        try:
            value = eval_hamiltonian(h, t)
        except DisconnectedGraphError:
            continue
        if value > base if h.sense == "maximize" else value < base:
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_has_improving_toggle_matches_a_from_scratch_scan(n, data):
    model = data.draw(st.sampled_from(["triads", "distance"]))
    space_kind = data.draw(st.sampled_from(["connected", "all", "fixed"]))
    alpha = data.draw(st.sampled_from([Fraction(k, 10) for k in range(11)]))
    g = Graph(n, data.draw(st.integers(min_value=0, max_value=(1 << num_pairs(n)) - 1)))
    if space_kind == "connected" or model == "distance":
        # a random spanning tree keeps g in the space and its flow distance finite
        for v in range(1, n):
            g = g.with_edge(data.draw(st.integers(min_value=0, max_value=v - 1)), v)
    space = {
        "connected": CONNECTED,
        "all": SampleSpace.all_graphs(),
        "fixed": SampleSpace.fixed_density(g.edge_count),
    }[space_kind]
    if model == "triads":
        h = triads_maxmin(alpha)
    else:
        scale = data.draw(st.sampled_from([1, 20]))
        delta = random_unit_square_delta(n, data.draw(st.integers(min_value=0, max_value=99)))
        phys = StatisticSpec(
            StatisticKind.PHYSICAL_DISTANCE, tuple(tuple(scale * d for d in row) for row in delta)
        )
        flow = StatisticSpec(StatisticKind.FLOW_DISTANCE)
        h = Hamiltonian.max_min_pair(alpha, phys, flow, sense="minimize")
    if data.draw(st.booleans()):
        # also cover local optima, where the answer is False
        g = first_improve(g, h, space).graph
    assert has_improving_toggle(g, h, space) == reference_has_improving_toggle(g, h, space)


@st.composite
def maxmin_problems(draw):
    """(g, h, space): a random graph in the space and on the objective's
    domain, and a max_min objective over any kinds, with signed and zero
    weights, in either sense."""
    n = draw(st.integers(min_value=3, max_value=7), label="n")
    sense = draw(st.sampled_from(["maximize", "minimize"]), label="sense")
    delta = random_unit_square_delta(n, draw(st.integers(0, 99), label="points"))
    kinds = draw(st.lists(st.sampled_from(StatisticKind), min_size=2, max_size=3), label="kinds")
    specs = [StatisticSpec(k, delta if k is StatisticKind.PHYSICAL_DISTANCE else None)
             for k in kinds]
    if draw(st.booleans(), label="pair"):
        alpha = draw(st.sampled_from([Fraction(k, 10) for k in (0, 3, 5, 7, 10)]), label="alpha")
        h = Hamiltonian.max_min_pair(alpha, *specs[:2], sense=sense)
    else:
        weights = st.sampled_from([Fraction(-1), Fraction(-2, 3), Fraction(0), Fraction(3, 10),
                                   Fraction(1, 2), Fraction(1)])
        h = Hamiltonian.max_min([(draw(weights, label="weight"), s) for s in specs], sense=sense)
    space = draw(st.sampled_from([CONNECTED, SampleSpace.all_graphs()]), label="space")
    g = Graph(n, draw(st.integers(0, (1 << num_pairs(n)) - 1), label="bits"))
    if space.connected or StatisticKind.FLOW_DISTANCE in kinds:
        # a random spanning tree keeps g in the space and its flow distance finite
        for v in range(1, n):
            g = g.with_edge(draw(st.integers(min_value=0, max_value=v - 1)), v)
    return g, h, space


@settings(max_examples=300, deadline=None)
@given(maxmin_problems())
def test_no_toggle_in_a_ruled_out_direction_improves(problem):
    g, h, space = problem
    adds, removes = improving_directions(h, grid_values(h, g))
    base = eval_hamiltonian(h, g)
    for i, j in all_pairs(g.n):
        added = not g.has_edge(i, j)
        t = g.toggled(i, j)
        if (adds if added else removes) or not space.admits(t):
            continue
        try:
            value = eval_hamiltonian(h, t)
        except DisconnectedGraphError:
            continue
        assert not (value > base if h.sense == "maximize" else value < base), (i, j)
    # a weighted sum can rise with any toggle
    linear = Hamiltonian.linear(list(h.terms), h.sense)
    assert improving_directions(linear, grid_values(linear, g)) == (True, True)



def unfiltered_first_improve(start, h, space):
    """first_improve as it would be if scans ruled out no direction: every
    feasible toggle of each scan is scored, in rank order.  Returns
    (graph, objective)."""
    g, values = start, grid_values(h, start)
    while True:
        for i, j, cand_values, cand_obj in _feasible_toggles(
                g, h, space, values, all_pairs(g.n)):
            if cand_obj > score(h, values):
                g, values = g.toggled(i, j), cand_values
                break
        else:
            return g, eval_hamiltonian(h, g)


@settings(max_examples=100, deadline=None)
@given(maxmin_problems())
def test_first_improve_climbs_as_the_unfiltered_scan_does(problem):
    start, h, space = problem
    res = first_improve(start, h, space)
    assert (res.graph, res.objective) == unfiltered_first_improve(start, h, space)

@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=3, max_value=8),
       st.sampled_from([Fraction(k, 10) for k in range(11)]),
       st.sampled_from(["maximize", "minimize"]),
       st.sampled_from([CONNECTED, SampleSpace.all_graphs()]), st.data())
def test_the_non_edge_term_rules_out_no_toggle_that_improves(n, alpha, sense, space, data):
    # random graphs almost never put the non-edge term one step from the
    # least term; the witness, and graphs a toggle or two from it, often do
    g = witness(n, alpha, space.connected)
    for i, j in data.draw(st.lists(st.sampled_from(all_pairs(n)), max_size=2), label="toggles"):
        if space.admits(g.toggled(i, j)):
            g = g.toggled(i, j)
    h = triads_maxmin(alpha) if sense == "maximize" else mirrored(triads_maxmin(alpha))
    adds, removes = improving_directions(h, grid_values(h, g))
    # the directions are the Fraction reference's, balance points included
    helpful = helpful_directions(h, g, reference_value(h, h.terms, g))
    assert (adds, removes) == (helpful[True], helpful[False])
    base = eval_hamiltonian(h, g)
    for i, j in all_pairs(n):
        added = not g.has_edge(i, j)
        t = g.toggled(i, j)
        if (adds if added else removes) or not space.admits(t):
            continue
        value = eval_hamiltonian(h, t)
        assert not (value > base if sense == "maximize" else value < base), (i, j)


# 375 / 230 / 1 590 before the non-edge term could rule out a direction
@pytest.mark.parametrize("alpha, evaluations", [
    (Fraction(7, 10), 375), (Fraction(1, 2), 230), (Fraction(3, 10), 0)])
def test_the_n60_witnesses_certify_in_one_scan_of_the_open_pairs(alpha, evaluations):
    # at 3/10 the triangle term binds, which rules out removals, and one more
    # edge would take the non-edge term down to it, which rules out additions
    g = witness(60, alpha, connected=True)
    res = first_improve(g, triads_maxmin(alpha), CONNECTED)
    assert (res.graph, res.nodes_explored) == (g, evaluations)
