import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmax import (
    DisconnectedGraphError,
    Graph,
    average_local_clustering,
    average_path_length,
    clustering_coefficient,
    count_triangles,
    edge_index,
    eval_hamiltonian,
    graph_metrics,
    is_connected,
    pair_of,
    read_edge_list,
)
from ergmax.graph import (
    all_pairs, bfs_layers, edge_list_string, num_pairs, reached, total_hop_count,
)
from ergmax.stats import random_unit_square_delta, s_physical_distance

from helpers import iter_graphs, triads_maxmin, triangle_count_by_triples, union_find_connected


# -- pair indexing -----------------------------------------------------------


def test_edge_index_examples():
    assert edge_index(0, 1, 4) == 0
    assert edge_index(2, 3, 4) == 5
    assert edge_index(0, 3, 4) == 2


@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (0, 4), (-1, 2)])
def test_edge_index_rejects_bad_pairs(i, j):
    with pytest.raises(ValueError):
        edge_index(i, j, 4)


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_index_roundtrip_exhaustive(n):
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            idx = edge_index(i, j, n)
            assert pair_of(idx, n) == (i, j)
            seen.add(idx)
    assert seen == set(range(num_pairs(n)))
    for index in (-1, num_pairs(n)):
        with pytest.raises(ValueError, match="out of range"):
            pair_of(index, n)


@given(st.integers(min_value=2, max_value=200), st.data())
def test_pair_index_roundtrip_random(n, data):
    i = data.draw(st.integers(min_value=0, max_value=n - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=n - 1))
    assert pair_of(edge_index(i, j, n), n) == (i, j)


def test_all_pairs_is_one_shared_table_in_rank_order():
    assert all_pairs(5) is all_pairs(5)
    assert [edge_index(i, j, 5) for i, j in all_pairs(5)] == list(range(num_pairs(5)))
    assert all_pairs(1) == ()


# -- constructors ------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_star_path_and_cycle_edge_sets(n):
    for center in range(n):
        expected = {(min(center, v), max(center, v)) for v in range(n) if v != center}
        assert set(Graph.star(n, center).edges()) == expected
    assert set(Graph.path(n).edges()) == {(v, v + 1) for v in range(n - 1)}
    if n >= 3:
        assert set(Graph.cycle(n).edges()) == {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
    else:
        with pytest.raises(ValueError):
            Graph.cycle(n)


# -- triangles ---------------------------------------------------------------


def test_triangle_examples():
    assert count_triangles(Graph.complete(4)) == 4
    assert count_triangles(Graph.star(5)) == 0
    assert count_triangles(Graph.cycle(5)) == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_triangles_match_triple_enumeration(n):
    for g in iter_graphs(n):
        assert count_triangles(g) == triangle_count_by_triples(g)


def test_triangles_match_triple_enumeration_n6():
    # full sweep of all 2^15 graphs, then random graphs up to n = 8
    for g in iter_graphs(6):
        assert count_triangles(g) == triangle_count_by_triples(g)
    rng = random.Random(6)
    for n in (7, 8):
        for _ in range(500):
            g = Graph(n, rng.getrandbits(num_pairs(n)))
            assert count_triangles(g) == triangle_count_by_triples(g)


# -- connectivity ------------------------------------------------------------


def test_connectivity_examples():
    assert is_connected(Graph.star(6))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_connectivity_matches_union_find(n):
    for g in iter_graphs(n):
        assert is_connected(g) == union_find_connected(g)


# -- path lengths ------------------------------------------------------------


def test_average_path_length_examples():
    assert average_path_length(Graph.complete(4)) == 1
    assert average_path_length(Graph.path(3)) == Fraction(4, 3)
    assert average_path_length(Graph.star(5)) == Fraction(8, 5)


def test_average_path_length_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        average_path_length(Graph.from_edges(4, [(0, 1), (2, 3)]))


# -- clustering --------------------------------------------------------------


def test_clustering_examples():
    assert clustering_coefficient(Graph.complete(4)) == 1
    assert clustering_coefficient(Graph.star(5)) == 0
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert clustering_coefficient(paw) == Fraction(3, 5)


def test_average_local_clustering_on_paw():
    # nodes 0,1 close their single neighbor pair; node 2 closes 1 of 3; node 3 has degree 1
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert average_local_clustering(paw) == (1 + 1 + Fraction(1, 3) + 0) / 4


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_average_local_clustering_matches_a_mean_of_per_node_fractions(n, data):
    # small edge sets leave isolated and degree-1 nodes, which count as 0
    edges = data.draw(st.sets(st.sampled_from(all_pairs(n))) if n > 1 else st.just(set()))
    g = Graph.from_edges(n, edges)
    reference = Fraction(0)
    for v in range(n):
        nbrs = [u for u in range(n) if u != v and g.has_edge(u, v)]
        if len(nbrs) > 1:
            links = sum(g.has_edge(a, b) for a in nbrs for b in nbrs if a < b)
            reference += Fraction(2 * links, len(nbrs) * (len(nbrs) - 1))
    assert average_local_clustering(g) == reference / n


# -- monotonicity under edge addition ----------------------------------------


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_adding_an_edge_is_monotone(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << num_pairs(n)) - 1))
    g = Graph(n, bits)
    absent = [p for p in range(num_pairs(n)) if not bits >> p & 1]
    if not absent:
        return
    p = data.draw(st.sampled_from(absent))
    g2 = Graph(n, bits | 1 << p)
    assert count_triangles(g2) >= count_triangles(g)
    assert g2.edge_count == g.edge_count + 1
    if is_connected(g):
        assert average_path_length(g2) <= average_path_length(g)


@given(st.integers(min_value=2, max_value=8),
       st.sampled_from(["bare", "rows", "counted"]), st.data())
def test_toggled_graphs_carry_their_adjacency_rows(n, start, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << num_pairs(n)) - 1))
    g = Graph(n, bits)
    if start == "rows":
        g.adjacency()
    elif start == "counted":
        count_triangles(g)
    steps = (Graph.toggled, Graph.with_edge, Graph.without_edge)
    for i, j in data.draw(st.lists(st.sampled_from(all_pairs(n)), max_size=12)):
        step = data.draw(st.sampled_from(steps))
        g = step(g, i, j) if data.draw(st.booleans()) else step(g, j, i)
    assert count_triangles(g) == count_triangles(Graph(n, g.bits))
    assert g.adjacency() == Graph(n, g.bits).adjacency()


# -- metrics bundle ----------------------------------------------------------


def test_graph_metrics_consistency():
    g = Graph.star(5)
    m = graph_metrics(g)
    assert m.density == Fraction(4, 10)
    assert m.edge_count == 4
    assert m.triangle_count == 0
    assert m.average_path_length == Fraction(8, 5)
    disc = graph_metrics(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert disc.average_path_length is None


def test_triangle_count_below_binomial_bound():
    for g in iter_graphs(5):
        assert count_triangles(g) <= 10  # C(5,3)


# -- edge-list format --------------------------------------------------------


def test_edge_list_roundtrip():
    g = Graph.from_edges(5, [(0, 4), (1, 2), (0, 1)])
    text = edge_list_string(g)
    assert text.splitlines()[0] == "5 3"
    # writer emits sorted lexicographic order
    assert text.splitlines()[1:] == ["0 1", "0 4", "1 2"]
    assert read_edge_list(io.StringIO(text)) == g


@given(st.integers(min_value=1, max_value=8), st.randoms())
def test_edge_list_roundtrip_random(n, rnd):
    bits = rnd.getrandbits(num_pairs(n)) if num_pairs(n) else 0
    g = Graph(n, bits)
    assert read_edge_list(io.StringIO(edge_list_string(g))) == g


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("3\n0 1\n"))
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("3 1\n1 0\n"))
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("3 1\n0 3\n"))


def test_edge_list_rejects_a_header_count_that_differs_from_the_distinct_edges():
    with pytest.raises(ValueError, match="distinct"):
        read_edge_list(io.StringIO("3 3\n0 1\n0 1\n1 2\n"))


def test_edge_list_rejects_lines_after_the_last_edge():
    with pytest.raises(ValueError, match="after"):
        read_edge_list(io.StringIO("3 1\n0 1\n1 2\n"))
    # trailing blank lines are harmless
    assert read_edge_list(io.StringIO("3 1\n0 1\n\n  \n")) == Graph.from_edges(3, [(0, 1)])


# -- relabelling -------------------------------------------------------------


@given(st.integers(min_value=2, max_value=8), st.data())
def test_relabelling_nodes_preserves_statistics_and_bfs(n, data):
    g = Graph(n, data.draw(st.integers(min_value=0, max_value=(1 << num_pairs(n)) - 1)))
    pi = data.draw(st.permutations(range(n)))
    pg = Graph.from_edges(n, ((pi[i], pi[j]) for i, j in g.edges()))
    h = triads_maxmin(Fraction(3, 10))
    assert eval_hamiltonian(h, pg) == eval_hamiltonian(h, g)

    delta = random_unit_square_delta(n, seed=data.draw(st.integers(min_value=0, max_value=2**32)))
    moved = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            moved[pi[i]][pi[j]] = delta[i][j]
    p_delta = tuple(tuple(row) for row in moved)
    assert s_physical_distance(pg, p_delta) == s_physical_distance(g, delta)

    if is_connected(g):
        assert total_hop_count(pg) == total_hop_count(g)
    else:
        with pytest.raises(DisconnectedGraphError):
            total_hop_count(pg)

    def moved_mask(mask):
        return sum(1 << pi[v] for v in range(n) if mask >> v & 1)

    for s in range(n):
        assert reached(pg, pi[s]) == moved_mask(reached(g, s))
        layers, p_layers = (tuple(bfs_layers(x.adjacency(), v)) for x, v in ((g, s), (pg, pi[s])))
        assert [layer.bit_count() for layer in p_layers] == [layer.bit_count() for layer in layers]
        assert p_layers == tuple(moved_mask(layer) for layer in layers)
