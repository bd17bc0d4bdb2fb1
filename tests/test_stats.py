import dataclasses
import hashlib
import io
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergmax import (
    DisconnectedGraphError,
    Graph,
    Hamiltonian,
    StatisticKind,
    StatisticSpec,
    average_path_length,
    eval_hamiltonian,
    is_connected,
    random_unit_square_delta,
    s_flow_distance,
    s_non_edges,
    s_physical_distance,
)
from ergmax.graph import num_pairs
from ergmax.stats import (
    HamiltonianForm,
    _unit_draws,
    grid_reader,
    grid_stepper,
    grid_values,
    improving_directions,
    parse_delta,
    statistic_values,
    uniform_delta,
    validate_delta,
    write_delta,
)

from helpers import iter_graphs, ordered_hop_sum, triads_maxmin

NE = StatisticSpec(StatisticKind.NON_EDGES)
TRI = StatisticSpec(StatisticKind.TRIANGLES)


def test_non_edges_examples():
    assert s_non_edges(Graph.complete(4)) == 0
    assert s_non_edges(Graph(5)) == 10
    assert s_non_edges(Graph.star(5)) == 6


def test_physical_distance_examples():
    assert s_physical_distance(Graph(3), uniform_delta(3)) == 0
    delta = uniform_delta(2, Fraction(3, 2))
    assert s_physical_distance(Graph.from_edges(2, [(0, 1)]), delta) == Fraction(3, 2)
    assert s_physical_distance(Graph.complete(3), uniform_delta(3)) == 3


def test_only_physical_distance_depends_on_the_node_labels():
    # bnb breaks label symmetry only when every term is label-invariant
    assert [k for k in StatisticKind if not k.label_invariant] == [StatisticKind.PHYSICAL_DISTANCE]
    # the same star, centred elsewhere, sits on other distances
    delta = random_unit_square_delta(5, seed=1)
    assert s_physical_distance(Graph.star(5, center=0), delta) != s_physical_distance(
        Graph.star(5, center=1), delta)


def test_physical_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        s_physical_distance(Graph.complete(3), uniform_delta(4))


def test_flow_distance_examples():
    assert s_flow_distance(Graph.complete(4)) == 12
    assert s_flow_distance(Graph.path(3)) == 8
    # star on 5 nodes: 8 ordered pairs at hop 1, 12 at hop 2
    assert s_flow_distance(Graph.star(5)) == 32


def test_flow_distance_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        s_flow_distance(Graph.from_edges(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flow_distance_identity_and_independent_oracle(n):
    for g in iter_graphs(n):
        if not is_connected(g):
            continue
        flow = s_flow_distance(g)
        assert flow == n * (n - 1) * average_path_length(g)
        assert flow == ordered_hop_sum(g)


# -- Hamiltonians ------------------------------------------------------------


def test_eval_examples():
    h = triads_maxmin(Fraction(1, 2))
    assert eval_hamiltonian(h, Graph.star(5)) == 0
    lin = Hamiltonian.linear([(Fraction(1), NE), (Fraction(2), TRI)])
    assert eval_hamiltonian(lin, Graph.complete(4)) == 8
    assert eval_hamiltonian(triads_maxmin(Fraction(7, 10)), Graph.complete(4)) == 0


def test_maxmin_zero_on_trees_and_complete_graphs():
    for n in range(2, 7):
        h = triads_maxmin(Fraction(1, 2))
        assert eval_hamiltonian(h, Graph.star(n)) == 0
        assert eval_hamiltonian(h, Graph.path(n)) == 0
        assert eval_hamiltonian(h, Graph.complete(n)) == 0


def test_min_max_sense_flips_inner_aggregation():
    delta = uniform_delta(3)
    h = Hamiltonian.max_min_pair(
        Fraction(1, 2),
        StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta),
        StatisticSpec(StatisticKind.FLOW_DISTANCE),
        sense="minimize",
    )
    k3 = Graph.complete(3)
    # physical = 3, flow = 6; minimize takes the larger weighted term
    assert eval_hamiltonian(h, k3) == Fraction(6, 2)


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=20),
)
def test_maxmin_argmax_invariant_under_rescaling(t1, t2, c):
    graphs = [g for g in iter_graphs(4) if is_connected(g)]

    def argmax(theta1, theta2):
        h = Hamiltonian.max_min([(Fraction(theta1), NE), (Fraction(theta2), TRI)])
        best = max(eval_hamiltonian(h, g) for g in graphs)
        return {g.bits for g in graphs if eval_hamiltonian(h, g) == best}

    assert argmax(t1, t2) == argmax(c * t1, c * t2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_toggled_value_is_exact_and_moves_in_the_monotone_direction(data):
    n = data.draw(st.integers(2, 7), label="n")
    g = Graph(n, data.draw(st.integers(0, (1 << num_pairs(n)) - 1), label="bits"))
    i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    kind = data.draw(st.sampled_from(StatisticKind), label="kind")
    delta = random_unit_square_delta(n, n) if kind is StatisticKind.PHYSICAL_DISTANCE else None
    spec = StatisticSpec(kind, delta)
    read, step = grid_reader(spec), grid_stepper(spec)
    toggled = g.toggled(i, j)
    added = not g.has_edge(i, j)
    if kind is StatisticKind.FLOW_DISTANCE:
        assume(is_connected(g))  # local search only updates from a value at g
        if not is_connected(toggled):
            with pytest.raises(DisconnectedGraphError):
                step(g.adjacency(), i, j, added, s_flow_distance(g))
            return
    current = read(g)
    value = step(g.adjacency(), i, j, added, current)
    assert type(value) is int and value == read(toggled)
    if delta is not None:
        # the grid value is the distance sum times the grid, exactly
        assert Fraction(value, spec.grid) == s_physical_distance(toggled, delta)
    assert value >= current if added == kind.increasing else value <= current


def test_improving_directions_follow_the_binding_terms():
    # (adds, removes) at K4 (no non-edge, 4 triangles), the 5-star (6
    # non-edges, no triangle) and K4 less an edge (1 non-edge, 2 triangles)
    k4, star, chorded = Graph.complete(4), Graph.star(5), Graph.complete(4).toggled(0, 1)
    for h, g, directions in [
        (triads_maxmin(Fraction(1, 2)), k4, (False, True)),  # non-edges bind
        (triads_maxmin(Fraction(1, 2)), star, (True, False)),  # triangles bind
        (triads_maxmin(Fraction(2, 3)), chorded, (False, False)),  # both bind at 2/3
        (triads_maxmin(Fraction(0)), k4, (False, False)),  # a zero weight binds at 0
        (triads_maxmin(Fraction(1)), k4, (False, False)),  # so does either
        (triads_maxmin(Fraction(1, 2), "minimize"), k4, (False, True)),  # triangles bind
        (Hamiltonian.linear([(Fraction(1, 2), NE), (Fraction(1, 2), TRI)]), k4, (True, True)),
    ]:
        assert improving_directions(h, grid_values(h, g)) == directions, (h, g)


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        Hamiltonian.linear([])
    with pytest.raises(ValueError):
        Hamiltonian(HamiltonianForm.LINEAR, ((Fraction(1), NE),), sense="upward")
    with pytest.raises(ValueError):
        Hamiltonian.max_min_pair(Fraction(3, 2), NE, TRI)
    with pytest.raises(ValueError):
        StatisticSpec(StatisticKind.PHYSICAL_DISTANCE)
    with pytest.raises(ValueError):
        StatisticSpec(StatisticKind.TRIANGLES, uniform_delta(3))
    with pytest.raises(ValueError, match="unknown statistic kind"):
        StatisticSpec("triangles")
    with pytest.raises(ValueError, match="distances must be exact rationals"):
        StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, ((0, 0.5), (0.5, 0)))


def test_hamiltonian_makes_its_weights_exact_once():
    h = Hamiltonian.linear([(2, NE), (0.5, TRI)])
    assert [type(theta) for theta, _ in h.terms] == [Fraction, Fraction]
    assert [theta for theta, _ in h.terms] == [2, Fraction(1, 2)]
    value = eval_hamiltonian(Hamiltonian.linear([(3, NE), (-1, TRI)]), Graph.path(4))
    assert type(value) is Fraction and value == 9
    floored = dataclasses.replace(h, floor=0.25)
    assert type(floored.floor) is Fraction and floored.floor == Fraction(1, 4)


def test_hamiltonian_refuses_a_floor_when_minimizing():
    h = triads_maxmin(Fraction(1, 2), sense="minimize")
    with pytest.raises(ValueError, match="a floor needs a maximizing objective"):
        dataclasses.replace(h, floor=Fraction(1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_floor_withholds_exactly_the_values_whose_weighted_sum_misses_it(data):
    n = data.draw(st.integers(3, 6), label="n")
    g = Graph(n, data.draw(st.integers(0, (1 << num_pairs(n)) - 1), label="bits"))
    statistic = st.sampled_from(
        [NE, TRI, StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, random_unit_square_delta(n, n))])
    weight = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    terms = data.draw(st.lists(st.tuples(weight, statistic), min_size=1, max_size=3), label="terms")
    h = Hamiltonian(data.draw(st.sampled_from(HamiltonianForm), label="form"), tuple(terms))
    weighted_sum = sum(theta * v for (theta, _), v in zip(h.terms, statistic_values(h, g)))
    # floors at and either side of the weighted sum, and anywhere else
    floor = data.draw(
        st.sampled_from([weighted_sum - Fraction(1, 7), weighted_sum, weighted_sum + Fraction(1, 7)])
        | st.builds(Fraction, st.integers(-40, 40), st.integers(1, 4)),
        label="floor",
    )
    value = eval_hamiltonian(dataclasses.replace(h, floor=floor), g)
    if weighted_sum < floor:
        assert value is None
    else:
        assert value is not None and value == eval_hamiltonian(h, g)


# -- distance matrices -------------------------------------------------------


def test_random_delta_is_symmetric_grid_snapped_and_seeded():
    d1 = random_unit_square_delta(6, seed=9)
    d2 = random_unit_square_delta(6, seed=9)
    d3 = random_unit_square_delta(6, seed=10)
    assert d1 == d2
    assert d1 != d3
    validate_delta(d1)
    for i in range(6):
        for j in range(6):
            assert (d1[i][j] * 10**6).denominator == 1


# every one-word seed below 50, the 32-bit edge, and seeds of two to seven
# 32-bit words, which numpy's SeedSequence mixes into its pool word by word
PORT_SEEDS = [*range(50), 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3,
              123456789012345678901234567890, 2**128 + 5, 2**200 + 1]


def test_the_unit_draws_are_numpys_stream():
    np = pytest.importorskip("numpy")
    for seed in PORT_SEEDS:
        assert _unit_draws(seed, 128) == np.random.default_rng(seed).random(128).tolist(), seed


def test_the_unit_square_matrices_are_numpys():
    np = pytest.importorskip("numpy")
    for seed in [*range(40), *PORT_SEEDS[50:]]:
        for n in (2, 7, 14, 30, 60):
            pts = np.random.default_rng(seed).random((n, 2))
            expected = tuple(
                tuple(Fraction(0) if i == j else Fraction(round(
                    math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]) * 10**6), 10**6)
                    for j in range(n))
                for i in range(n))
            assert random_unit_square_delta(n, seed) == expected, (n, seed)


# sha256 of write_delta's text for matrices drawn by numpy's generator, so the
# generator stays pinned without numpy; n = 30 at seeds 1, 2 and 7 are the
# flow benchmark's inputs before scaling
DELTA_DIGESTS = {
    (2, 0): "9d74d1950981e4185f102d2a6e1bc101c6ff858281f67332a00539c01fa92cbe",
    (7, 3): "d949f9dcac4cfe8287b5922ee804d33ea5fee8b286c66888bed6eaa9c7d3b2a4",
    (14, 3): "c052cb9f0f2a8a65c6f0edc16b6f5bc11a113213f46193159526a897e1c5705a",
    (30, 1): "120cf55cc9dc7f8c218fd59d46360af84984dcf84e08551d6be6fddd7b0d108b",
    (30, 2): "9b4806fc154dd97edf1ff711f4e631151783e2de12cbee5ba40a48c3fe93a4be",
    (30, 7): "096bf3e040b5d8cbc1386a1bd25959a472b56f0decce4a94179df07863243f33",
    (60, 5): "9c63e54ef21004e7b3623e1c90ccc9090e5f3cc560f0831510a10313275e3072",
    (5, 2**40 + 7): "5990533839ff7bdd0fb87e8d74e58e42dc8bd57209a94033998568f85a1d7a4d",
}


@pytest.mark.parametrize(("n", "seed"), DELTA_DIGESTS)
def test_unit_square_matrices_match_their_recorded_digests(n, seed):
    buf = io.StringIO()
    write_delta(random_unit_square_delta(n, seed), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DELTA_DIGESTS[n, seed]


@pytest.mark.parametrize("seed", [None, 1.5, 1.0, "3"])
def test_the_generator_refuses_a_seed_that_is_not_an_int(seed):
    # a None seed would draw OS entropy, and a "seeded" run would never repeat
    with pytest.raises(TypeError):
        random_unit_square_delta(4, seed)


def test_the_generator_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        random_unit_square_delta(4, -1)


def test_delta_roundtrip_and_asymmetric_rejection():
    delta = random_unit_square_delta(4, seed=3)
    buf = io.StringIO()
    write_delta(delta, buf)
    assert parse_delta(io.StringIO(buf.getvalue())) == delta

    bad = parse_delta(io.StringIO("2\n0 0.5\n0.4 0\n"))
    with pytest.raises(ValueError):
        validate_delta(bad)


@pytest.mark.parametrize("text, message", [
    ("2\n0 0.5\n0.4 0\n", "asymmetric at \\(0, 1\\)"),
    ("2\n0 -1/3\n-1/3 0\n", "negative distance at \\(0, 1\\)"),
    ("2\n0.25 1\n1 0\n", "diagonal must be zero"),
], ids=["asymmetric", "negative", "diagonal"])
def test_a_bad_matrix_is_refused_by_the_statistic_and_by_validate_delta(text, message):
    delta = parse_delta(io.StringIO(text))
    with pytest.raises(ValueError, match=message):
        validate_delta(delta)
    with pytest.raises(ValueError, match=message):
        StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta)


def test_a_ragged_matrix_is_refused_by_the_statistic():
    with pytest.raises(ValueError, match="must be square"):
        StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, ((0, 1), (1,)))


def test_parse_delta_reads_each_distinct_text_once():
    delta = parse_delta(io.StringIO("3\n0 1/3 0.25\n1/3 0 2\n0.25 2 0\n"))
    assert delta == ((0, Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 3), 0, 2),
                     (Fraction(1, 4), 2, 0))
    assert all(delta[i][j] is delta[j][i] for i in range(3) for j in range(3))


DIGITS = "0123456789\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669\u0966\u0967\uff10\uff11"


@st.composite
def numeric_fields(draw):
    """One whitespace-free field: a decimal with a sign, leading zeros and
    an exponent, an a/b form, or a scramble of the characters numbers use,
    any of them in Unicode digits."""
    digits = st.text(DIGITS, max_size=4)
    sign = st.sampled_from(["", "+", "-"])
    form = draw(st.sampled_from(["decimal", "ratio", "scramble"]))
    if form == "decimal":
        point = draw(st.sampled_from(["", "."]))
        exponent = draw(st.sampled_from(["", "e", "E"]))
        if exponent:
            exponent += draw(sign) + draw(st.text(DIGITS, min_size=1, max_size=2))
        return draw(sign) + draw(digits) + point + draw(digits) + exponent
    if form == "ratio":
        return draw(sign) + draw(digits) + "/" + draw(digits)
    return draw(st.text("0123456789\u0663.eE+-_/xnaifINF", min_size=1, max_size=6))


def assert_parsed_as_fraction_reads(field):
    """parse_delta of a one-by-one matrix holding `field` is Fraction(field),
    and raises ValueError exactly where Fraction(field) raises."""
    try:
        expected = Fraction(field)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_delta(io.StringIO(f"1\n{field}\n"))
    else:
        assert parse_delta(io.StringIO(f"1\n{field}\n")) == ((expected,),)


@pytest.mark.parametrize("field", ["inf", "nan", "Infinity", "0x1", "1__0", "1_0", ".5", "5.", "1e3"])
def test_parse_delta_reads_the_corpus_as_fraction_does(field):
    assert_parsed_as_fraction_reads(field)


@settings(max_examples=500, deadline=None)
@given(numeric_fields())
def test_parse_delta_reads_a_drawn_field_as_fraction_does(field):
    assert_parsed_as_fraction_reads(field)


def test_delta_rejects_rows_after_the_last():
    with pytest.raises(ValueError, match="after"):
        parse_delta(io.StringIO("2\n0 1\n1 0\n1 0\n"))
