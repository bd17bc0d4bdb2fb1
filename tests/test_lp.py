import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmax import (
    DisconnectedGraphError, Graph, Hamiltonian, SampleSpace, StatisticKind, StatisticSpec,
    brute_force, eval_hamiltonian, is_connected, s_flow_distance,
)
from ergmax import lp
from ergmax.graph import num_pairs, reached, total_hop_count
from ergmax.stats import random_unit_square_delta, uniform_delta

from helpers import iter_graphs, mc_flow_lp_value, solve_ir_with_milp, triads_maxmin


def corner_assignment(xij, xjk, xik, **extra):
    a = {"x_0_1": xij, "x_1_2": xjk, "x_0_2": xik}
    a.update(extra)
    return a


def feasible(cs, assignment):
    r = lp.check_assignment(cs, assignment)
    return not r.row_violations and not r.variable_violations


# -- triangle indicators -----------------------------------------------------


def aux_triangle_system(n):
    """Auxiliary-variable triangle system, kept only as a negative result.

    Nine rows per triple.  The third sandwich row repeats x_ij instead of
    covering the closing edge x_ik, so w is NOT pinned on every corner.
    """
    cs = lp.ConstraintSystem("triangle_indicators_aux")
    lp.ensure_edge_variables(cs, n)
    for i, j, k in itertools.combinations(range(n), 3):
        w, y, z = (f"{v}_{i}_{j}_{k}" for v in "wyz")
        xij, xjk, xik = lp.x_name(i, j), lp.x_name(j, k), lp.x_name(i, k)
        for v in (w, y, z):
            cs.add_variable(v, "binary")
        for tag, xv in (("e1", xij), ("e2", xjk), ("e3", xij)):
            cs.add_row(f"triaux_{tag}lo_{i}_{j}_{k}", {xv: 1, z: 1}, ">=", 1)
            cs.add_row(f"triaux_{tag}hi_{i}_{j}_{k}", {xv: 1, y: -1}, "<=", 0)
        cs.add_row(f"triaux_wlo_{i}_{j}_{k}", {y: 1, z: -1, w: -1}, "<=", 0)
        cs.add_row(f"triaux_whi_{i}_{j}_{k}", {w: 1, z: 1}, "<=", 1)
        cs.add_row(f"triaux_sum_{i}_{j}_{k}", {xij: 1, xjk: 1, xik: 1, z: 1}, "<=", 3)
    return cs


def aux_triangle_assignment(g):
    values = {}
    for i, j, k in itertools.combinations(range(g.n), 3):
        prod = int(g.has_edge(i, j) and g.has_edge(j, k) and g.has_edge(i, k))
        values |= {f"w_{i}_{j}_{k}": prod, f"y_{i}_{j}_{k}": 1, f"z_{i}_{j}_{k}": 1 - prod}
    return values


def test_and_linearization_pins_w_on_every_corner():
    cs = lp.build_triangle_indicators(3)
    for xij, xjk, xik in itertools.product((0, 1), repeat=3):
        feasible_w = [
            w
            for w in (0, 1)
            if feasible(cs, corner_assignment(xij, xjk, xik, w_0_1_2=w))
        ]
        assert feasible_w == [xij * xjk * xik]


def test_aux_variant_fails_to_pin_w_on_the_repeated_row_corner():
    cs = aux_triangle_system(3)
    unpinned = {}
    for corner in itertools.product((0, 1), repeat=3):
        feasible_w = set()
        for w, y, z in itertools.product((0, 1), repeat=3):
            a = corner_assignment(*corner, w_0_1_2=w, y_0_1_2=y, z_0_1_2=z)
            if feasible(cs, a):
                feasible_w.add(w)
        prod = corner[0] * corner[1] * corner[2]
        if feasible_w != {prod}:
            unpinned[corner] = sorted(feasible_w)
    # the third sandwich row repeats x_01, so x_02 = 0 goes unnoticed
    assert unpinned == {(1, 1, 0): [0, 1]}


def test_triangle_indicator_assignment_is_feasible_for_both_variants():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    cs = lp.build_triangle_indicators(4)
    assert feasible(cs, lp.edge_assignment(g) | lp.triangle_indicator_assignment(g))
    assert feasible(aux_triangle_system(4), lp.edge_assignment(g) | aux_triangle_assignment(g))


# -- fixed density -----------------------------------------------------------


def test_fixed_density_row_semantics():
    cs = lp.build_fixed_density(5, 4)
    count = sum(1 for g in iter_graphs(5) if feasible(cs, lp.edge_assignment(g)))
    assert count == 210  # C(10, 4)


def test_fixed_density_extremes():
    full = lp.build_fixed_density(4, 6)
    assert [g for g in iter_graphs(4) if feasible(full, lp.edge_assignment(g))] == [
        Graph.complete(4)
    ]
    empty = lp.build_fixed_density(4, 0)
    assert [g for g in iter_graphs(4) if feasible(empty, lp.edge_assignment(g))] == [Graph(4)]
    with pytest.raises(ValueError):
        lp.build_fixed_density(4, 7)


# -- connectivity flow -------------------------------------------------------


def test_star_flow_routes_one_unit_per_spoke():
    g = Graph.star(5, center=0)
    values = lp.connectivity_flow_assignment(g)
    for v in range(1, 5):
        assert values[lp.flow_name(0, v)] == 1
    cs = lp.build_connectivity_flow(5)
    assert feasible(cs, lp.edge_assignment(g) | values)


def test_path_flow_example():
    g = Graph.path(3)
    values = lp.connectivity_flow_assignment(g)
    assert values["f_0_1"] == 2
    assert values["f_1_2"] == 1


def test_flow_feasibility_matches_connectivity_n4():
    cs = lp.build_connectivity_flow(4)
    for g in iter_graphs(4):
        if is_connected(g):
            a = lp.edge_assignment(g) | lp.connectivity_flow_assignment(g)
            assert feasible(cs, a)
        else:
            with pytest.raises(Exception):
                lp.connectivity_flow_assignment(g)
            cut = lp.zero_capacity_cut(g)
            assert 0 < len(cut) < 4
            for i in cut:
                for j in range(4):
                    if j not in cut:
                        assert not g.has_edge(min(i, j), max(i, j))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.data())
def test_layer_built_tree_flows_certify_connectivity_and_hop_counts(n, data):
    g = Graph(n, data.draw(st.integers(min_value=0, max_value=(1 << num_pairs(n)) - 1)))
    if is_connected(g):
        mc_flow = lp.multicommodity_flow_assignment(g)
        for cs, flow in (
            (lp.build_connectivity_flow(n), lp.connectivity_flow_assignment(g)),
            (lp.build_multicommodity_flow(n), mc_flow),
        ):
            r = lp.check_assignment(cs, lp.edge_assignment(g) | flow)
            assert r.feasible and not r.semantic_notes
        assert sum(mc_flow.values()) == total_hop_count(g)
    else:
        with pytest.raises(DisconnectedGraphError):
            lp.connectivity_flow_assignment(g)
        with pytest.raises(DisconnectedGraphError):
            lp.multicommodity_flow_assignment(g)
        mask = reached(g, 0)
        assert lp.zero_capacity_cut(g) == {v for v in range(n) if mask >> v & 1}


def test_disconnected_graph_violates_some_flow_row_for_any_flow():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    cs = lp.build_connectivity_flow(4)
    # route as if the graph were a path 0-1-2-3: capacities cut it off
    fake = Graph.path(4)
    a = lp.edge_assignment(g) | lp.connectivity_flow_assignment(fake)
    r = lp.check_assignment(cs, a)
    assert r.row_violations
    # zero flow instead: balances fail
    zero = {name: 0 for name in lp.connectivity_flow_assignment(fake)}
    r = lp.check_assignment(cs, lp.edge_assignment(g) | zero)
    assert any(v.row.startswith("flow_balance") for v in r.row_violations)


# -- multicommodity flow -----------------------------------------------------


def test_multicommodity_lp_matches_flow_distance_examples():
    for g in (Graph.complete(3), Graph.path(3)):
        assert mc_flow_lp_value(g) == pytest.approx(s_flow_distance(g))
    assert mc_flow_lp_value(Graph.from_edges(4, [(0, 1), (2, 3)])) is None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_multicommodity_lp_matches_flow_distance_exhaustive(n):
    for g in iter_graphs(n):
        if is_connected(g):
            assert mc_flow_lp_value(g) == pytest.approx(s_flow_distance(g))


def test_multicommodity_assignment_feasible_and_costs_the_statistic():
    g = Graph.star(5)
    cs = lp.build_multicommodity_flow(5)
    values = lp.multicommodity_flow_assignment(g)
    assert feasible(cs, lp.edge_assignment(g) | values)
    total = sum(values.values())
    assert total == s_flow_distance(g)


# -- full models -------------------------------------------------------------


def test_maxmin_model_accepts_the_brute_force_optimum():
    alpha = Fraction(1, 2)
    cs = lp.build_maxmin(4, alpha)
    res, _ = brute_force(4, SampleSpace.connected_graphs(), triads_maxmin(alpha))
    a = lp.maxmin_assignment(4, alpha, res.graph)
    assert a["H"] == res.objective
    assert feasible(cs, a)
    with pytest.raises(ValueError, match="the model has n=5"):
        lp.maxmin_assignment(5, alpha, res.graph)


def test_maxmin_alpha_zero_forces_h_to_zero():
    cs = lp.build_maxmin(4, Fraction(0))
    g = Graph.complete(4)
    a = lp.maxmin_assignment(4, Fraction(0), g)
    assert a["H"] == 0
    assert feasible(cs, a)
    a["H"] = Fraction(1, 10)
    r = lp.check_assignment(cs, a)
    assert not r.feasible  # the zero-weight epigraph row pins H


ALPHAS = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]


def milp_decoded_graph(cs):
    # HiGHS solves in floats, so its objective is not compared: its raw solution
    # must meet every row, bound, 0/1 value and edge product within 1e-6, and
    # the graph it decodes to is re-scored exactly
    solved = solve_ir_with_milp(cs)
    assert solved is not None
    verdict = lp.check_assignment(cs, solved[1], tolerance=Fraction(1, 10**6))
    assert verdict.feasible and not verdict.semantic_notes
    assert verdict.graph is not None and is_connected(verdict.graph)
    return verdict.graph


@pytest.mark.parametrize("alpha", ALPHAS)
def test_maxmin_milp_reproduces_the_brute_force_optimum(alpha):
    # end-to-end: the full mixed-binary model handed to an external solver
    h = triads_maxmin(alpha)
    g = milp_decoded_graph(lp.build_maxmin(6, alpha))
    ref, _ = brute_force(6, SampleSpace.connected_graphs(), h)
    assert eval_hamiltonian(h, g) == ref.objective


def test_minmax_distance_milp_reproduces_the_brute_force_optimum():
    # distances scaled by 20, so the hop term binds at some weights
    for seed, alpha in itertools.product([1, 3], ALPHAS):
        delta = tuple(tuple(20 * d for d in row) for row in random_unit_square_delta(6, seed))
        h = Hamiltonian.max_min_pair(
            alpha,
            StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta),
            StatisticSpec(StatisticKind.FLOW_DISTANCE),
            sense="minimize",
        )
        g = milp_decoded_graph(lp.build_minmax_distance(6, alpha, delta))
        ref, _ = brute_force(6, SampleSpace.connected_graphs(), h)
        assert eval_hamiltonian(h, g) == ref.objective, (seed, alpha)


def test_minmax_distance_model_builds_and_checks():
    delta = uniform_delta(4)
    cs = lp.build_minmax_distance(4, Fraction(1, 2), delta)
    g = Graph.complete(4)
    a = lp.edge_assignment(g) | lp.multicommodity_flow_assignment(g)
    a["H"] = max(Fraction(1, 2) * 6, Fraction(1, 2) * 12)
    assert feasible(cs, a)


# -- checker details ---------------------------------------------------------


def test_undeclared_variables_are_refused_in_order_and_leave_the_system_as_it_was():
    cs = lp.build_fixed_density(3, 1)
    rows = list(cs.rows)
    with pytest.raises(ValueError, match=r"row 'r' references undeclared variables \['z', 'y'\]"):
        cs.add_row("r", {"z": 1, "x_0_1": 1, "y": 2}, "<=", 1)
    assert cs.rows == rows
    with pytest.raises(ValueError, match=r"objective references undeclared variables \['y', 'z'\]"):
        cs.set_objective("maximize", {"y": 1, "x_0_1": 1, "z": 1})
    assert cs.objective == {} and cs.objective_sense == "minimize"
    # a block is refused at its first row that names an undeclared variable
    with pytest.raises(ValueError, match=r"row 'r' references undeclared variables \['z', 'y'\]"):
        cs.add_block([lp.Row("q_{0}", {"x_0_{0}": 1}, "<=", 1),
                      lp.Row("r", {"z": 1, "x_0_{0}": 1, "y": 2}, "<=", 1)], [("1",)])
    assert cs.rows == rows
    # the refused rows' names were not taken
    cs.add_row("r", {"x_0_1": 1}, "<=", 1)
    assert [r.name for r in cs.rows] == [r.name for r in rows] + ["r"]


@pytest.mark.parametrize(
    "patterns, indices, message",
    [
        # a row name repeated inside the block, then against an earlier row
        ([("t_{0}", {"x_0_1": 1}, "<=", 1), ("t_1", {"x_0_1": 1}, "<=", 1)],
         [("0",), ("1",)], r"row 't_1' declared twice"),
        ([("t_{0}", {"x_0_{0}": 1}, "<=", 1)], [("1",), ("1",)], r"row 't_1' declared twice"),
        ([("s_{1}", {"x_{0}_{1}": 1}, ">=", 0)], [("0", "2"), ("0", "1")],
         r"row 's_1' declared twice"),
        ([("u_{0}", {"x_0_1": 1, "x_0_{0}": -1, "y_{0}": 1}, "<=", 1)],
         [("2",), ("3",), ("4",)], r"row 'u_2' references undeclared variables \['y_2'\]"),
        ([("v_{0}", {"x_0_{0}": 1}, "=<", 1)], [("1",)], r"unknown relation '=<'"),
        ([("v_{a}", {"x_0_1": 1}, "<=", 1)], [("1",)], r"field \{a\}"),
        ([("v_{0:>3}", {"x_0_1": 1}, "<=", 1)], [("1",)], r"field \{0\}"),
        ([("v_{1}", {"x_0_1": 1}, "<=", 1)], [("1",)], r"no index entry"),
        ([("v_{0}", {"x_0_1": 1}, "<=", 1)], [("1",), ("-1",)], r"'-1' is not a string"),
        ([("v_{0}", {"x_0_1": 1}, "<=", 1)], [(1,)], r"1 is not a string of decimal digits"),
    ],
)
def test_a_refused_block_raises_as_add_row_does_and_adds_nothing(patterns, indices, message):
    cs = lp.build_fixed_density(3, 1)
    cs.add_row("s_1", {"x_0_1": 1}, "<=", 1)
    rows, row_names, var_names = cs.rows, set(cs._row_names), set(cs._var_names)
    text = lp.lp_string(cs)
    with pytest.raises(ValueError, match=message):
        cs.add_block([lp.Row(*p) for p in patterns], indices)
    assert cs.rows == rows and cs._row_names == row_names and cs._var_names == var_names
    assert lp.lp_string(cs) == text
    # a block without fields over one empty tuple is add_row's row
    cs.add_block([lp.Row("t{{0}}", {"x_0_1": 1}, "<=", 1)], [()])
    assert cs.rows[-1] == lp.Row("t{0}", {"x_0_1": Fraction(1)}, "<=", Fraction(1))


@pytest.mark.parametrize(
    "patterns, indices, error, message",
    [
        # a name repeated inside the block, across its tuples, then against an earlier block
        ([("y_{0}", "binary"), ("y_1", "binary")], [("0",), ("1",)],
         ValueError, r"variable 'y_1' declared twice"),
        ([("y_{0}", "binary")], [("2",), ("2",)], ValueError, r"variable 'y_2' declared twice"),
        ([("s_{0}", "continuous")], [("0",), ("1",)], ValueError,
         r"variable 's_1' declared twice"),
        ([("x_{0}_{1}", "binary")], [("1", "3"), ("0", "2")], ValueError,
         r"variable 'x_0_2' declared twice"),
        ([("v_{a}", "binary")], [("1",)], ValueError, r"field \{a\}"),
        ([("v_{0:>3}", "binary")], [("1",)], ValueError, r"field \{0\}"),
        ([("v_{1}", "binary")], [("1",)], ValueError, r"no index entry"),
        ([("v_{0}", "binary")], [("1",), ("-1",)], ValueError, r"'-1' is not a string"),
        ([("v_{0}", "binary")], [(1,)], ValueError, r"1 is not a string of decimal digits"),
        ([("v_{0}", "integer")], [("1",)], ValueError, r"unknown variable kind 'integer'"),
        ([("v_{0}", "binary", 0, 1)], [("1",)], ValueError,
         r"binary variable 'v_\{0\}' takes no bounds"),
        ([("v_{0}", "binary"), (5, "binary")], [("1",)], TypeError, r"name 5 is not a string"),
    ],
)
def test_a_refused_variable_block_raises_as_add_variable_does_and_adds_nothing(
        patterns, indices, error, message):
    cs = lp.build_fixed_density(3, 1)
    cs.add_variable("s_1", "continuous", lower=0)
    variables, var_names, text = cs.variables, set(cs._var_names), lp.lp_string(cs)
    with pytest.raises(error, match=message):
        cs.add_variable_block([lp.Variable(*p) for p in patterns], indices)
    assert cs.variables == variables and cs._var_names == var_names
    assert lp.lp_string(cs) == text
    # a block without fields over one empty tuple is add_variable's variable
    cs.add_variable_block([lp.Variable("t{{0}}", "continuous", 0)], [()])
    assert cs.variables[-1] == lp.Variable("t{0}", "continuous", Fraction(0), None)


@pytest.mark.parametrize(
    "args, error, message",
    [
        (("x_0_1", "binary"), ValueError, r"variable 'x_0_1' declared twice"),
        (("y", "integer"), ValueError, r"unknown variable kind 'integer'"),
        ((5, "binary"), TypeError, r"name 5 is not a string"),
        (("y", "binary", 1, 1), ValueError, r"binary variable 'y' takes no bounds"),
        (("y", "binary", None, 0), ValueError, r"binary variable 'y' takes no bounds"),
    ],
)
def test_add_variable_refuses_and_declares_nothing(args, error, message):
    cs = lp.build_fixed_density(3, 1)
    variables = cs.variables
    with pytest.raises(error, match=message):
        cs.add_variable(*args)
    assert cs.variables == variables and not cs.has_variable("y")


def test_an_ir_with_a_bounded_binary_variable_is_malformed():
    # once kept in the IR, dropped by the LP text and ignored by the checker
    ir = lp.build_fixed_density(3, 1).to_json_dict()
    ir["variables"][0]["lower"] = ir["variables"][0]["upper"] = "1"
    with pytest.raises(ValueError, match=r"malformed constraint IR: binary variable 'x_0_1' "
                                         r"takes no bounds"):
        lp.ConstraintSystem.from_json_dict(ir)


def test_check_assignment_requires_full_coverage():
    cs = lp.build_fixed_density(3, 1)
    with pytest.raises(ValueError):
        lp.check_assignment(cs, {"x_0_1": 1})


def test_check_assignment_flags_w_without_edge():
    cs = lp.build_triangle_indicators(3)
    a = corner_assignment(1, 1, 0, w_0_1_2=1)
    r = lp.check_assignment(cs, a)
    assert any(v.row == "tri_ub3_0_1_2" for v in r.row_violations)
    assert any("w_0_1_2" in note for note in r.semantic_notes)


def test_check_assignment_decodes_graph_and_flags_binaries():
    cs = lp.build_fixed_density(3, 1)
    r = lp.check_assignment(cs, {"x_0_1": 1, "x_0_2": 0, "x_1_2": 0})
    assert r.feasible
    assert r.graph == Graph.from_edges(3, [(0, 1)])
    r = lp.check_assignment(cs, {"x_0_1": Fraction(1, 2), "x_0_2": 0, "x_1_2": 0})
    assert r.variable_violations


def test_check_assignment_compares_triangle_indicators_within_the_tolerance():
    # K5 with every indicator a hair below 1, as a floating-point solver returns it
    cs = lp.build_maxmin(5, Fraction(1, 2))
    a = lp.maxmin_assignment(5, Fraction(1, 2), Graph.complete(5))
    near = a | {name: 1 - Fraction(1, 10**9) for name in a if name.startswith("w_")}
    loose = lp.check_assignment(cs, near, tolerance=Fraction(1, 10**6))
    assert loose.feasible and not loose.semantic_notes
    assert not lp.check_assignment(cs, near).feasible
    # an indicator farther off than the tolerance is still named
    far = a | {"w_0_1_2": 1 - Fraction(1, 10**5)}
    notes = lp.check_assignment(cs, far, tolerance=Fraction(1, 10**6)).semantic_notes
    assert notes == ["w_0_1_2 = 99999/100000 but the edge product is 1"]


@pytest.mark.parametrize("n, delta, message", [
    (3, uniform_delta(4), "distance matrix is 4x4, graph has n=3"),
    (4, uniform_delta(3), "distance matrix is 3x3, graph has n=4"),
    (3, ((0, 1, 2), (1, 0, 1), (1, 1, 0)), "distance matrix asymmetric at (0, 2)"),
    (3, ((0, -1, 1), (-1, 0, 1), (1, 1, 0)), "negative distance at (0, 1)"),
])
def test_the_distance_model_refuses_a_matrix_it_cannot_score(n, delta, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        lp.build_minmax_distance(n, Fraction(1, 2), delta)


def test_check_assignment_tolerance_for_solver_floats():
    cs = lp.build_fixed_density(3, 1)
    a = {"x_0_1": 0.9999999999, "x_0_2": 0.0, "x_1_2": 0.0}
    strict = lp.check_assignment(cs, a)
    assert not strict.feasible
    loose = lp.check_assignment(cs, a, tolerance=Fraction(1, 10**6))
    assert loose.feasible
