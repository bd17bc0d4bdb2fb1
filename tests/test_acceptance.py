"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; any failure also prints its line before the assertion fires.
"""

import itertools
import json
import time
from fractions import Fraction

from ergmax import (
    SampleSpace,
    average_path_length,
    branch_and_bound,
    brute_force,
    clustering_coefficient,
    count_triangles,
    eval_hamiltonian,
    first_improve,
    graph_metrics,
    has_improving_toggle,
    is_connected,
    lp_string,
    s_flow_distance,
    star_with_chords,
    structural_lower_bounds,
)
from ergmax import lp
from ergmax.frontier import witness
from ergmax.graph import num_pairs
from ergmax.reporting import ExperimentSpec, report_json_dict, run_experiment

from helpers import iter_graphs, triads_maxmin

CONNECTED = SampleSpace.connected_graphs()
GRID_ALPHAS = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))


def conclude(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_triangle_linearization_truth_table():
    t0 = time.perf_counter()
    cs = lp.build_triangle_indicators(3)
    all_pinned = True
    for xij, xjk, xik in itertools.product((0, 1), repeat=3):
        feasible_w = []
        for w in (0, 1):
            a = {"x_0_1": xij, "x_1_2": xjk, "x_0_2": xik, "w_0_1_2": w}
            r = lp.check_assignment(cs, a)
            if not r.row_violations and not r.variable_violations:
                feasible_w.append(w)
        all_pinned &= feasible_w == [xij * xjk * xik]
    elapsed = time.perf_counter() - t0
    conclude(
        1,
        all_pinned and elapsed < 1.0,
        f"all 8 corners pin w to the edge product in {elapsed:.3f}s",
    )


def test_criterion_2_connectivity_flow_equivalence():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in (4, 5):
        cs = lp.build_connectivity_flow(n)
        for g in iter_graphs(n):
            checked += 1
            if is_connected(g):
                a = lp.edge_assignment(g) | lp.connectivity_flow_assignment(g)
                r = lp.check_assignment(cs, a)
                ok &= not r.row_violations and not r.variable_violations
            else:
                cut = lp.zero_capacity_cut(g)
                ok &= 0 < len(cut) < n
                for i in cut:
                    for j in range(n):
                        if j not in cut:
                            ok &= not g.has_edge(min(i, j), max(i, j))
    elapsed = time.perf_counter() - t0
    conclude(
        2,
        ok and elapsed < 5.0,
        f"flow feasibility <=> BFS connectivity on {checked} graphs in {elapsed:.2f}s",
    )


def test_criterion_3_flow_distance_identity():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in range(2, 6):
        for g in iter_graphs(n):
            if not is_connected(g):
                continue
            checked += 1
            ok &= s_flow_distance(g) == n * (n - 1) * average_path_length(g)
    elapsed = time.perf_counter() - t0
    conclude(
        3,
        ok and elapsed < 10.0,
        f"flow distance equals n(n-1)*APL on {checked} connected graphs in {elapsed:.2f}s",
    )


def test_criterion_4_bnb_equals_brute_force_on_the_grid():
    t0 = time.perf_counter()
    ok = True
    cells = []
    for n in (4, 5, 6):
        for alpha in GRID_ALPHAS:
            h = triads_maxmin(alpha)
            ref, _ = brute_force(n, CONNECTED, h)
            res = branch_and_bound(n, CONNECTED, h)
            match = res.status == "optimal" and res.objective == ref.objective
            ok &= match
            cells.append(f"n={n},a={alpha}:{'=' if match else '!'}")
    elapsed = time.perf_counter() - t0
    conclude(
        4,
        ok and elapsed < 60.0,
        f"9/9 grid cells agree exactly in {elapsed:.1f}s ({' '.join(cells)})",
    )


def test_criterion_5_structural_bounds_at_paper_scale():
    t0 = time.perf_counter()
    n, alpha = 60, Fraction(7, 10)
    bound = structural_lower_bounds(n, alpha)
    ok = (bound.min_triangles, bound.min_edges) == (59, 118)
    g = star_with_chords(n, bound.min_triangles)
    ok &= is_connected(g)
    ok &= g.edge_count == 118
    ok &= count_triangles(g) >= 59
    objective = eval_hamiltonian(triads_maxmin(alpha), g)
    h = bound.min_triangles
    proof_floor = min((1 - alpha) * h, alpha * (num_pairs(n) - (n - 1) - h))
    ok &= objective >= proof_floor
    elapsed = time.perf_counter() - t0
    conclude(
        5,
        ok and elapsed < 1.0,
        f"bounds (59, 118); witness has {g.edge_count} edges, "
        f"{count_triangles(g)} triangles, objective {objective} >= {proof_floor} "
        f"in {elapsed:.3f}s",
    )


def test_criterion_6_local_search_soundness_on_the_grid():
    t0 = time.perf_counter()
    hits = 0
    cells = 0
    misses = []
    sound = True
    for n in (4, 5, 6):
        for alpha in GRID_ALPHAS:
            cells += 1
            h = triads_maxmin(alpha)
            ref, _ = brute_force(n, CONNECTED, h)
            # the climb run_experiment runs: from the frontier witness
            start = witness(n, alpha, connected=True)
            res = first_improve(start, h, CONNECTED)
            sound &= CONNECTED.admits(res.graph)
            sound &= not has_improving_toggle(res.graph, h, CONNECTED)
            if res.objective == ref.objective:
                hits += 1
            else:
                misses.append(f"n={n},a={alpha}: {res.objective} vs {ref.objective}")
    for miss in misses:
        print(f"[criterion 6] shortfall logged: {miss}")
    elapsed = time.perf_counter() - t0
    conclude(
        6,
        sound and hits >= 0.9 * cells and elapsed < 60.0,
        f"feasible + 1-toggle-optimal everywhere; climbs from the witness hit {hits}/{cells} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_7_paper_scale_qualitative_consistency():
    t0 = time.perf_counter()
    n, alpha = 60, Fraction(7, 10)
    h = triads_maxmin(alpha)
    start = star_with_chords(n, structural_lower_bounds(n, alpha).min_triangles)
    res = first_improve(start, h, CONNECTED)
    elapsed = time.perf_counter() - t0
    m = graph_metrics(res.graph)
    ok = is_connected(res.graph)
    ok &= m.edge_count >= 118
    ok &= m.triangle_count >= 59
    cc = clustering_coefficient(res.graph)
    apl = average_path_length(res.graph)
    ok &= cc >= Fraction(3, 10)
    ok &= apl <= 4
    ok &= elapsed < 120.0
    conclude(
        7,
        ok,
        f"n=60 heuristic: {m.edge_count} edges, {m.triangle_count} triangles, "
        f"CC={float(cc):.5f} >= 0.3, APL={float(apl):.5f} <= 4.0 in {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    spec = ExperimentSpec(
        n=6, solver="local_search", alpha=Fraction(7, 10), seed=5, restarts=3
    )
    d1 = report_json_dict(run_experiment(spec, tmp_path / "a"))
    d2 = report_json_dict(run_experiment(spec, tmp_path / "b"))
    d1["telemetry"].pop("wall_time_s")
    d2["telemetry"].pop("wall_time_s")
    json_ok = json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    spec_b = ExperimentSpec(n=5, solver="bnb", alpha=Fraction(1, 2), seed=0)
    e1 = report_json_dict(run_experiment(spec_b))
    e2 = report_json_dict(run_experiment(spec_b))
    e1["telemetry"].pop("wall_time_s")
    e2["telemetry"].pop("wall_time_s")
    json_ok &= json.dumps(e1, sort_keys=True) == json.dumps(e2, sort_keys=True)

    lp_ok = lp_string(lp.build_maxmin(5, Fraction(7, 10))) == lp_string(
        lp.build_maxmin(5, Fraction(7, 10))
    )
    from ergmax.stats import random_unit_square_delta

    delta = random_unit_square_delta(5, seed=3)
    lp_ok &= lp_string(lp.build_minmax_distance(5, Fraction(3, 10), delta)) == lp_string(
        lp.build_minmax_distance(5, Fraction(3, 10), random_unit_square_delta(5, seed=3))
    )
    conclude(
        8,
        json_ok and lp_ok,
        "repeated runs give byte-identical JSON (modulo wall_time) and LP exports",
    )
