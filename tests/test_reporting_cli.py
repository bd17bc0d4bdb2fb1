import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmax import (
    Graph,
    SampleSpace,
    brute_force,
    graph_metrics,
    solve_two_stage,
    star_with_chords,
)
from ergmax.cli import build_parser, main
from ergmax.frontier import distance_interval, witness
from ergmax.stats import random_unit_square_delta, uniform_delta, write_delta
from ergmax.reporting import (
    MODELS,
    ExperimentSpec,
    dot_string,
    format_decimal,
    hamiltonian_for,
    interval_for,
    json_text,
    metrics_row,
    report_json_dict,
    run_experiment,
)

from helpers import triads_maxmin


# -- metric rows -------------------------------------------------------------


def test_metrics_row_examples():
    assert metrics_row(graph_metrics(Graph.complete(4))) == "1.00000, 1.00000, 1.00000"
    assert metrics_row(graph_metrics(Graph.star(5))) == "0.40000, 0.00000, 1.60000"
    disc = graph_metrics(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert metrics_row(disc).endswith("n/a")


def test_format_decimal_rounds_half_even():
    assert format_decimal(Fraction(1, 3)) == "0.33333"
    assert format_decimal(Fraction(2, 3)) == "0.66667"
    assert format_decimal(Fraction(1)) == "1.00000"


# -- DOT ----------------------------------------------------------------------


def test_dot_golden_k3():
    assert dot_string(Graph.complete(3)) == (
        "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n"
    )


def test_dot_empty_two_nodes():
    assert dot_string(Graph(2)) == "graph G {\n  0;\n  1;\n}\n"


def test_dot_roundtrip_via_regex():
    g = star_with_chords(8, 4)
    text = dot_string(g)
    n = len(re.findall(r"^\s+(\d+);$", text, re.M))
    edges = [
        (int(a), int(b)) for a, b in re.findall(r"^\s+(\d+) -- (\d+);$", text, re.M)
    ]
    assert Graph.from_edges(n, edges) == g


# -- experiments --------------------------------------------------------------


def test_run_experiment_brute_matches_oracle(tmp_path):
    spec = ExperimentSpec(n=5, solver="brute", alpha=Fraction(1, 2))
    report = run_experiment(spec, tmp_path)
    ref, _ = brute_force(5, SampleSpace.connected_graphs(), triads_maxmin(Fraction(1, 2)))
    assert report.result.objective == ref.objective
    data = json.loads((tmp_path / "result.json").read_text())
    assert data["objective"]["fraction"] == "3/2"
    assert data["status"] == "optimal"
    assert (tmp_path / "row.txt").exists()
    assert (tmp_path / "graph.dot").exists()
    assert (tmp_path / "graph.txt").exists()


def test_run_experiment_json_deterministic_modulo_wall_time(tmp_path):
    spec = ExperimentSpec(n=6, solver="local_search", alpha=Fraction(7, 10), seed=5, restarts=3)
    r1 = run_experiment(spec, tmp_path / "a")
    r2 = run_experiment(spec, tmp_path / "b")
    d1 = json.loads((tmp_path / "a" / "result.json").read_text())
    d2 = json.loads((tmp_path / "b" / "result.json").read_text())
    d1["telemetry"].pop("wall_time_s")
    d2["telemetry"].pop("wall_time_s")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert (tmp_path / "a" / "graph.txt").read_bytes() == (tmp_path / "b" / "graph.txt").read_bytes()


def test_run_experiment_distance_model_brute():
    spec = ExperimentSpec(
        n=4, model="distance_vs_flow", solver="brute", alpha=Fraction(1, 2), seed=1
    )
    report = run_experiment(spec)
    # min-max: every feasible value weighs physical vs routing distance
    assert report.result.status == "optimal"
    assert report.result.graph is not None
    assert report.hamiltonian.sense == "minimize"


def scaled_delta_file(path, n: int, seed: int, scale: int = 20):
    with open(path, "w") as f:
        write_delta(tuple(tuple(scale * d for d in row)
                          for row in random_unit_square_delta(n, seed)), f)
    return str(path)


@pytest.mark.parametrize("alpha, objective, evaluations", [
    (Fraction(7, 10), Fraction(2238, 5), 311),
    (Fraction(1, 2), Fraction(663), 228),
    (Fraction(3, 10), Fraction(777), 120),
])
def test_run_experiment_certifies_the_distance_witness_in_one_scan(
        tmp_path, alpha, objective, evaluations):
    # the flow-heuristic workload's layout: seed-1 points x20 at n = 30
    spec = ExperimentSpec(n=30, model="distance_vs_flow", solver="local_search", alpha=alpha,
                          seed=1, restarts=2,
                          delta_source=scaled_delta_file(tmp_path / "d.txt", 30, 1))
    report = run_experiment(spec)
    # no toggle improves the witness: the climb scans it once, and stops.
    # The scan scores only the pairs in a direction that can raise the binding
    # term (all 435 before directions were ruled out)
    assert report.result.graph == distance_interval(report.hamiltonian)[2]
    assert (report.result.status, report.result.objective, report.result.nodes_explored) == (
        "incumbent", objective, evaluations)


@pytest.mark.parametrize("alpha, searches", [
    (Fraction(7, 10), 1), (Fraction(1, 2), 1), (Fraction(3, 10), 1)])
def test_the_distance_witness_scan_builds_graphs_only_for_its_centre_edges(
        tmp_path, monkeypatch, alpha, searches):
    # the witness holds a spanning star, so every toggle steps the hop total in
    # closed form: one that spares its centre by exactly 2, a removal of a
    # centre edge by 2 plus 2 per node it puts three hops away, and neither
    # builds a Graph or searches; the one search left is the start's
    # connectivity test (435 Graphs and 1 257 / 989 / 901 searches before hubs
    # were used, 29 Graphs and 415 / 147 / 59 searches before a removal at the
    # hub was stepped in closed form; the report's APL row is counted too)
    from ergmax import graph

    built, calls = [], []
    toggled, search = Graph.toggled, graph.bfs_layers

    def counted_toggle(g, i, j):
        built.append((i, j))
        return toggled(g, i, j)

    def counted_search(g, source):
        calls.append(source)
        return search(g, source)

    monkeypatch.setattr(Graph, "toggled", counted_toggle)
    monkeypatch.setattr(graph, "bfs_layers", counted_search)
    spec = ExperimentSpec(n=30, model="distance_vs_flow", solver="local_search", alpha=alpha,
                          seed=1, restarts=2,
                          delta_source=scaled_delta_file(tmp_path / "d.txt", 30, 1))
    run_experiment(spec)
    assert built == []
    assert len(calls) == searches


def test_distance_model_climbs_build_no_graph_and_search_only_the_start(tmp_path, monkeypatch):
    # every climb from the distance witness stays on graphs with a hub, so no
    # flow step reads a total off a built graph: the one search left is the
    # connected space's test of the start, and the all space runs none
    from ergmax import graph

    built, calls = [], []
    toggled, search = Graph.toggled, graph.bfs_layers

    def counted_toggle(g, i, j):
        built.append((i, j))
        return toggled(g, i, j)

    def counted_search(g, source):
        calls.append(source)
        return search(g, source)

    monkeypatch.setattr(Graph, "toggled", counted_toggle)
    monkeypatch.setattr(graph, "bfs_layers", counted_search)
    counts = Counter()
    for n, seed, scaled, alpha, space in itertools.product(
            (8, 14, 30), (1, 2, 7), (False, True),
            (Fraction(7, 10), Fraction(1, 2), Fraction(3, 10)),
            (SampleSpace.connected_graphs(), SampleSpace.all_graphs())):
        # distances x1 from the seed, or x20 from a file
        source = scaled_delta_file(tmp_path / "d.txt", n, seed) if scaled else None
        built.clear()
        calls.clear()
        run_experiment(ExperimentSpec(n=n, model="distance_vs_flow", solver="local_search",
                                      alpha=alpha, space=space, seed=seed, delta_source=source))
        counts[len(built), len(calls), space.label()] += 1
    assert counts == {(0, 1, "connected"): 54, (0, 0, "all"): 54}


@pytest.mark.parametrize("space", [SampleSpace.connected_graphs(), SampleSpace.all_graphs()],
                         ids=lambda s: s.label())
def test_run_experiment_solves_the_distance_model_from_the_witness(tmp_path, space):
    spec = ExperimentSpec(n=5, model="distance_vs_flow", space=space, alpha=Fraction(1, 2),
                          delta_source=scaled_delta_file(tmp_path / "d.txt", 5, 3))
    result = run_experiment(spec).result
    optimum, _ = brute_force(5, space, hamiltonian_for(spec))
    assert (result.status, result.objective) == ("optimal", optimum.objective)


def test_run_experiment_two_stage_records_p_star():
    spec = ExperimentSpec(n=4, solver="brute", alpha=Fraction(1, 2), gamma=Fraction(0))
    report = run_experiment(spec)
    assert report.p_star is not None
    assert report.p_star_objective == "maxmin"
    assert report.result.objective == report.p_star


def test_run_experiment_two_stage_telemetry_covers_both_stages():
    spec = ExperimentSpec(n=6, alpha=Fraction(1, 2), gamma=Fraction(9, 10), node_limit=40)
    report = run_experiment(spec)
    bound, _, start = interval_for(spec, report.hamiltonian)
    two = solve_two_stage(6, spec.space, list(report.hamiltonian.terms), spec.gamma,
                          method="bnb", incumbent=start, ceiling=bound, node_limit=40)
    assert two.stage1.nodes_explored > 0 and two.stage2.nodes_explored > 0
    telemetry = report_json_dict(report)["telemetry"]
    assert telemetry["nodes_explored"] == two.stage1.nodes_explored + two.stage2.nodes_explored
    assert report.result.graph == two.stage2.graph


# solve --solver bnb --n 6 --gamma 9/10 on the connected triads model: the edges,
# each stage 2 optimum being stage 1's (p*), and the nodes of both stages
GAMMA_REPORTS = [
    ("3/10", "21/10", [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 2], [1, 3], [2, 3]], 201),
    ("1/2", "5/2",
     [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 2], [1, 3], [1, 4], [2, 3]], 215),
    ("7/10", "14/5", [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 2], [1, 3], [1, 4], [2, 3],
                      [2, 4], [3, 4]], 100),
]


@pytest.mark.parametrize("alpha, objective, edges, nodes", GAMMA_REPORTS)
def test_cli_gamma_stage_two_proves_stage_one_at_its_root(capsys, alpha, objective, edges, nodes):
    # stage 1's proven p* caps stage 2, whose start, stage 1's graph, meets it:
    # stage 2 explores one node (it took 200, 214 and 99 before the cap)
    assert main(["solve", "--solver", "bnb", "--n", "6", "--alpha", alpha,
                 "--gamma", "9/10"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["status"], data["objective"]["fraction"], data["graph"]["edges"]) == (
        "optimal", objective, edges)
    assert data["p_star"] == data["objective"] == data["telemetry"]["bound_at_root"]
    assert data["telemetry"]["nodes_explored"] == nodes


# the distance model's optima that HiGHS reached (seed-1 points x20, connected):
# the interval closes, and its bound caps bnb's root at the witness's value
@pytest.mark.parametrize("n, alpha, objective", [
    (8, "1/2", "44"),  # about 3 M nodes before the cap
    (9, "1/2", "56"),
    (9, "3/10", "322/5"),
    (10, "3/10", "40428111/500000"),
])
def test_run_experiment_proves_a_closed_distance_interval_at_the_root(tmp_path, n, alpha, objective):
    spec = ExperimentSpec(n=n, model="distance_vs_flow", alpha=Fraction(alpha), seed=1,
                          delta_source=scaled_delta_file(tmp_path / "d.txt", n, 1))
    result = run_experiment(spec).result
    assert (result.status, result.objective, result.nodes_explored, result.bound_at_root) == (
        "optimal", Fraction(objective), 1, Fraction(objective))
    assert result.graph == distance_interval(hamiltonian_for(spec))[2]


def test_report_json_shape():
    spec = ExperimentSpec(n=4, solver="bnb", alpha=Fraction(1, 2))
    report = run_experiment(spec)
    data = report_json_dict(report)
    assert data["spec"]["alpha"] == {"fraction": "1/2", "decimal": 0.5}
    kinds = [s["kind"] for s in data["statistics"]]
    assert kinds == ["non_edges", "triangles"]
    assert data["telemetry"]["nodes_explored"] > 0


@pytest.mark.parametrize("seed", [None, -1, 1.5, "3", True, False])
def test_experiment_spec_refuses_a_seed_that_is_not_a_nonnegative_int(seed):
    # under a None seed both generators would draw OS entropy, and no run would repeat;
    # True would run seed 1's points and report "seed": true
    with pytest.raises(ValueError, match="seed"):
        ExperimentSpec(n=4, seed=seed)


@pytest.mark.parametrize("field, value, message", [
    ("n", 1, "need at least 2 nodes, got 1"),
    ("node_limit", 0, "need a node limit of at least 1, got 0"),
    ("time_limit", float("nan"), "need a positive time limit, got nan"),
], ids=["n", "node_limit", "time_limit"])
def test_experiment_spec_refuses_a_size_or_limit_out_of_range(field, value, message):
    # a library caller gets the refusals the command line gives
    with pytest.raises(ValueError) as refused:
        ExperimentSpec(**{"n": 4, field: value})
    assert str(refused.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("alpha", 2, "alpha must lie in [0, 1], got 2"),
    ("alpha", Fraction(-1, 10), "alpha must lie in [0, 1], got -1/10"),
    ("gamma", Fraction(3, 2), "gamma must lie in [0, 1], got 3/2"),
    ("gamma", -1, "gamma must lie in [0, 1], got -1"),
    ("restarts", 0, "need an int restart count of at least 1, got 0"),
    ("restarts", True, "need an int restart count of at least 1, got True"),
    ("restarts", 2.0, "need an int restart count of at least 1, got 2.0"),
], ids=["alpha-2", "alpha-negative", "gamma-3/2", "gamma-negative", "restarts-0",
        "restarts-True", "restarts-float"])
def test_experiment_spec_refuses_a_weight_or_restart_count_out_of_range(field, value, message):
    # the solvers refuse these only when a run reaches them, and bnb never
    # reads restarts, so a run of ExperimentSpec(restarts=0) reported "restarts": 0
    with pytest.raises(ValueError) as refused:
        ExperimentSpec(**{"n": 4, field: value})
    assert str(refused.value) == message


# -- report encoding -----------------------------------------------------------

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 1e-7, 1e22, float("inf"), float("-inf"), float("nan")])
    | st.text()
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_text_is_json_dumps_with_indent_two(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    (1, 2), [Fraction(1, 2)], {1: "a"}, {"a": {None: 1}}, {"a": [1, (2, 3)]},
], ids=["tuple", "fraction", "int-key", "none-key", "nested-tuple"])
def test_json_text_refuses_what_a_report_does_not_hold(value):
    with pytest.raises(TypeError):
        json_text(value)


# -- CLI -----------------------------------------------------------------------


def test_cli_bound(capsys):
    code = main(["bound", "--n", "60", "--alpha", "7/10"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(out) == ["n", "alpha", "bound", "witness_edges", "witness_objective"]
    assert out["bound"]["fraction"] == "975/1"
    assert out["witness_edges"] == 407
    assert out["witness_objective"]["fraction"] == "9541/10"


def test_cli_bound_prints_the_distance_interval(capsys, tmp_path):
    def interval(out):
        assert list(out) == ["n", "alpha", "bound", "witness_edges", "witness_objective"]
        return (Fraction(out["bound"]["fraction"]), out["witness_edges"],
                Fraction(out["witness_objective"]["fraction"]))

    argv = ["bound", "--model", "distance_vs_flow", "--n", "30", "--alpha", "7/10"]
    assert main(argv + ["--delta-file", scaled_delta_file(tmp_path / "d.txt", 30, 1)]) == 0
    assert interval(json.loads(capsys.readouterr().out)) == (
        Fraction(2217, 5), 124, Fraction(2238, 5))
    # without a file, the seed draws the points
    assert main(argv + ["--seed", "2"]) == 0
    spec = ExperimentSpec(n=30, model="distance_vs_flow", alpha=Fraction(7, 10), seed=2)
    lower, value, g = distance_interval(hamiltonian_for(spec))
    assert interval(json.loads(capsys.readouterr().out)) == (lower, g.edge_count, value)


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--alpha", "1/2"],
        ["solve", "--solver", "brute", "--out-dir", "run"],
        ["heuristic", "--restarts", "1", "--out-dir", "run"],
        ["export-lp", "--out", "model.lp"],
    ],
)
def test_cli_refuses_an_asymmetric_distance_matrix(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "delta.txt").write_text("3\n0 1 2\n1 0 3\n2 4 0\n")
    code = main(argv + ["--model", "distance_vs_flow", "--n", "3", "--delta-file", "delta.txt"])
    assert code == 1
    assert capsys.readouterr().err == "error: distance matrix asymmetric at (1, 2)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["delta.txt"]


def test_cli_solve_exit_codes_and_json(capsys, tmp_path):
    code = main(
        ["solve", "--n", "4", "--alpha", "0.5", "--solver", "brute", "--out-dir", str(tmp_path)]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0  # optimal
    assert data["objective"]["fraction"] == "1/2"


def test_cli_solve_out_dir_encodes_the_report_once(capsys, monkeypatch, tmp_path):
    from ergmax import cli, reporting

    calls = []

    def counted(report):
        calls.append(report)
        return report_json_dict(report)

    # wherever the report is built, the CLI or the writer of its files
    for module in (cli, reporting):
        monkeypatch.setattr(module, "report_json_dict", counted)
    assert main(["solve", "--n", "4", "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    # stdout and result.json carry the same bytes
    assert capsys.readouterr().out == (tmp_path / "result.json").read_text()


def test_cli_heuristic_exits_incumbent(capsys):
    code = main(["heuristic", "--n", "5", "--alpha", "1/2", "--seed", "1", "--restarts", "3"])
    capsys.readouterr()
    assert code == 2


def test_cli_metrics(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert main(["metrics", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "1.00000, 1.00000, 1.00000"


def test_cli_metrics_missing_file_is_usage_error(capsys):
    assert main(["metrics", "/nonexistent/file.txt"]) == 1


def test_cli_metrics_rejects_a_miscounted_edge_list(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("3 3\n0 1\n0 1\n1 2\n")
    assert main(["metrics", str(f)]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--alpha", "1/2"],
        ["solve", "--solver", "bnb"],
        ["solve", "--solver", "brute"],
        ["heuristic"],
        ["export-lp", "--out", "never-written.lp"],
    ],
)
def test_cli_refuses_fewer_than_two_nodes(capsys, argv):
    assert main(argv + ["--n", "1"]) == 1
    assert capsys.readouterr().err == "error: need at least 2 nodes, got 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["heuristic", "--restarts", "2", "--gamma", "1/2"],
        ["heuristic", "--node-limit", "1"],
        ["heuristic", "--time-limit", "0"],
        ["solve", "--restarts", "0"],
    ],
)
def test_cli_refuses_a_flag_the_command_does_not_read(capsys, argv):
    assert main(argv + ["--n", "4"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--alpha", "2"], "alpha must lie in [0, 1], got 2"),
    (["bound", "--alpha", "3/2"], "alpha must lie in [0, 1], got 3/2"),
    (["solve", "--gamma", "3/2"], "gamma must lie in [0, 1], got 3/2"),
    (["heuristic", "--restarts", "0"], "need an int restart count of at least 1, got 0"),
], ids=["solve-alpha", "bound-alpha", "solve-gamma", "heuristic-restarts"])
def test_cli_refuses_a_weight_or_restart_count_out_of_range(capsys, argv, message):
    assert main(argv + ["--n", "4"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def without_wall_time(report: str) -> str:
    return re.sub(r'"wall_time_s": [^\n]*', '"wall_time_s"', report)


@pytest.mark.parametrize("model", MODELS)
def test_heuristic_prints_one_report_whatever_the_restart_count(capsys, model):
    # the climb is deterministic, so one runs: the count is only echoed in spec.restarts
    reports = set()
    for restarts in ("1", "2", "10"):
        argv = ["heuristic", "--model", model, "--n", "9", "--seed", "1", "--restarts", restarts]
        assert main(argv) == 2
        out = without_wall_time(capsys.readouterr().out)
        assert f'"restarts": {restarts},' in out
        reports.add(out.replace(f'"restarts": {restarts},', '"restarts": 1,'))
    assert len(reports) == 1


@pytest.mark.parametrize("first, then", [
    (["solve", "--n", "6", "--gamma", "9/10", "--node-limit", "5000"], ["solve", "--n", "6"]),
    (["heuristic", "--n", "8", "--restarts", "3"], ["heuristic", "--n", "8"]),
    (["heuristic", "--model", "distance_vs_flow", "--n", "8", "--delta-file", "d.txt"],
     ["heuristic", "--model", "distance_vs_flow", "--n", "8"]),
], ids=["solve-gamma-node-limit", "heuristic-restarts", "heuristic-delta-file"])
def test_a_reused_parser_keeps_no_flag_of_an_earlier_call(capsys, monkeypatch, tmp_path,
                                                           first, then):
    # main builds its parser once per process; each call must still parse as
    # if the parser were new, after a call that set more flags and one that failed
    monkeypatch.chdir(tmp_path)
    scaled_delta_file(tmp_path / "d.txt", 8, 1)
    build_parser.cache_clear()
    code = main(then)
    fresh = capsys.readouterr().out
    main(first)
    assert without_wall_time(capsys.readouterr().out) != without_wall_time(fresh)
    assert main(then[:-2] + ["--n", "1"]) == 1
    capsys.readouterr()
    assert main(then) == code
    assert without_wall_time(capsys.readouterr().out) == without_wall_time(fresh)


def test_a_second_main_call_builds_no_parser(capsys, monkeypatch):
    argv = ["bound", "--n", "6", "--alpha", "1/2"]
    assert main(argv) == 0
    once = capsys.readouterr().out
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert built == []
    assert capsys.readouterr().out == once


def test_cli_gamma_solve_obeys_the_node_limit(capsys):
    code = main(["solve", "--n", "6", "--alpha", "1/2", "--gamma", "9/10", "--node-limit", "5"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    assert data["status"] == "incumbent"
    assert data["spec"]["node_limit"] == 5


@pytest.mark.parametrize("flag, value", [("--node-limit", "5"), ("--time-limit", "0.001")])
def test_cli_brute_force_refuses_the_bnb_limits(capsys, flag, value):
    assert main(["solve", "--n", "5", "--solver", "brute", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize(
    "flag, value, message",
    [("--node-limit", "-3", "need a node limit of at least 1, got -3"),
     ("--node-limit", "0", "need a node limit of at least 1, got 0"),
     ("--time-limit", "-1", "need a positive time limit, got -1.0"),
     ("--time-limit", "0", "need a positive time limit, got 0.0"),
     ("--time-limit", "nan", "need a positive time limit, got nan")],
    ids=["--node-limit--3", "--node-limit-0", "--time-limit--1", "--time-limit-0",
         "--time-limit-nan"],
)
def test_cli_solve_refuses_a_limit_that_cannot_be_met(capsys, flag, value, message):
    # such a limit explores no node and would report the warm start as an incumbent
    assert main(["solve", "--n", "5", flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("density", ["14", "10"])
def test_cli_heuristic_refuses_a_fixed_edge_count(capsys, density):
    argv = ["heuristic", "--n", "8", "--alpha", "1/2", "--density", density, "--restarts", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "use solve" in err


def test_cli_spec_echoes_the_experiment_defaults(capsys):
    main(["solve", "--n", "4", "--solver", "brute"])
    solve = json.loads(capsys.readouterr().out)["spec"]
    main(["heuristic", "--n", "4"])
    heuristic = json.loads(capsys.readouterr().out)["spec"]
    default = ExperimentSpec(n=4)
    for spec in (solve, heuristic):
        assert spec["gamma"] is None
        assert (spec["seed"], spec["restarts"], spec["node_limit"], spec["time_limit"]) == (
            default.seed, default.restarts, default.node_limit, default.time_limit
        )


@pytest.mark.parametrize("size", [4, 8])
@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--alpha", "1/2"],
        ["export-lp", "--out", "model.lp"],
        ["solve", "--solver", "brute", "--out-dir", "run"],
        ["heuristic", "--restarts", "1", "--out-dir", "run"],
    ],
)
def test_cli_refuses_a_distance_matrix_of_the_wrong_size(capsys, monkeypatch, tmp_path, argv, size):
    monkeypatch.chdir(tmp_path)
    with open("delta.txt", "w") as f:
        write_delta(uniform_delta(size), f)
    code = main(argv + ["--model", "distance_vs_flow", "--n", "6", "--delta-file", "delta.txt"])
    assert code == 1
    assert f"error: distance matrix is {size}x{size}, graph has n=6" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["delta.txt"]


@pytest.mark.parametrize(
    "ir",
    [{}, {"variables": [{"name": "x_0_1", "lower": None, "upper": None}], "rows": []}],
)
def test_cli_check_refuses_a_malformed_ir(capsys, tmp_path, ir):
    ir_path = tmp_path / "model.json"
    ir_path.write_text(json.dumps(ir))
    assignment = tmp_path / "a.json"
    assignment.write_text("{}")
    assert main(["check", "--ir-json", str(ir_path), "--assignment", str(assignment)]) == 1
    assert "error: malformed constraint IR: missing key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, entry",
    [
        ("variables", {"name": 5, "kind": "binary", "lower": None, "upper": None}),
        ("rows", {"name": 7, "coeffs": {}, "relation": "=", "rhs": "0"}),
        # JSON loads a pair as a list, so the IR cannot name a (prefix, k) pattern
        ("variables", {"name": ["x_", 0], "kind": "binary", "lower": None, "upper": None}),
        ("rows", {"name": ["x_", 0], "coeffs": {}, "relation": "=", "rhs": "0"}),
    ],
)
def test_cli_check_refuses_a_name_that_is_not_a_string(capsys, monkeypatch, tmp_path, key, entry):
    from ergmax.lp import maxmin_assignment

    monkeypatch.chdir(tmp_path)
    assert main(["export-lp", "--n", "3", "--out", "m.lp", "--ir-json", "m.json"]) == 0
    ir = json.loads((tmp_path / "m.json").read_text())
    ir[key].append(entry)
    (tmp_path / "m.json").write_text(json.dumps(ir))
    witness = maxmin_assignment(3, Fraction(1, 2), Graph.complete(3))
    (tmp_path / "a.json").write_text(json.dumps({k: str(v) for k, v in witness.items()}))
    capsys.readouterr()
    assert main(["check", "--ir-json", "m.json", "--assignment", "a.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"error: malformed constraint IR: name {entry['name']!r} is not a string"
    ]


def test_cli_check_refuses_a_bound_on_a_binary_variable(capsys, monkeypatch, tmp_path):
    from ergmax.lp import maxmin_assignment

    monkeypatch.chdir(tmp_path)
    assert main(["export-lp", "--n", "3", "--out", "m.lp", "--ir-json", "m.json"]) == 0
    ir = json.loads((tmp_path / "m.json").read_text())
    assert ir["variables"][0]["name"] == "x_0_1"
    ir["variables"][0]["lower"] = ir["variables"][0]["upper"] = "1"
    (tmp_path / "m.json").write_text(json.dumps(ir))
    witness = maxmin_assignment(3, Fraction(1, 2), Graph.complete(3))
    witness["x_0_1"] = 0
    (tmp_path / "a.json").write_text(json.dumps({k: str(v) for k, v in witness.items()}))
    capsys.readouterr()
    assert main(["check", "--ir-json", "m.json", "--assignment", "a.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        "error: malformed constraint IR: binary variable 'x_0_1' takes no bounds"
    ]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("place", ["rhs", "coefficient", "bound"])
def test_cli_check_refuses_a_boolean_in_the_ir(capsys, monkeypatch, tmp_path, place, value):
    from ergmax.lp import maxmin_assignment

    monkeypatch.chdir(tmp_path)
    assert main(["export-lp", "--n", "3", "--out", "m.lp", "--ir-json", "m.json"]) == 0
    witness = maxmin_assignment(3, Fraction(1, 2), Graph.complete(3))
    (tmp_path / "a.json").write_text(json.dumps({k: str(v) for k, v in witness.items()}))
    argv = ["check", "--ir-json", "m.json", "--assignment", "a.json"]
    assert main(argv) == 0
    ir = json.loads((tmp_path / "m.json").read_text())
    row = ir["rows"][0]
    if place == "rhs":
        row["rhs"] = value
    elif place == "coefficient":
        row["coeffs"][next(iter(row["coeffs"]))] = value
    else:
        ir["variables"][0]["upper"] = value
    (tmp_path / "m.json").write_text(json.dumps(ir))
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"error: malformed constraint IR: boolean {value!r} where a number belongs"
    ]


@pytest.mark.parametrize("value", [None, [0], True, False])
def test_cli_check_refuses_a_non_numeric_value(capsys, tmp_path, value):
    ir_path = tmp_path / "model.json"
    assert main(["export-lp", "--n", "3", "--out", str(tmp_path / "m.lp"),
                 "--ir-json", str(ir_path)]) == 0
    assignment = tmp_path / "a.json"
    assignment.write_text(json.dumps({"x_0_1": value, "x_0_2": 0, "x_1_2": 0}))
    capsys.readouterr()
    assert main(["check", "--ir-json", str(ir_path), "--assignment", str(assignment)]) == 1
    assert "error: assignment value of x_0_1 is not a number" in capsys.readouterr().err


def test_cli_check_refuses_a_negative_tolerance(capsys, tmp_path):
    from ergmax.lp import maxmin_assignment

    ir_path = tmp_path / "m.json"
    assert main(["export-lp", "--n", "3", "--out", str(tmp_path / "m.lp"),
                 "--ir-json", str(ir_path)]) == 0
    assignment = tmp_path / "a.json"
    witness = maxmin_assignment(3, Fraction(1, 2), Graph.complete(3))
    assignment.write_text(json.dumps({k: str(v) for k, v in witness.items()}))
    argv = ["check", "--ir-json", str(ir_path), "--assignment", str(assignment)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--tol", "-1"]) == 1
    captured = capsys.readouterr()
    assert "error: tolerance must be nonnegative" in captured.err
    assert "violated" not in captured.out


@pytest.mark.parametrize("path", ["--tol", "--delta-file", "rhs", "assignment value"])
def test_cli_refuses_a_zero_denominator(capsys, monkeypatch, tmp_path, path):
    from ergmax.lp import maxmin_assignment

    monkeypatch.chdir(tmp_path)
    if path == "--delta-file":
        (tmp_path / "delta.txt").write_text("2\n0 1/0\n1/0 0\n")
        argv = ["export-lp", "--model", "distance_vs_flow", "--n", "2",
                "--delta-file", "delta.txt", "--out", "m.lp"]
    else:
        assert main(["export-lp", "--n", "3", "--out", "m.lp", "--ir-json", "m.json"]) == 0
        ir = json.loads((tmp_path / "m.json").read_text())
        witness = maxmin_assignment(3, Fraction(1, 2), Graph.complete(3))
        assignment = {k: str(v) for k, v in witness.items()}
        if path == "rhs":
            ir["rows"][0]["rhs"] = "1/0"
        elif path == "assignment value":
            assignment["x_0_1"] = "1/0"
        (tmp_path / "m.json").write_text(json.dumps(ir))
        (tmp_path / "a.json").write_text(json.dumps(assignment))
        argv = ["check", "--ir-json", "m.json", "--assignment", "a.json"]
        if path == "--tol":
            argv += ["--tol", "1/0"]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("assignment", [5, "x_0_1 x_0_2 x_1_2", [0, 0, 0]])
def test_cli_check_refuses_an_assignment_that_is_not_an_object(capsys, tmp_path, assignment):
    ir_path = tmp_path / "model.json"
    assert main(["export-lp", "--n", "3", "--out", str(tmp_path / "m.lp"),
                 "--ir-json", str(ir_path)]) == 0
    assignment_path = tmp_path / "a.json"
    assignment_path.write_text(json.dumps(assignment))
    capsys.readouterr()
    assert main(["check", "--ir-json", str(ir_path), "--assignment", str(assignment_path)]) == 1
    assert "error: assignment must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["abc", 3.5, [3], True, 2, 10**9])
def test_cli_check_refuses_a_meta_n_that_does_not_fit_the_edge_variables(
    capsys, monkeypatch, tmp_path, n
):
    from ergmax import lp

    monkeypatch.chdir(tmp_path)
    assert main(["export-lp", "--n", "3", "--out", "m.lp", "--ir-json", "m.json"]) == 0
    ir = json.loads((tmp_path / "m.json").read_text())
    ir["meta"]["n"] = n
    (tmp_path / "m.json").write_text(json.dumps(ir))
    witness = lp.maxmin_assignment(3, Fraction(1, 2), Graph.complete(3))
    (tmp_path / "a.json").write_text(json.dumps({k: str(v) for k, v in witness.items()}))
    # the refusal must come before any pair table is built, at n = 10**9 above all
    monkeypatch.setattr(lp, "all_pairs", lambda n: pytest.fail(f"pair table built for n={n}"))
    capsys.readouterr()
    assert main(["check", "--ir-json", "m.json", "--assignment", "a.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"error: malformed constraint IR: meta.n = {n!r} does not fit 3 edge variables"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--alpha", "1/2"],
        ["solve", "--solver", "brute", "--out-dir", "run"],
        ["heuristic", "--restarts", "1", "--out-dir", "run"],
        ["export-lp", "--out", "model.lp"],
    ],
)
def test_cli_refuses_a_delta_file_without_the_distance_model(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    with open("delta.txt", "w") as f:
        write_delta(uniform_delta(4), f)
    assert main(argv + ["--n", "4", "--delta-file", "delta.txt"]) == 1
    err = capsys.readouterr().err
    assert err == "error: a distance-matrix file is read only by the distance_vs_flow model\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["delta.txt"]


def test_cli_export_and_check_roundtrip(capsys, tmp_path):
    lp_path = tmp_path / "model.lp"
    ir_path = tmp_path / "model.json"
    code = main(
        [
            "export-lp",
            "--n",
            "4",
            "--alpha",
            "1/2",
            "--out",
            str(lp_path),
            "--ir-json",
            str(ir_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert lp_path.exists() and ir_path.exists()

    from ergmax import lp as lpmod

    res, _ = brute_force(4, SampleSpace.connected_graphs(), triads_maxmin(Fraction(1, 2)))
    assignment = {
        k: float(v) for k, v in lpmod.maxmin_assignment(4, Fraction(1, 2), res.graph).items()
    }
    good = tmp_path / "good.json"
    good.write_text(json.dumps(assignment))
    assert main(["check", "--ir-json", str(ir_path), "--assignment", str(good)]) == 0
    out = capsys.readouterr().out
    assert "FEASIBLE" in out

    assignment["H"] = float(assignment["H"]) + 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(assignment))
    assert main(["check", "--ir-json", str(ir_path), "--assignment", str(bad)]) == 3
    assert "INFEASIBLE" in capsys.readouterr().out


def test_cli_export_lp_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    main(["export-lp", "--n", "5", "--alpha", "7/10", "--out", str(p1)])
    main(["export-lp", "--n", "5", "--alpha", "7/10", "--out", str(p2)])
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_runs_without_numpy(capsys):
    # no --delta-file, so the seeded generator runs
    argv = ["heuristic", "--model", "distance_vs_flow", "--n", "14", "--seed", "3"]
    script = ("import sys; sys.modules['numpy'] = None; from ergmax.cli import main; "
              f"sys.exit(main({argv!r}))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    blocked = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert main(argv) == blocked.returncode == 2, blocked.stderr

    def answer(text):
        return [line for line in text.splitlines() if '"wall_time_s"' not in line]

    assert answer(blocked.stdout) == answer(capsys.readouterr().out)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["heuristic", "--n", "20", "--alpha", "7/10", "--restarts", "1", "--seed", "-5"],
         "error: need a nonnegative int seed, got -5"),
        (["solve", "--n", "4", "--seed", "-1"],
         "error: need a nonnegative int seed, got -1"),
        (["heuristic", "--model", "distance_vs_flow", "--n", "5", "--seed", "-1"],
         "error: need a nonnegative int seed, got -1"),
        (["export-lp", "--model", "distance_vs_flow", "--n", "5", "--seed", "-1",
          "--out", "m.lp"],
         "error: need a nonnegative int seed, got -1"),
        (["export-lp", "--model", "distance_vs_flow", "--n", "5", "--seed", "abc",
          "--out", "m.lp"],
         "ergmax export-lp: error: argument --seed: invalid int value: 'abc'"),
    ],
    ids=["heuristic", "solve", "heuristic-distance", "export-lp", "export-lp-not-an-int"],
)
def test_cli_refuses_a_negative_or_malformed_seed(capsys, monkeypatch, tmp_path, argv, message):
    # random.Random seeds with abs(seed), so -5 would silently rerun seed 5
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [message]
    assert not (tmp_path / "m.lp").exists()


def test_cli_usage_error_returns_one(capsys):
    assert main(["solve", "--n", "not-a-number"]) == 1
