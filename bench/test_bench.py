"""Tests of the benchmark's own parts: bounds, recorded optima, tracer.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
The brute-force confirmation of the n = 7 optimum takes about a minute.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402
from bounds import flow_lower_bound, kk_max_triangles, triads_upper_bound  # noqa: E402
from ergmax import cli as cli_module  # noqa: E402
from ergmax import graph as graph_module  # noqa: E402
from ergmax.exact import brute_force, solve_two_stage  # noqa: E402
from ergmax.graph import Graph, count_triangles, num_pairs  # noqa: E402
from ergmax.reporting import ExperimentSpec, hamiltonian_for  # noqa: E402
from ergmax.space import SampleSpace  # noqa: E402
from ergmax.stats import StatisticKind, StatisticSpec  # noqa: E402
from tracer import Tracer  # noqa: E402

ALPHAS = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
SPACES = [SampleSpace.connected_graphs(), SampleSpace.all_graphs()]


def test_kk_matches_the_most_triangles_of_any_six_node_graph():
    n = 6
    best = [0] * (num_pairs(n) + 1)
    for bits in range(1 << num_pairs(n)):
        g = Graph(n, bits)
        best[g.edge_count] = max(best[g.edge_count], count_triangles(g))
    assert best == [kk_max_triangles(m) for m in range(num_pairs(n) + 1)]


def test_triads_bound_at_paper_scale():
    assert [triads_upper_bound(60, a) for a in reversed(ALPHAS)] == [
        Fraction(975), Fraction(1539, 2), Fraction(4881, 10)
    ]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_triads_bound_is_at_least_every_optimum(n, space):
    for alpha in ALPHAS:
        h = hamiltonian_for(ExperimentSpec(n=n, alpha=alpha))
        optimum, _ = brute_force(n, space, h)
        assert triads_upper_bound(n, alpha) >= optimum.objective


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_flow_bound_is_at_most_every_optimum(n, space):
    delta = workloads._scaled_delta(n, seed=n)
    for alpha in ALPHAS:
        h = hamiltonian_for(
            ExperimentSpec(n=n, model="distance_vs_flow", alpha=alpha), delta
        )
        optimum, _ = brute_force(n, space, h)
        assert flow_lower_bound(delta, alpha) <= optimum.objective


def _brute_optimum(n: int, alpha: str, gamma: str | None) -> Fraction:
    space = SampleSpace.connected_graphs()
    if gamma is None:
        h = hamiltonian_for(ExperimentSpec(n=n, alpha=Fraction(alpha)))
        return brute_force(n, space, h)[0].objective
    a = Fraction(alpha)
    terms = [
        (a, StatisticSpec(StatisticKind.NON_EDGES)),
        (1 - a, StatisticSpec(StatisticKind.TRIANGLES)),
    ]
    return solve_two_stage(n, space, terms, Fraction(gamma), method="brute").stage2.objective


@pytest.mark.parametrize("key", list(workloads.EXACT_OPTIMA), ids=str)
def test_recorded_optima_equal_brute_force(key):
    assert _brute_optimum(*key) == workloads.EXACT_OPTIMA[key]


def _traced_counts(jobs):
    tracer = Tracer()
    tracer.install()
    try:
        runs = run.run_pass(cli_module, jobs, tracer)
    finally:
        tracer.uninstall()
    assert all(r.error is None for r in runs), [r.error for r in runs]
    return {name: calls for name, (calls, _, _) in tracer.stats.items()}, tracer


def test_traced_counts_repeat_and_the_originals_come_back():
    original_pair_of = graph_module.pair_of
    original_adjacency = Graph.__dict__["adjacency"]
    jobs = [
        job for job in workloads._triads_exact()
        if workloads._flag(job.argv, "--n") == "6" and workloads._flag(job.argv, "--alpha") == "7/10"
    ]
    assert len(jobs) == 2
    first, tracer = _traced_counts(jobs)
    second, _ = _traced_counts(jobs)
    assert first == second
    assert first["exact.branch_and_bound"] == 3  # the gamma job solves twice
    assert first["graph.count_triangles"] > 0 and first["graph.pair_of"] > 0
    assert graph_module.pair_of is original_pair_of
    assert Graph.__dict__["adjacency"] is original_adjacency
    spans = tracer.span_records()
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main", "cli.main"]
    assert all(s["start"] <= s["end"] for s in spans)
