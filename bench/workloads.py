"""The benchmark's workloads: the CLI jobs each one runs, and their checks.

A workload is a list of jobs, each an argv for ``ergmax.cli.main``.
Reading a job's output is cheap and happens after every run of it;
verifying the answer is costly and happens once per benchmark run,
outside the timed span.  Every answer carries a bound ratio: the
objective set against the proven optimum or a closed-form bound, so that
1 means the answer meets the bound (see ``bounds.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from bounds import flow_lower_bound, triads_upper_bound

NAMES = ("triads-exact", "triads-heuristic", "flow-heuristic", "lp-export")

# Optima of the triads model over connected graphs, keyed by (n, alpha,
# gamma), each confirmed once with ``brute_force`` (``solve_two_stage``
# with method="brute" for gamma); test_bench.py re-confirms them.
EXACT_OPTIMA = {
    (6, "3/10", None): Fraction(21, 10),
    (6, "1/2", None): Fraction(5, 2),
    (6, "7/10", None): Fraction(14, 5),
    (6, "3/10", "9/10"): Fraction(21, 10),
    (6, "1/2", "9/10"): Fraction(5, 2),
    (6, "7/10", "9/10"): Fraction(14, 5),
    (7, "7/10", None): Fraction(21, 5),
}
HEURISTIC_ALPHAS = ("7/10", "1/2", "3/10")
TRIADS_HEURISTIC_N = 60
FLOW_N = 30
FLOW_RESTARTS = 2
# demo 06's non-degenerate regime: at unit scale the complete graph
# always wins and local search only ever adds edges
FLOW_DELTA_SCALE = 20
LP_TRIADS_N = 40
LP_FLOW_N = 14
LP_ALPHA = "1/2"


class JobFailed(Exception):
    """A job's exit code, output or answer is wrong."""


@dataclass(frozen=True)
class Answer:
    """What one run of a job produced.

    ``key`` is what every later run of the same job must reproduce;
    ``ratio`` and ``gap`` compare the objective with the job's bound.
    """

    key: tuple
    ratio: Fraction
    gap: Fraction
    record: dict[str, Any]
    telemetry: dict[str, Any] = field(default_factory=dict)


@dataclass
class Job:
    argv: list[str]
    expect_rc: int
    read: Callable[[str], Answer]
    verify: Callable[[Answer], None]

    @property
    def kind(self) -> str:
        if self.argv[0] == "export-lp":
            return "export"
        return "bnb" if self.argv[0] == "solve" else "local_search"


def build(name: str, seed: int, workdir: Path) -> list[Job]:
    """Generate the workload's inputs under ``workdir`` and its job list."""
    if name == "triads-exact":
        return _triads_exact()
    if name == "triads-heuristic":
        return _triads_heuristic(seed)
    if name == "flow-heuristic":
        return _flow_heuristic(seed, workdir)
    if name == "lp-export":
        return _lp_export(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


# ---------------------------------------------------------------------------
# graph-producing jobs: solve and heuristic


def _graph_job(
    argv: list[str],
    expect_rc: int,
    bound: Fraction,
    sense: str,
    verify: Callable[[Any, Any, Any, Any], None],
    delta_file: Path | None = None,
) -> Job:
    """A job whose JSON report holds a graph and its objective.

    ``verify(graph, answer, h, space)`` runs the job-specific checks
    after the shared one: the reported graph lies in the space and
    evaluates to the reported objective.
    """

    def read(stdout: str) -> Answer:
        from ergmax.graph import Graph

        report = _json(stdout)
        try:
            objective = Fraction(report["objective"]["fraction"])
            bits = Graph.from_edges(report["graph"]["n"], report["graph"]["edges"]).bits
        except (KeyError, TypeError, ValueError) as exc:
            raise JobFailed(f"report lacks a valid objective or graph: {exc}") from exc
        ratio = objective / bound if sense == "maximize" else bound / objective
        return Answer(
            key=(report["status"], objective, bits),
            ratio=ratio,
            gap=abs(objective - bound) / abs(bound),
            record={
                "status": report["status"],
                "objective": str(objective),
                "edge_bitset": hex(bits),
                "bound": str(bound),
            },
            telemetry=report.get("telemetry", {}),
        )

    def check(answer: Answer) -> None:
        from ergmax.graph import Graph
        from ergmax.reporting import ExperimentSpec, hamiltonian_for
        from ergmax.space import SampleSpace
        from ergmax.stats import eval_hamiltonian

        status, objective, bits = answer.key
        n = int(_flag(argv, "--n"))
        spec = ExperimentSpec(
            n=n,
            model=_flag(argv, "--model") or "triads_vs_nonedges",
            alpha=Fraction(_flag(argv, "--alpha")),
            delta_source=None if delta_file is None else str(delta_file),
        )
        h = hamiltonian_for(spec)
        space = SampleSpace.connected_graphs()
        g = Graph(n, bits)
        if not space.admits(g):
            raise JobFailed("reported graph is outside the connected space")
        if eval_hamiltonian(h, g) != objective:
            raise JobFailed(f"objective {objective} != recomputed {eval_hamiltonian(h, g)}")
        verify(g, answer, h, space)

    return Job(argv, expect_rc, read, check)


def _triads_exact() -> list[Job]:
    jobs = []
    for (n, alpha, gamma), optimum in EXACT_OPTIMA.items():
        argv = ["solve", "--solver", "bnb", "--n", str(n), "--alpha", alpha, "--seed", "0"]
        if gamma is not None:
            argv += ["--gamma", gamma]

        def verify(g, answer, h, space, optimum=optimum):
            status, objective, _ = answer.key
            if status != "optimal":
                raise JobFailed(f"status {status!r}, expected 'optimal'")
            if objective != optimum:
                raise JobFailed(f"objective {objective} != recorded optimum {optimum}")

        jobs.append(_graph_job(argv, 0, optimum, "maximize", verify))
    return jobs


def _local_optimum(g, answer, h, space) -> None:
    from ergmax.local_search import has_improving_toggle

    if answer.key[0] != "incumbent":
        raise JobFailed(f"status {answer.key[0]!r}, expected 'incumbent'")
    if has_improving_toggle(g, h, space):
        raise JobFailed("a single toggle still improves the reported graph")


def _triads_heuristic(seed: int) -> list[Job]:
    n = TRIADS_HEURISTIC_N
    return [
        _graph_job(
            ["heuristic", "--n", str(n), "--alpha", alpha, "--restarts", "1", "--seed", str(seed)],
            2,
            triads_upper_bound(n, Fraction(alpha)),
            "maximize",
            _local_optimum,
        )
        for alpha in HEURISTIC_ALPHAS
    ]


def _scaled_delta(n: int, seed: int):
    from ergmax.stats import random_unit_square_delta

    return tuple(
        tuple(FLOW_DELTA_SCALE * d for d in row) for row in random_unit_square_delta(n, seed)
    )


def _flow_heuristic(seed: int, workdir: Path) -> list[Job]:
    from ergmax.stats import write_delta

    delta = _scaled_delta(FLOW_N, seed)
    delta_file = workdir / "delta.txt"
    with open(delta_file, "w") as f:
        write_delta(delta, f)
    return [
        _graph_job(
            [
                "heuristic", "--model", "distance_vs_flow", "--n", str(FLOW_N),
                "--alpha", alpha, "--restarts", str(FLOW_RESTARTS), "--seed", str(seed),
                "--delta-file", str(delta_file),
            ],
            2,
            flow_lower_bound(delta, Fraction(alpha)),
            "minimize",
            _local_optimum,
            delta_file,
        )
        for alpha in HEURISTIC_ALPHAS
    ]


# ---------------------------------------------------------------------------
# export jobs


def _lp_export(seed: int, workdir: Path) -> list[Job]:
    from ergmax.exact import available_chord_slots, star_with_chords, structural_lower_bounds
    from ergmax.graph import Graph
    from ergmax.lp import edge_assignment, maxmin_assignment, multicommodity_flow_assignment
    from ergmax.stats import random_unit_square_delta, s_flow_distance, s_physical_distance

    alpha = Fraction(LP_ALPHA)
    # witnesses: the warm starts the solvers use, with complete assignments
    n = LP_TRIADS_N
    chords = min(structural_lower_bounds(n, alpha).min_triangles, available_chord_slots(n))
    triads_witness = maxmin_assignment(n, alpha, star_with_chords(n, chords))
    star = Graph.star(LP_FLOW_N)
    flow_witness = edge_assignment(star) | multicommodity_flow_assignment(star)
    flow_witness["H"] = max(
        alpha * s_physical_distance(star, random_unit_square_delta(LP_FLOW_N, seed)),
        (1 - alpha) * s_flow_distance(star),
    )
    return [
        _export_job(
            ["export-lp", "--n", str(LP_TRIADS_N), "--alpha", LP_ALPHA],
            workdir / "triads", triads_witness,
        ),
        _export_job(
            ["export-lp", "--model", "distance_vs_flow", "--n", str(LP_FLOW_N),
             "--alpha", LP_ALPHA, "--seed", str(seed)],
            workdir / "flow", flow_witness,
        ),
    ]


def _export_job(argv: list[str], stem: Path, witness: dict[str, Fraction]) -> Job:
    lp_file = stem.with_suffix(".lp")
    ir_file = stem.with_suffix(".json")
    argv = argv + ["--out", str(lp_file), "--ir-json", str(ir_file)]

    def files() -> tuple[bytes, bytes]:
        try:
            return lp_file.read_bytes(), ir_file.read_bytes()
        except OSError as exc:
            raise JobFailed(f"export file missing: {exc}") from exc

    def digests(lp_bytes: bytes, ir_bytes: bytes) -> tuple[str, str]:
        return hashlib.sha256(lp_bytes).hexdigest(), hashlib.sha256(ir_bytes).hexdigest()

    def read(stdout: str) -> Answer:
        lp_bytes, ir_bytes = files()
        return Answer(
            key=digests(lp_bytes, ir_bytes),
            # no search happens, so the answer meets its bound by definition
            ratio=Fraction(1),
            gap=Fraction(0),
            record={"lp_bytes": len(lp_bytes), "ir_bytes": len(ir_bytes)},
        )

    def verify(answer: Answer) -> None:
        from ergmax.lp import ConstraintSystem, check_assignment, lp_string

        lp_bytes, ir_bytes = files()
        if digests(lp_bytes, ir_bytes) != answer.key:
            raise JobFailed("the export files changed after the run being verified")
        cs = ConstraintSystem.from_json_dict(json.loads(ir_bytes))
        if lp_string(cs).encode() != lp_bytes:
            raise JobFailed("the LP file differs from the LP rendering of its IR JSON")
        result = check_assignment(cs, witness)
        if not result.feasible or result.semantic_notes:
            raise JobFailed(
                f"witness rejected: {len(result.row_violations)} rows, "
                f"{result.variable_violations[:2]}, {result.semantic_notes[:2]}"
            )

    return Job(argv, 0, read, verify)


# ---------------------------------------------------------------------------
# helpers


def _json(stdout: str) -> dict[str, Any]:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise JobFailed(f"output is not JSON: {exc}") from exc


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None

