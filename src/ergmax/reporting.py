"""Experiment orchestration, metric tables, and graph/result exporters."""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import inf
from pathlib import Path
from typing import Any

from .exact import SolveResult, branch_and_bound, brute_force, solve_two_stage
from .frontier import distance_interval, optimum, witness
from .graph import Graph, GraphMetrics, edge_list_string, graph_metrics
from .local_search import first_improve
from .lp import ConstraintSystem, build_maxmin, build_minmax_distance
from .space import SampleSpace
from .stats import (
    DeltaMatrix,
    Hamiltonian,
    StatisticKind,
    StatisticSpec,
    eval_hamiltonian,
    parse_delta,
    random_unit_square_delta,
)

MODELS = ("triads_vs_nonedges", "distance_vs_flow")
SOLVERS = ("brute", "bnb", "local_search")


@dataclass
class ExperimentSpec:
    """One solvable experiment: model, space, solver, and reproducibility knobs."""

    n: int
    model: str = "triads_vs_nonedges"
    alpha: Fraction = Fraction(1, 2)
    space: SampleSpace = SampleSpace.connected_graphs()
    solver: str = "bnb"
    gamma: Fraction | None = None
    seed: int = 0
    delta_source: str | None = None  # path to a matrix file; None -> seeded generator
    restarts: int = 10  # reported only: local search climbs once
    node_limit: int = 10_000_000
    time_limit: float = 300.0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        # the seed draws the distance model's points, and True would run seed 1
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"need a nonnegative int seed, got {self.seed!r}")
        if self.node_limit < 1:
            raise ValueError(f"need a node limit of at least 1, got {self.node_limit}")
        # such a limit explores no node and would report the warm start as an incumbent
        if not self.time_limit > 0:
            raise ValueError(f"need a positive time limit, got {self.time_limit}")
        if isinstance(self.restarts, bool) or not isinstance(self.restarts, int) or self.restarts < 1:
            raise ValueError(f"need an int restart count of at least 1, got {self.restarts!r}")
        if self.delta_source is not None and self.model != "distance_vs_flow":
            raise ValueError("a distance-matrix file is read only by the distance_vs_flow model")
        self.alpha = Fraction(self.alpha)
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.gamma is not None:
            self.gamma = Fraction(self.gamma)
            if not 0 <= self.gamma <= 1:
                raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


def resolve_delta(spec: ExperimentSpec) -> DeltaMatrix | None:
    """The distance model's matrix, drawn from the seed or parsed from
    ``spec.delta_source``; the StatisticSpec built from it validates it."""
    if spec.model != "distance_vs_flow":
        return None
    if spec.delta_source is None:
        return random_unit_square_delta(spec.n, spec.seed)
    with open(spec.delta_source) as f:
        delta = parse_delta(f)
    if len(delta) != spec.n:
        raise ValueError(f"distance matrix is {len(delta)}x{len(delta)}, graph has n={spec.n}")
    return delta


def hamiltonian_for(spec: ExperimentSpec, delta: DeltaMatrix | None = None) -> Hamiltonian:
    if spec.model == "triads_vs_nonedges":
        return Hamiltonian.max_min_pair(
            spec.alpha,
            StatisticSpec(StatisticKind.NON_EDGES),
            StatisticSpec(StatisticKind.TRIANGLES),
            sense="maximize",
        )
    if delta is None:
        delta = resolve_delta(spec)
    return Hamiltonian.max_min_pair(
        spec.alpha,
        StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta),
        StatisticSpec(StatisticKind.FLOW_DISTANCE),
        sense="minimize",
    )


def interval_for(spec: ExperimentSpec, h: Hamiltonian
                 ) -> tuple[Fraction, Fraction | None, Graph | None]:
    """(bound, value, witness) for `spec`'s model and `h`, its objective: no
    graph in the space scores past the bound, and the witness lies in the
    space and scores value.  The triads model's bound is the all-space
    optimum; under a fixed edge count there is no witness and no value."""
    if spec.model == "triads_vs_nonedges":
        g = witness(spec.n, spec.alpha, spec.space.connected)
        bound, value = optimum(spec.n, spec.alpha), eval_hamiltonian(h, g)
    else:
        bound, value, g = distance_interval(h)
    return (bound, value, g) if spec.space.density is None else (bound, None, None)


def constraint_system_for(spec: ExperimentSpec) -> ConstraintSystem:
    """The linear system of `spec`'s model, for export."""
    if spec.model == "triads_vs_nonedges":
        return build_maxmin(spec.n, spec.alpha, spec.space)
    return build_minmax_distance(spec.n, spec.alpha, resolve_delta(spec), spec.space)


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    hamiltonian: Hamiltonian
    result: SolveResult
    metrics: GraphMetrics | None
    p_star: Fraction | None = None
    p_star_objective: str | None = None


def run_experiment(spec: ExperimentSpec, out_dir: str | Path | None = None) -> ExperimentReport:
    """Solve per the spec; optionally write JSON, table row, DOT, and edge list."""
    if spec.solver == "local_search" and spec.space.density is not None:
        raise ValueError("local search cannot keep a fixed edge count; use solve for --density")
    h = hamiltonian_for(spec)
    p_star = None
    p_star_objective = None
    # bnb's ceiling, its incumbent when the edge count is free, and local search's start
    bound, _, start = interval_for(spec, h)
    bnb_options = {
        "incumbent": start,
        "ceiling": bound,
        "node_limit": spec.node_limit,
        "time_limit": spec.time_limit,
    }

    if spec.gamma is not None:
        if spec.model != "triads_vs_nonedges" or spec.solver == "local_search":
            raise ValueError(
                "two-stage gamma solves support the triads model with brute or bnb solvers"
            )
        two = solve_two_stage(
            spec.n, spec.space, list(h.terms), spec.gamma, method=spec.solver, **bnb_options
        )
        if two.stage2 is None:
            result = two.stage1
        else:
            p_star = two.p_star
            p_star_objective = two.p_star_objective
            # the report's telemetry covers both stages' searches
            result = replace(
                two.stage2,
                nodes_explored=two.stage1.nodes_explored + two.stage2.nodes_explored,
                wall_time=two.stage1.wall_time + two.stage2.wall_time,
            )
    elif spec.solver == "brute":
        result, _ = brute_force(spec.n, spec.space, h)
    elif spec.solver == "bnb":
        result = branch_and_bound(spec.n, spec.space, h, **bnb_options)
    else:
        # a deterministic climb would only repeat itself: one runs, whatever spec.restarts
        result = first_improve(start, h, spec.space)

    metrics = graph_metrics(result.graph) if result.graph is not None else None
    report = ExperimentReport(spec, h, result, metrics, p_star, p_star_objective)
    if out_dir is not None:
        write_report_files(report, Path(out_dir), json_text(report_json_dict(report)))
    return report


# ---------------------------------------------------------------------------
# formatting


def fraction_json(q: Fraction | int | None) -> dict[str, Any] | None:
    if q is None:
        return None
    q = Fraction(q)
    return {"fraction": f"{q.numerator}/{q.denominator}", "decimal": float(q)}


def _float_text(value: float) -> str:
    """A float as json writes it, the non-finite ones included."""
    if value != value:
        return "NaN"
    if value in (inf, -inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


# the text of each scalar type a report holds, looked up by exact type
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def json_text(value: Any, newline: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2)`` for what reports hold: dicts with
    str keys, lists, str, int, float, bool and None.  Any other type, a
    subclass included, or key raises TypeError.  ``newline`` is the line
    break and indent of the enclosing level.  json's indenting encoder is
    pure Python and slower than these joins."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if type(value) is list:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([json_text(v, inner) for v in value]) + newline + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        if any(type(key) is not str for key in value):
            raise TypeError("report keys must be str")
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + json_text(v, inner) for k, v in value.items()
        ]) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def format_decimal(q: Fraction, places: int = 5) -> str:
    """Exact rational rounded half-even to a fixed number of decimal places."""
    d = Decimal(q.numerator) / Decimal(q.denominator)
    quantum = Decimal(1).scaleb(-places)
    return str(d.quantize(quantum, rounding=ROUND_HALF_EVEN))


def metrics_row(metrics: GraphMetrics) -> str:
    """Density, clustering coefficient, average path length at five decimals."""
    apl = "n/a" if metrics.average_path_length is None else format_decimal(metrics.average_path_length)
    return (
        f"{format_decimal(metrics.density)}, "
        f"{format_decimal(metrics.clustering_coefficient)}, "
        f"{apl}"
    )


def dot_string(g: Graph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {i} -- {j};" for i, j in sorted(g.edges()))
    lines.append("}")
    return "\n".join(lines) + "\n"


def metrics_json(metrics: GraphMetrics | None) -> dict[str, Any] | None:
    if metrics is None:
        return None
    return {
        "edge_count": metrics.edge_count,
        "triangle_count": metrics.triangle_count,
        "density": fraction_json(metrics.density),
        "clustering_transitivity": fraction_json(metrics.clustering_coefficient),
        "clustering_average_local": fraction_json(metrics.average_local_clustering),
        "average_path_length": fraction_json(metrics.average_path_length),
    }


def report_json_dict(report: ExperimentReport) -> dict[str, Any]:
    spec = report.spec
    result = report.result
    return {
        "spec": {
            "n": spec.n,
            "model": spec.model,
            "alpha": fraction_json(spec.alpha),
            "gamma": fraction_json(spec.gamma),
            "space": spec.space.label(),
            "solver": spec.solver,
            "seed": spec.seed,
            "restarts": spec.restarts,
            "delta_source": spec.delta_source,
            "node_limit": spec.node_limit,
            "time_limit": spec.time_limit,
        },
        "status": result.status,
        "objective": fraction_json(result.objective),
        "p_star": fraction_json(report.p_star),
        "p_star_objective": report.p_star_objective,
        "statistics": [
            {
                "kind": spec_.kind.value,
                "weight": fraction_json(theta),
                "value": fraction_json(value),
            }
            for (theta, spec_), value in zip(report.hamiltonian.terms, result.statistic_values)
        ]
        if result.graph is not None
        else [],
        "graph": None
        if result.graph is None
        else {
            "n": result.graph.n,
            "edge_count": result.graph.edge_count,
            "edges": [list(e) for e in sorted(result.graph.edges())],
        },
        "metrics": metrics_json(report.metrics),
        "telemetry": {
            "nodes_explored": result.nodes_explored,
            "bound_at_root": fraction_json(result.bound_at_root),
            "wall_time_s": result.wall_time,
        },
    }


def write_report_files(report: ExperimentReport, out_dir: Path, text: str) -> None:
    """Write the report's files; `text` is its JSON, ``json_text(report_json_dict(report))``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(text + "\n")
    if report.result.graph is not None:
        g = report.result.graph
        (out_dir / "graph.txt").write_text(edge_list_string(g))
        (out_dir / "graph.dot").write_text(dot_string(g))
        assert report.metrics is not None
        (out_dir / "row.txt").write_text(metrics_row(report.metrics) + "\n")
