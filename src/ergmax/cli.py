"""Command-line surface: solve, bound, export, inspect, and check an assignment.

Exit codes: 0 optimal/ok, 2 incumbent-only, 3 infeasible or check mismatch,
1 usage or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .graph import graph_metrics, read_edge_list
from .lp import ConstraintSystem, check_assignment, export_lp
from .reporting import (
    MODELS,
    ExperimentSpec,
    constraint_system_for,
    fraction_json,
    hamiltonian_for,
    interval_for,
    json_text,
    metrics_row,
    report_json_dict,
    run_experiment,
    write_report_files,
)
from .space import SampleSpace

STATUS_EXIT = {"optimal": 0, "incumbent": 2, "infeasible": 3}


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def build_space(args: argparse.Namespace) -> SampleSpace:
    return SampleSpace(connected=args.space == "connected", density=args.density)


def add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of nodes (at least 2)")
    p.add_argument("--alpha", type=parse_fraction, default=Fraction(1, 2),
                   help="weight split, rational 'p/q' or decimal (default 1/2)")
    p.add_argument("--space", choices=("connected", "all"), default="connected")
    p.add_argument("--density", type=int, default=None,
                   help="also fix the edge count to this value")
    add_instance_flags(p)


def add_instance_flags(p: argparse.ArgumentParser) -> None:
    """The model, and where the distance model's distances come from."""
    p.add_argument("--model", choices=MODELS, default=ExperimentSpec.model)
    p.add_argument("--delta-file", default=None,
                   help="distance-matrix file for the distance model "
                        "(default: seeded unit-square generator)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the distance model's generated points (default 0)")


# Flags only solve or heuristic takes.  They default to argparse.SUPPRESS,
# so an unset one is absent from args and ExperimentSpec's default applies.
SOLVER_OPTIONS = ("gamma", "node_limit", "time_limit", "restarts")


def make_spec(args: argparse.Namespace, solver: str) -> ExperimentSpec:
    return ExperimentSpec(
        n=args.n,
        model=args.model,
        alpha=args.alpha,
        space=build_space(args),
        solver=solver,
        seed=args.seed,
        delta_source=args.delta_file,
        **{key: getattr(args, key) for key in SOLVER_OPTIONS if hasattr(args, key)},
    )


def cmd_bound(args: argparse.Namespace) -> int:
    spec = make_spec(args, "bnb")
    bound, value, inner = interval_for(spec, hamiltonian_for(spec))
    print(json_text({
        "n": spec.n,
        "alpha": fraction_json(spec.alpha),
        "bound": fraction_json(bound),
        "witness_edges": inner.edge_count,
        "witness_objective": fraction_json(value),
    }))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.solver == "brute" and {"node_limit", "time_limit"} & vars(args).keys():
        raise ValueError("--node-limit and --time-limit limit bnb; brute force takes no limit")
    report = run_experiment(make_spec(args, args.solver))
    # encoded once, for stdout and result.json alike
    text = json_text(report_json_dict(report))
    if args.out_dir is not None:
        write_report_files(report, Path(args.out_dir), text)
    print(text)
    return STATUS_EXIT[report.result.status]


def cmd_export_lp(args: argparse.Namespace) -> int:
    cs = constraint_system_for(make_spec(args, "brute"))
    export_lp(cs, args.out)
    if args.ir_json:
        with open(args.ir_json, "w") as f:
            cs.to_json(f)
            f.write("\n")
    print(f"wrote {args.out}" + (f" and {args.ir_json}" if args.ir_json else ""))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    with open(args.graph_file) as f:
        g = read_edge_list(f)
    print(metrics_row(graph_metrics(g)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    cs = ConstraintSystem.from_json_dict(json.loads(Path(args.ir_json).read_text()))
    assignment = json.loads(Path(args.assignment).read_text())
    if not isinstance(assignment, dict):
        raise ValueError("assignment must be a JSON object mapping variable names to values, "
                         f"not {type(assignment).__name__}")
    result = check_assignment(cs, assignment, tolerance=args.tol)
    for v in result.row_violations:
        print(f"violated {v.row}: lhs={float(v.lhs)} {v.relation} rhs={float(v.rhs)} "
              f"(by {float(v.amount)})")
    for note in result.variable_violations:
        print(f"variable: {note}")
    for note in result.semantic_notes:
        print(f"semantic: {note}")
    print("FEASIBLE" if result.feasible else "INFEASIBLE")
    return 0 if result.feasible else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built at the first call and kept, since
    parse_args reads it and leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="ergmax",
        description="Synthesize maximally probable networks over constrained graph spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="the interval holding the connected optimum: a bound "
                                     "and a witness's value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=parse_fraction, required=True)
    add_instance_flags(p)
    p.set_defaults(func=cmd_bound, space="connected", density=None)

    p = sub.add_parser("solve", help="exact solve by brute force or branch-and-bound")
    add_model_flags(p)
    p.add_argument("--solver", choices=("brute", "bnb"), default="bnb")
    p.add_argument("--gamma", type=parse_fraction, default=argparse.SUPPRESS,
                   help="two-stage suboptimality tolerance in [0, 1]")
    p.add_argument("--node-limit", type=int, default=argparse.SUPPRESS,
                   help=f"bnb nodes per stage (default {ExperimentSpec.node_limit})")
    p.add_argument("--time-limit", type=float, default=argparse.SUPPRESS,
                   help=f"bnb seconds per stage (default {ExperimentSpec.time_limit})")
    p.add_argument("--out-dir", default=None, help="write result files here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("heuristic", help="first-improve local search from a closed-form witness")
    add_model_flags(p)
    p.add_argument("--restarts", type=int, default=argparse.SUPPRESS,
                   help="reported only: the climb is deterministic and runs once "
                        f"(default {ExperimentSpec.restarts})")
    p.add_argument("--out-dir", default=None, help="write result files here")
    p.set_defaults(func=cmd_run, solver="local_search")

    p = sub.add_parser("export-lp", help="write the CPLEX-LP file for a model")
    add_model_flags(p)
    p.add_argument("--out", required=True, help="LP file path")
    p.add_argument("--ir-json", default=None, help="also dump the constraint IR as JSON")
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("metrics", help="density/CC/APL row for an edge-list file")
    p.add_argument("graph_file")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("check", help="verify an external solver assignment against the IR")
    p.add_argument("--ir-json", required=True)
    p.add_argument("--assignment", required=True, help="JSON mapping variable -> value")
    p.add_argument("--tol", type=parse_fraction, default=Fraction(0),
                   help="nonnegative violation tolerance (rational or decimal)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
