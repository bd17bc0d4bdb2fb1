"""ergmax: synthesis of maximally probable networks under exponential
random graph models restricted to constrained graph spaces.

The package optimizes graph-probability objectives (weighted sums or
robust weighted minima of network statistics) over families such as all
connected graphs or graphs of fixed edge count, exactly at small scale
and heuristically at medium scale, and exports the equivalent
linear-constraint formulations for external integer-programming solvers.
"""

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphMetrics,
    average_local_clustering,
    average_path_length,
    clustering_coefficient,
    count_triangles,
    edge_index,
    graph_metrics,
    is_connected,
    pair_of,
    read_edge_list,
)
from .space import SampleSpace
from .stats import (
    Hamiltonian,
    HamiltonianForm,
    StatisticKind,
    StatisticSpec,
    eval_hamiltonian,
    random_unit_square_delta,
    s_flow_distance,
    s_non_edges,
    s_physical_distance,
)
from .lp import (
    ConstraintSystem,
    build_connectivity_flow,
    build_fixed_density,
    build_maxmin,
    build_minmax_distance,
    build_multicommodity_flow,
    build_triangle_indicators,
    check_assignment,
    export_lp,
    lp_string,
)
from .exact import (
    SolveResult,
    StructuralBound,
    branch_and_bound,
    brute_force,
    solve_two_stage,
    star_with_chords,
    structural_lower_bounds,
)
from .local_search import first_improve, has_improving_toggle
from .reporting import ExperimentSpec, metrics_row, run_experiment

__version__ = "0.1.0"

__all__ = [
    "DisconnectedGraphError",
    "Graph",
    "GraphMetrics",
    "average_local_clustering",
    "average_path_length",
    "clustering_coefficient",
    "count_triangles",
    "edge_index",
    "graph_metrics",
    "is_connected",
    "pair_of",
    "read_edge_list",
    "SampleSpace",
    "Hamiltonian",
    "HamiltonianForm",
    "StatisticKind",
    "StatisticSpec",
    "eval_hamiltonian",
    "random_unit_square_delta",
    "s_flow_distance",
    "s_non_edges",
    "s_physical_distance",
    "ConstraintSystem",
    "build_connectivity_flow",
    "build_fixed_density",
    "build_maxmin",
    "build_minmax_distance",
    "build_multicommodity_flow",
    "build_triangle_indicators",
    "check_assignment",
    "export_lp",
    "lp_string",
    "SolveResult",
    "StructuralBound",
    "branch_and_bound",
    "brute_force",
    "solve_two_stage",
    "star_with_chords",
    "structural_lower_bounds",
    "first_improve",
    "has_improving_toggle",
    "ExperimentSpec",
    "metrics_row",
    "run_experiment",
]
