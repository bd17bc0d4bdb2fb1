"""First-improve single-edge local search with seeded restarts.

Each pass scans the candidate edge toggles in a freshly shuffled order
and applies the first strictly improving feasible one; the walk stops at
a state where no single toggle helps.  A fixed scan order would make
restarts redundant, so the shuffle is reseeded per restart.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .exact import SolveResult
from .graph import DisconnectedGraphError, Graph, bfs, is_connected, num_pairs, pair_of
from .space import SampleSpace
from .stats import (
    Hamiltonian,
    StatisticKind,
    combine,
    evaluate_statistic,
    improves,
    s_flow_distance,
)


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 0
    max_iterations: int = 100_000
    restarts: int = 1
    # every restart climbs from this graph, or from a fresh seeded random one
    start: Graph | str = "random_connected"

    def __post_init__(self) -> None:
        if not isinstance(self.start, Graph) and self.start != "random_connected":
            raise ValueError(f"start must be a Graph or 'random_connected', not {self.start!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def random_connected_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    """Seeded G(n, p) sample, patched with extra edges until connected."""
    g = Graph.from_edges(
        n,
        ((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p),
    )
    while (comp := bfs(g, 0)[0]) != (1 << n) - 1:
        inside = [v for v in range(n) if comp >> v & 1]
        outside = [v for v in range(n) if not comp >> v & 1]
        a = rng.choice(inside)
        b = rng.choice(outside)
        g = g.with_edge(min(a, b), max(a, b))
    return g


def _weighted(h: Hamiltonian, values: list[Fraction | int]) -> Fraction:
    return combine(h, [theta * Fraction(v) for (theta, _), v in zip(h.terms, values)])


def _toggle_values(
    h: Hamiltonian, g: Graph, values: list[Fraction | int], i: int, j: int, adding: bool
) -> list[Fraction | int]:
    """Statistic values after toggling (i, j), computed incrementally where cheap."""
    out: list[Fraction | int] = []
    toggled: Graph | None = None
    for (theta, spec), current in zip(h.terms, values):
        kind = spec.kind
        if kind is StatisticKind.NON_EDGES:
            out.append(current + (-1 if adding else 1))
        elif kind is StatisticKind.TRIANGLES:
            d = g.common_neighbor_count(i, j)
            out.append(current + (d if adding else -d))
        elif kind is StatisticKind.PHYSICAL_DISTANCE:
            assert spec.delta is not None
            out.append(current + (spec.delta[i][j] if adding else -spec.delta[i][j]))
        elif kind is StatisticKind.FLOW_DISTANCE:
            if toggled is None:
                toggled = g.toggled(i, j)
            out.append(s_flow_distance(toggled))
        else:
            raise ValueError(f"unknown statistic kind {kind!r}")
    return out


def _toggle_keeps_space(g: Graph, i: int, j: int, adding: bool, space: SampleSpace) -> bool:
    if space.density is not None:
        return False  # any single toggle changes the edge count
    if not adding and space.connected:
        return is_connected(g.without_edge(i, j))
    return True


def first_improve(
    start: Graph,
    h: Hamiltonian,
    space: SampleSpace,
    cfg: SearchConfig,
) -> SolveResult:
    """Climb from `start` by first-improve toggles until 1-toggle locally optimal.

    Toggles that leave the space (disconnecting removals, any toggle
    under a fixed edge count) are rejected, not repaired.  The returned
    status is always 'incumbent'.
    """
    if not space.admits(start):
        raise ValueError("start graph is infeasible for the sample space")
    t0 = time.perf_counter()
    rng = random.Random(cfg.seed)
    n = start.n
    pairs = [pair_of(idx, n) for idx in range(num_pairs(n))]
    order = list(range(len(pairs)))

    g = start
    values = [evaluate_statistic(spec, g) for _, spec in h.terms]
    objective = _weighted(h, values)
    moves = 0
    evaluations = 0
    improved = True
    while improved and moves < cfg.max_iterations:
        improved = False
        rng.shuffle(order)
        for idx in order:
            i, j = pairs[idx]
            adding = not g.has_edge(i, j)
            if not _toggle_keeps_space(g, i, j, adding, space):
                continue
            try:
                cand_values = _toggle_values(h, g, values, i, j, adding)
            except DisconnectedGraphError:
                continue
            evaluations += 1
            cand_obj = _weighted(h, cand_values)
            if improves(cand_obj, objective, h.sense):
                g = g.toggled(i, j)
                values = cand_values
                objective = cand_obj
                moves += 1
                improved = True
                break
    return SolveResult(
        graph=g,
        objective=objective,
        statistic_values=tuple(values),
        status="incumbent",
        nodes_explored=evaluations,
        wall_time=time.perf_counter() - t0,
    )


def has_improving_toggle(g: Graph, h: Hamiltonian, space: SampleSpace) -> bool:
    """Exhaustive post-hoc scan used to verify 1-toggle local optimality."""
    values = [evaluate_statistic(spec, g) for _, spec in h.terms]
    objective = _weighted(h, values)
    for idx in range(num_pairs(g.n)):
        i, j = pair_of(idx, g.n)
        adding = not g.has_edge(i, j)
        if not _toggle_keeps_space(g, i, j, adding, space):
            continue
        try:
            cand = _weighted(h, _toggle_values(h, g, values, i, j, adding))
        except DisconnectedGraphError:
            continue
        if improves(cand, objective, h.sense):
            return True
    return False


def multi_restart(
    n: int,
    h: Hamiltonian,
    space: SampleSpace,
    cfg: SearchConfig,
) -> SolveResult:
    """Best of `cfg.restarts` seeded first-improve runs.

    Deterministic given the seed; ties between restarts break toward the
    lexicographically smallest edge bitset.
    """
    t0 = time.perf_counter()
    master = random.Random(cfg.seed)
    best: SolveResult | None = None
    total_evals = 0
    for _ in range(cfg.restarts):
        sub_seed = master.randrange(2**63)
        sub_rng = random.Random(sub_seed)
        start = cfg.start if isinstance(cfg.start, Graph) else random_connected_graph(n, sub_rng)
        sub_cfg = SearchConfig(
            seed=sub_seed,
            max_iterations=cfg.max_iterations,
            restarts=1,
            start=cfg.start,
        )
        result = first_improve(start, h, space, sub_cfg)
        total_evals += result.nodes_explored
        if (
            best is None
            or improves(result.objective, best.objective, h.sense)
            or (
                result.objective == best.objective
                and result.graph.bits < best.graph.bits
            )
        ):
            best = result
    assert best is not None
    best.nodes_explored = total_evals
    best.wall_time = time.perf_counter() - t0
    return best
