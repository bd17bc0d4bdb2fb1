"""First-improve single-edge local search, deterministic from its start.

Each pass scans the candidate edge toggles of the current graph in rank
order (:func:`~ergmax.graph.all_pairs` order) and applies the first
strictly improving feasible one; the walk stops at a state where no
single toggle helps.  A pass reads the directions that can raise every
binding term (see :func:`~ergmax.stats.improving_directions`) and takes
its candidates from the graph's adjacency rows: the non-edges when only
additions can help, the edges when only removals can, every pair when
both can and none when neither can.  The toggles it skips cannot
improve, so its walk is the one a scan of every toggle in rank order
would take.  Toggles are scored as ints on the objective's grid, where
higher is better in either sense (see :class:`~ergmax.stats.Hamiltonian`),
and a climb's result is divided back once, by :meth:`SolveResult.of`.
Each candidate is scored from its parent graph's adjacency rows (see
:func:`~ergmax.stats.grid_stepper`), and a Graph is built only for the
move taken.  A removal's connectivity test searches the parent's rows.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from .exact import SolveResult
from .graph import DisconnectedGraphError, Graph, all_pairs, joined_without
from .space import SampleSpace
from .stats import Hamiltonian, grid_values, improving_directions, score


def _open_pairs(adj: tuple[int, ...], adds: bool, removes: bool) -> Iterator[tuple[int, int]]:
    """The pairs of a graph with adjacency rows `adj`, in rank order: its
    non-edges when `adds`, its edges when `removes`."""
    if not (adds or removes):
        return
    n = len(adj)
    for i, row in enumerate(adj):
        above = (1 << n) - (2 << i)  # the nodes j > i
        if not adds:
            above &= row
        elif not removes:
            above &= ~row
        while above:
            low = above & -above
            yield i, low.bit_length() - 1
            above ^= low


def _feasible_toggles(
    g: Graph,
    h: Hamiltonian,
    space: SampleSpace,
    values: tuple[int, ...],
    pairs: Iterable[tuple[int, int]],
) -> Iterator[tuple[int, int, tuple[int, ...], int | None]]:
    """Yield (i, j, its statistic values, its objective) per feasible toggle
    (i, j) of g among `pairs`, in their order, all on h's grid: `values` are g's.

    A toggle is feasible when it keeps g in the objective's domain and in
    the space.  Each is scored from g, its values stepped from `values`
    with g's adjacency rows, read once here.  In the connected space a
    removal is decided before anything is stepped: one that leaves an
    endpoint with no neighbour is skipped, one whose endpoints share a
    neighbour keeps them joined through it, and any other is kept only if
    a search from one endpoint over g's rows without the pair reaches the
    other.
    """
    if space.density is not None:
        return  # any single toggle changes the edge count
    steps = tuple(zip(h.steppers, values))
    adj = g.adjacency()
    for i, j in pairs:
        added = not adj[i] >> j & 1
        if space.connected and not added and (
                adj[i] == 1 << j or adj[j] == 1 << i
                or not adj[i] & adj[j] and not joined_without(adj, i, j)):
            continue
        try:
            cand_values = tuple(step(adj, i, j, added, current) for step, current in steps)
        except DisconnectedGraphError:
            continue
        yield i, j, cand_values, score(h, cand_values)


def first_improve(start: Graph, h: Hamiltonian, space: SampleSpace) -> SolveResult:
    """Climb from `start` by first-improve toggles until 1-toggle locally optimal.

    Each scan takes the first strictly improving feasible toggle in rank
    order, so the climb is deterministic.  Toggles that leave the space
    (disconnecting removals, any toggle under a fixed edge count) are
    rejected, not repaired.  A scan scores only the toggles in the
    directions that :func:`~ergmax.stats.improving_directions` leaves open
    at its graph, and `nodes_explored` counts those; the others cannot
    improve, so the climb takes the moves a scan of every toggle would.
    The returned status is always 'incumbent'.
    """
    if h.floor is not None:
        raise ValueError("local search takes no floor on the objective")
    if not space.admits(start):
        raise ValueError("start graph is infeasible for the sample space")
    t0 = time.perf_counter()
    g = start
    # values and objectives are ints on h's grid, divided back once at the end
    values = grid_values(h, g)
    objective = score(h, values)
    evaluations = 0
    # each move strictly raises an int score over finitely many graphs, so the climb ends
    while True:
        pairs = _open_pairs(g.adjacency(), *improving_directions(h, values))
        for i, j, cand_values, cand_obj in _feasible_toggles(g, h, space, values, pairs):
            evaluations += 1
            if cand_obj > objective:
                g, values, objective = g.toggled(i, j), cand_values, cand_obj
                break
        else:
            break  # a full scan found no improving toggle
    return SolveResult.of(h, g, objective, "incumbent", evaluations, t0)


def has_improving_toggle(g: Graph, h: Hamiltonian, space: SampleSpace) -> bool:
    """Exhaustive post-hoc scan used to verify 1-toggle local optimality.

    It scores every feasible toggle in both directions, so it referees the
    directions :func:`first_improve` rules out rather than trusting them."""
    values = grid_values(h, g)
    objective = score(h, values)
    return any(
        cand_obj > objective
        for _, _, _, cand_obj in _feasible_toggles(g, h, space, values, all_pairs(g.n))
    )

