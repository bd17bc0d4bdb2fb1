"""First-improve single-edge local search with seeded restarts.

Each pass scans the candidate edge toggles in a fresh uniformly random
order and applies the first strictly improving feasible one; the walk
stops at a state where no single toggle helps.  The order is drawn
lazily, one pair per scanned position (forward Fisher-Yates), so a pass
that stops early pays only for the pairs it scanned.  A pass scores only
the toggles in a direction that can raise every binding term (see
:func:`~ergmax.stats.improving_directions`); it still draws every position
it reaches, so its walk is the one an unfiltered scan would take.
Toggles are scored as ints on the objective's grid, where higher is
better in either sense (see :class:`~ergmax.stats.Hamiltonian`), and a
climb's result is divided back once, by :meth:`SolveResult.of`.  Each
candidate is a :class:`~ergmax.graph.Toggle` scored from its parent graph
(see :func:`~ergmax.stats.grid_stepper`): a Graph is built for the move
taken, and for a candidate only when its flow distance is read off one,
which a graph with a hub, a node adjacent to every other, never needs.
A removal's connectivity test searches the parent's rows.
"""

from __future__ import annotations

import random
import time
from typing import Iterable, Iterator

from .exact import SolveResult
from .graph import DisconnectedGraphError, Graph, Toggle, all_pairs, joined_without
from .space import SampleSpace
from .stats import Hamiltonian, grid_values, improving_directions, score


def _seeded(seed: int) -> random.Random:
    # random.Random(None) would seed from the operating system
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be an int, not {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed}")
    return random.Random(seed)


def _scan_order(pairs: list[tuple[int, int]], rng: random.Random) -> Iterator[tuple[int, int]]:
    """Yield `pairs` in a uniformly random order, drawing each position on demand.

    Position k swaps in a pair drawn from positions k onward, so a scan
    run to the end yields every pair exactly once, and one stopped early
    has drawn only the positions it reached.  `pairs` is permuted in place.
    """
    for k in range(len(pairs)):
        r = rng.randrange(k, len(pairs))
        pairs[k], pairs[r] = pairs[r], pairs[k]
        yield pairs[k]


def _feasible_toggles(
    g: Graph,
    h: Hamiltonian,
    space: SampleSpace,
    values: tuple[int, ...],
    pairs: Iterable[tuple[int, int]],
    directions: tuple[bool, bool] = (True, True),
) -> Iterator[tuple[Toggle, tuple[int, ...], int | None]]:
    """Yield (move, its statistic values, its objective) per feasible toggle
    of g, all on h's grid: `values` are g's.

    A toggle is feasible when it keeps g in the objective's domain and in
    the space; toggles come in `pairs` order, and additions are skipped
    unless ``directions[0]``, removals unless ``directions[1]``, before any
    test.  Each is scored from g, its
    values stepped from `values` with g's adjacency rows, read once here;
    only a flow distance step on a g without a hub builds the toggled
    graph, ``move.graph``, and sums its hops.  In the connected space a
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
    adds, removes = directions
    for i, j in pairs:
        added = not adj[i] >> j & 1
        if not (adds if added else removes):
            continue
        if space.connected and not added and (
                adj[i] == 1 << j or adj[j] == 1 << i
                or not adj[i] & adj[j] and not joined_without(adj, i, j)):
            continue
        move = Toggle(g, i, j, added)
        try:
            cand_values = tuple(step(move, adj, current) for step, current in steps)
        except DisconnectedGraphError:
            continue
        yield move, cand_values, score(h, cand_values)


def first_improve(
    start: Graph,
    h: Hamiltonian,
    space: SampleSpace,
    seed: int = 0,
) -> SolveResult:
    """Climb from `start` by first-improve toggles until 1-toggle locally optimal.

    Toggles that leave the space (disconnecting removals, any toggle
    under a fixed edge count) are rejected, not repaired.  `seed` draws the
    scan orders.  A scan scores only the toggles in the directions that
    :func:`~ergmax.stats.improving_directions` leaves open at its graph, and
    `nodes_explored` counts those; the others cannot improve, so the climb
    ends where a scan of every toggle would.  The returned status is always
    'incumbent'.
    """
    if h.floor is not None:
        raise ValueError("local search takes no floor on the objective")
    if not space.admits(start):
        raise ValueError("start graph is infeasible for the sample space")
    t0 = time.perf_counter()
    rng = _seeded(seed)
    pairs = list(all_pairs(start.n))

    g = start
    # values and objectives are ints on h's grid, divided back once at the end
    values = grid_values(h, g)
    objective = score(h, values)
    evaluations = 0
    # each move strictly raises an int score over finitely many graphs, so the climb ends
    while True:
        scan = _scan_order(pairs, rng)
        directions = improving_directions(h, values)
        for move, cand_values, cand_obj in _feasible_toggles(
                g, h, space, values, scan, directions):
            evaluations += 1
            if cand_obj > objective:
                g, values, objective = move.graph, cand_values, cand_obj
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
        for _, _, cand_obj in _feasible_toggles(g, h, space, values, all_pairs(g.n))
    )


def multi_restart(
    start: Graph,
    h: Hamiltonian,
    space: SampleSpace,
    seed: int = 0,
    restarts: int = 1,
) -> SolveResult:
    """Best of `restarts` first-improve climbs from `start`, each with a
    sub-seed drawn from `seed`.

    Deterministic given the seed; ties between restarts break toward the
    lexicographically smallest edge bitset.  A start that the first climb
    leaves unchanged is returned after that climb alone, since every later
    one would leave it unchanged too.
    """
    t0 = time.perf_counter()
    master = _seeded(seed)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    results: list[SolveResult] = []
    for _ in range(restarts):
        results.append(first_improve(start, h, space, master.randrange(2**63)))
        if results[-1].graph == start:
            # every move strictly improves, so a climb that ends at its start
            # has found it 1-toggle optimal
            break
    # the highest score on h's grid, then the smallest bitset; max keeps the first
    best = max(results, key=lambda r: (r.objective * h.scale, -r.graph.bits))
    best.nodes_explored = sum(r.nodes_explored for r in results)
    best.wall_time = time.perf_counter() - t0
    return best
