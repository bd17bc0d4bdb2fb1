"""Network statistics and the exponential-model objective built from them.

A :class:`Hamiltonian` is either a weighted sum of statistics (the
classical exponential-family exponent) or a weighted min/max of them
(the robust variant).  Weights are made :class:`~fractions.Fraction` once,
when a Hamiltonian is built, which also scales the objective once onto an
integer grid.  The sense is folded into that scale, negative when
minimizing, so a :func:`score` is an exact int where higher is always
better, and the solvers divide back once, when they report a value.
This module is the only one that reads a Hamiltonian's ``sense``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence, TextIO

from .graph import (
    DisconnectedGraphError,
    Graph,
    count_triangles,
    hop_total,
    num_pairs,
    shares_hub,
    total_hop_count,
)

DeltaMatrix = tuple[tuple[Fraction, ...], ...]


class StatisticKind(str, Enum):
    NON_EDGES = "non_edges"
    TRIANGLES = "triangles"
    PHYSICAL_DISTANCE = "physical_distance"
    FLOW_DISTANCE = "flow_distance"

    def __init__(self, value: str) -> None:
        # adding an edge never lowers an increasing statistic (distances are
        # nonnegative) nor raises another; a plain attribute, as bnb reads it per node
        self.increasing = value in ("triangles", "physical_distance")
        # relabelling the nodes leaves the statistic unchanged: all but physical
        # distance, which depends on where each node sits
        self.label_invariant = value != "physical_distance"


def validate_delta(delta: DeltaMatrix) -> None:
    """Reject asymmetric, negative, or nonzero-diagonal distance matrices."""
    n = len(delta)
    for row in delta:
        if len(row) != n:
            raise ValueError("distance matrix must be square")
    for i in range(n):
        if delta[i][i] != 0:
            raise ValueError("distance matrix diagonal must be zero")
        for j in range(i + 1, n):
            if delta[i][j] != delta[j][i]:
                raise ValueError(f"distance matrix asymmetric at ({i}, {j})")
            if delta[i][j] < 0:
                raise ValueError(f"negative distance at ({i}, {j})")


@dataclass(frozen=True)
class StatisticSpec:
    """One structural statistic; a distance matrix is required iff kind is physical."""

    kind: StatisticKind
    delta: DeltaMatrix | None = None
    # the statistic's value grid: every value times `grid` is an int.  It is
    # the least common denominator of the distances for physical distance,
    # whose `grid_delta` holds the distances times `grid`, and 1 otherwise
    grid: int = field(default=1, init=False, repr=False, compare=False)
    grid_delta: tuple[tuple[int, ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, StatisticKind):
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.kind is StatisticKind.PHYSICAL_DISTANCE:
            if self.delta is None:
                raise ValueError("physical_distance needs a distance matrix")
            try:
                grid = math.lcm(*(d.denominator for row in self.delta for d in row))
            except AttributeError as exc:
                raise ValueError("distances must be exact rationals") from exc
            rows = tuple(tuple(d.numerator * (grid // d.denominator) for d in row)
                         for row in self.delta)
            # the grid is positive, so the int rows pass exactly when the distances do
            validate_delta(rows)
            object.__setattr__(self, "grid", grid)
            object.__setattr__(self, "grid_delta", rows)
        elif self.delta is not None:
            raise ValueError(f"{self.kind.value} takes no distance matrix")


def s_non_edges(g: Graph) -> int:
    """Count of absent pairs: n(n-1)/2 minus the edge count."""
    return num_pairs(g.n) - g.edge_count


def s_physical_distance(g: Graph, delta: DeltaMatrix) -> Fraction | int:
    """Total distance over present edges, in the type of delta's entries (0 with none)."""
    if len(delta) != g.n:
        raise ValueError(f"distance matrix is {len(delta)}x{len(delta)}, graph has n={g.n}")
    return sum(delta[i][j] for i, j in g.edges())


def s_flow_distance(g: Graph) -> int:
    """Minimum total circulating flow delivering one unit between every ordered pair.

    Each unit routes along a shortest path, so the optimum equals the sum
    of shortest-path hop counts over ordered pairs; the equivalent linear
    program lives in :mod:`ergmax.lp` for export and cross-validation.
    """
    if not isinstance(g, Graph):
        raise TypeError("expected a Graph")
    try:
        return total_hop_count(g)
    except DisconnectedGraphError as exc:
        raise DisconnectedGraphError("no feasible circulation on a disconnected graph") from exc


def grid_reader(spec: StatisticSpec) -> Callable[[Graph], int]:
    """The statistic of `spec` as a function of a graph, on the spec's grid
    (the value times ``spec.grid``), resolved once per statistic."""
    if spec.kind is StatisticKind.NON_EDGES:
        return s_non_edges
    if spec.kind is StatisticKind.TRIANGLES:
        return count_triangles
    if spec.kind is StatisticKind.FLOW_DISTANCE:
        return s_flow_distance
    rows = spec.grid_delta
    return lambda g: s_physical_distance(g, rows)


def grid_stepper(spec: StatisticSpec) -> Callable[[tuple[int, ...], int, int, bool, int], int]:
    """The toggle step of `spec`'s statistic on its grid: a function of
    (adj, i, j, added, current) giving its value once pair (i, j) of some
    graph g is flipped, `added` when the flip adds it, from its value
    `current` at g and g's adjacency rows `adj`.

    Non-edges, triangles and physical distance step by a closed form: the
    pair leaves or joins the non-edges, closes or opens one triangle per
    common neighbour of its endpoints, and adds or drops its distance.
    Flow distance does too when g has a hub, a node adjacent to every
    other, so a g with one has every toggle stepped with no search.  Such a
    g is connected with diameter at most two: two nodes are one hop apart
    when adjacent and two hops apart otherwise.

    *A toggle that spares a hub* keeps it, so the toggled graph has
    diameter at most two as well, and only the pair's own distance
    changes, from two hops to one or back: the ordered total moves by ∓2.
    A hub outside the pair is adjacent to both endpoints, so it is one of
    their common neighbours.

    *A removal of (c, v) at a hub c* changes only distances from v: every
    other pair keeps its adjacency and its path of length at most two
    through c.  d(v, c) goes from 1 to 2 when v has a neighbour w other
    than c, along v, w, c; when it has none, v is cut off and the step
    raises DisconnectedGraphError.  A neighbour of v stays one hop away.
    A non-neighbour y other than c stays two hops away when it shares a
    neighbour other than c with v, and otherwise goes to three, along v,
    w, c, y.  So the ordered total grows by 2·(1 + the number of nodes at
    three hops).  Any other flow step sums the hops over the toggled rows,
    raising DisconnectedGraphError when they are disconnected."""
    if spec.kind is StatisticKind.NON_EDGES:
        return lambda adj, i, j, added, current: current - 1 if added else current + 1
    if spec.kind is StatisticKind.TRIANGLES:
        def triangles(adj: tuple[int, ...], i: int, j: int, added: bool, current: int) -> int:
            closed = (adj[i] & adj[j]).bit_count()
            return current + closed if added else current - closed

        return triangles
    if spec.kind is StatisticKind.FLOW_DISTANCE:
        def flow(adj: tuple[int, ...], i: int, j: int, added: bool, current: int) -> int:
            if shares_hub(adj, i, j):
                return current - 2 if added else current + 2
            if not added:
                everyone = (1 << len(adj)) - 1
                for c, v in ((i, j), (j, i)):
                    if adj[c] | 1 << c == everyone:
                        others = adj[v] ^ 1 << c
                        if not others:
                            raise DisconnectedGraphError(f"removing ({i}, {j}) cuts off node {v}")
                        # v, its neighbours and theirs: all but the nodes at three hops
                        near = adj[v]
                        while others:
                            low = others & -others
                            near |= adj[low.bit_length() - 1]
                            others ^= low
                        return current + 2 * (1 + (everyone & ~near).bit_count())
            rows = list(adj)
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
            return hop_total(rows)

        return flow
    rows = spec.grid_delta
    return lambda adj, i, j, added, current: (
        current + rows[i][j] if added else current - rows[i][j])


class HamiltonianForm(str, Enum):
    LINEAR = "linear"
    MAX_MIN = "max_min"


@dataclass(frozen=True)
class Hamiltonian:
    """Objective over network statistics.

    ``linear`` form evaluates to the weighted sum of statistics.  The
    ``max_min`` form evaluates to the weighted minimum when maximizing
    (and to the weighted maximum when minimizing, i.e. the min-max
    mirror obtained by switching negative weights to positive).  A graph
    whose weighted sum of statistics is below ``floor`` has no value.

    The objective is also held on an integer grid, built once here.  With
    D_k term k's value grid (``spec.grid``), ``scale`` is the least common
    multiple L of the weight denominators times D_k, negated when
    minimizing; term k's weight on the grid is the int θ_k·scale/D_k
    (``grid_weights``), and the floor is the int ceil(floor·L)
    (``grid_floor``).  :func:`score` of the terms' values on their grids
    (``readers``, ``steppers``) is then ``scale`` times the objective: an
    int that is higher for a better graph in either sense, and a weighted
    maximum becomes the least negated term, so ``reduce`` is sum or min.
    """

    form: HamiltonianForm
    terms: tuple[tuple[Fraction, StatisticSpec], ...]
    sense: str = "maximize"
    floor: Fraction | None = None
    scale: int = field(default=1, init=False, repr=False, compare=False)
    grid_weights: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    grid_floor: int | None = field(default=None, init=False, repr=False, compare=False)
    readers: tuple[Callable, ...] = field(default=(), init=False, repr=False, compare=False)
    steppers: tuple[Callable, ...] = field(default=(), init=False, repr=False, compare=False)
    # combines the weighted terms: sum or min
    reduce: Callable[[list[int]], int] = field(default=sum, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sense not in ("maximize", "minimize"):
            raise ValueError("sense must be 'maximize' or 'minimize'")
        if not self.terms:
            raise ValueError("a Hamiltonian needs at least one term")
        terms = tuple((Fraction(t), s) for t, s in self.terms)
        scale = math.lcm(*(t.denominator * s.grid for t, s in terms))
        if self.sense == "minimize":
            scale = -scale
        derived = {
            "terms": terms,
            "scale": scale,
            "grid_weights": tuple(t.numerator * (scale // (t.denominator * s.grid)) for t, s in terms),
            "readers": tuple(grid_reader(s) for _, s in terms),
            "steppers": tuple(grid_stepper(s) for _, s in terms),
            "reduce": sum if self.form is HamiltonianForm.LINEAR else min,
        }
        if self.floor is not None:
            if self.sense != "maximize":
                raise ValueError("a floor needs a maximizing objective")
            floor = Fraction(self.floor)
            # a grid sum is an int, so it misses floor·L exactly when it is below the ceiling
            derived |= {"floor": floor, "grid_floor": -(-floor.numerator * scale // floor.denominator)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def linear(
        cls,
        terms: list[tuple[Fraction, StatisticSpec]],
        sense: str = "maximize",
    ) -> "Hamiltonian":
        return cls(HamiltonianForm.LINEAR, tuple(terms), sense)

    @classmethod
    def max_min(
        cls,
        terms: list[tuple[Fraction, StatisticSpec]],
        sense: str = "maximize",
    ) -> "Hamiltonian":
        return cls(HamiltonianForm.MAX_MIN, tuple(terms), sense)

    @classmethod
    def max_min_pair(
        cls,
        alpha: Fraction,
        first: StatisticSpec,
        second: StatisticSpec,
        sense: str = "maximize",
    ) -> "Hamiltonian":
        """Two-term robust objective with weights (alpha, 1 - alpha)."""
        alpha = Fraction(alpha)
        if not (0 <= alpha <= 1):
            raise ValueError("alpha must lie in [0, 1]")
        return cls(HamiltonianForm.MAX_MIN, ((alpha, first), (1 - alpha, second)), sense)


def score(h: Hamiltonian, values: Sequence[int]) -> int | None:
    """The objective of ``h`` times ``h.scale`` at its terms' values on their
    grids, higher for a better graph in either sense: None when their
    weighted sum is below ``h.floor``, else that sum for the linear form and
    the least weighted value for max_min.  Ints in, an int out."""
    weighted = [w * v for w, v in zip(h.grid_weights, values)]
    if h.grid_floor is not None and sum(weighted) < h.grid_floor:
        return None
    return h.reduce(weighted)


def improving_directions(h: Hamiltonian, values: Sequence[int]) -> tuple[bool, bool]:
    """Whether adding an edge, and whether removing one, can raise the
    :func:`score` of a graph whose terms are `values` on their grids.

    A max_min score rises only when every binding term, one whose weighted
    value is the least, rises.  Adding an edge never lowers an increasing
    statistic nor raises another, so a binding term whose grid weight is
    positive on an increasing statistic, or negative on another, rules out
    removals; the reverse pairings rule out additions, and a zero weight
    rules out both.  Every toggle moves the non-edge count by exactly one,
    so a non-edge term, binding or not, rules out a direction when its
    weighted value one step later is at most the least: term − w after an
    addition, term + w after a removal (for a binding term this is the rule
    above).  The linear form rules out neither."""
    if h.form is HamiltonianForm.LINEAR:
        return True, True
    weighted = [w * v for w, v in zip(h.grid_weights, values)]
    least = min(weighted)
    adds = removes = True
    for (_, spec), w, term in zip(h.terms, h.grid_weights, weighted):
        if spec.kind is StatisticKind.NON_EDGES:
            adds &= term - w > least
            removes &= term + w > least
        elif term == least:
            rises = (w > 0) == spec.kind.increasing  # adding an edge may raise w·v
            adds &= w != 0 and rises
            removes &= w != 0 and not rises
    return adds, removes


def grid_values(h: Hamiltonian, g: Graph) -> tuple[int, ...]:
    """The terms' statistic values at ``g`` on their grids, in term order."""
    return tuple(read(g) for read in h.readers)


def unscaled(h: Hamiltonian, value: int | None) -> Fraction | None:
    """A :func:`score` divided back by ``h.scale``: the exact objective."""
    return None if value is None else Fraction(value, h.scale)


def eval_hamiltonian(h: Hamiltonian, g: Graph) -> Fraction | None:
    """Exact objective value of ``h`` at ``g``; None when ``g`` misses the floor."""
    return unscaled(h, score(h, grid_values(h, g)))


def statistic_values(h: Hamiltonian, g: Graph) -> tuple[Fraction | int, ...]:
    """Raw (unweighted) statistic values per term, in term order: physical
    distance divided back from its grid to a Fraction."""
    return tuple(v if spec.delta is None else Fraction(v, spec.grid)
                 for (_, spec), v in zip(h.terms, grid_values(h, g)))


# ---------------------------------------------------------------------------
# distance matrices

_GRID = 10**6  # distances snap to a 6-decimal rational grid
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _unit_draws(seed: int, count: int) -> list[float]:
    """The first `count` floats of ``numpy.random.default_rng(seed).random()``,
    bit for bit, from the standard library.

    The seed is expanded as numpy's SeedSequence does: its 32-bit words,
    least significant first, are hashed into a 4-word pool, and 8 more
    words hashed from the pool make four 64-bit words w0..w3.  These seed
    numpy's PCG64 (O'Neill, HMC-CS-2014-0905): a 128-bit LCG with
    increment ``(w2:w3) << 1 | 1``, stepped from 0, advanced by ``w0:w1``
    and stepped again, whose XSL-RR output x gives ``(x >> 11) * 2**-53``.
    """
    seed = operator.index(seed)  # a float, str or None is refused, as numpy does
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")

    def hasher(const: int, mult: int) -> Callable[[int], int]:
        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * mult & _M32
            value = value * const & _M32
            return value ^ value >> 16
        return hashmix

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return value ^ value >> 16

    words = [seed >> shift & _M32 for shift in range(0, seed.bit_length() or 1, 32)]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = hasher(0x8B51F9DD, 0x58F38DED)
    half = [out(pool[i % 4]) for i in range(8)]
    w = [half[2 * k] | half[2 * k + 1] << 32 for k in range(4)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = (inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc & _M128
    draws = []
    for _ in range(count):
        state = state * _PCG_MULT + inc & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << 64 - rot) & _M64
        draws.append((x >> 11) * 2.0**-53)
    return draws


def random_unit_square_delta(n: int, seed: int) -> DeltaMatrix:
    """Euclidean distances between n seeded uniform points in the unit square.

    The points are numpy's ``default_rng(seed).random((n, 2))``, drawn by
    :func:`_unit_draws`.  Entries are rounded to 6 decimals and stored exactly, so runs are
    reproducible and downstream arithmetic stays rational.
    """
    u = _unit_draws(seed, 2 * n)
    pts = list(zip(u[::2], u[1::2]))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(Fraction(0))
            else:
                row.append(Fraction(round(math.dist(pts[i], pts[j]) * _GRID), _GRID))
        rows.append(tuple(row))
    return tuple(rows)


def uniform_delta(n: int, value: Fraction = Fraction(1)) -> DeltaMatrix:
    """Constant off-diagonal distance matrix."""
    value = Fraction(value)
    return tuple(
        tuple(Fraction(0) if i == j else value for j in range(n)) for i in range(n)
    )


def write_delta(delta: DeltaMatrix, out: TextIO) -> None:
    out.write(f"{len(delta)}\n")
    for row in delta:
        out.write(" ".join(exact_decimal(v) for v in row) + "\n")


def exact_decimal(value: Fraction) -> str:
    """Decimal text that parses back to exactly ``value`` when its denominator
    has no prime factor besides 2 and 5; otherwise the nearest float's repr."""
    if value.denominator == 1:
        return str(value.numerator)
    rest = value.denominator
    for p in (2, 5):
        while rest % p == 0:
            rest //= p
    if rest == 1:
        return str(Decimal(value.numerator) / Decimal(value.denominator))
    return repr(float(value))


def _exact(text: str) -> Fraction:
    """``Fraction(text)``, read through C decimals where they agree with it.

    A finite Decimal is converted to a Fraction exactly, and the two read
    every decimal alike, but Decimal also reads ``1__0`` and ``_1``, which
    Fraction rejects, and reads no ``a/b``.  So a text with ``/`` or ``_``,
    or one Decimal rejects or reads as infinite or NaN, goes to Fraction,
    which accepts or rejects it as always.
    """
    if "/" not in text and "_" not in text:
        try:
            value = Decimal(text)
        except InvalidOperation:
            pass
        else:
            if value.is_finite():
                return Fraction(value)
    return Fraction(text)


def parse_delta(inp: TextIO) -> DeltaMatrix:
    """Parse the distance-matrix format: n, then n lines of n decimals.

    Values parse exactly, each distinct text once.  Only the format is
    checked: :class:`StatisticSpec` validates the matrix it is given.
    """
    header = inp.readline().split()
    if len(header) != 1:
        raise ValueError("distance-matrix header must be a single count")
    n = int(header[0])
    exact = cache(_exact)  # a symmetric matrix repeats each text
    rows = []
    for _ in range(n):
        fields = inp.readline().split()
        if len(fields) != n:
            raise ValueError(f"each matrix row needs exactly {n} entries")
        try:
            rows.append(tuple(map(exact, fields)))
        except ZeroDivisionError as exc:
            raise ValueError(f"distance-matrix row {len(rows)} has a zero denominator") from exc
    if any(line.strip() for line in inp):
        raise ValueError(f"unexpected text after the {n} matrix rows")
    return tuple(rows)
