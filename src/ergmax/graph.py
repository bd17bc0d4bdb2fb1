"""Bitset-backed undirected simple graphs with exact structural metrics.

Edges of a graph on nodes ``0..n-1`` live in a single Python integer,
one bit per unordered pair ``(i, j)`` with ``i < j``, ranked
lexicographically.  All metric arithmetic is exact (:class:`~fractions.Fraction`
or plain ``int``); decimal rendering is left to the reporting layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Sequence, TextIO


class DisconnectedGraphError(ValueError):
    """A metric that requires a connected graph was asked of a disconnected one."""


def num_pairs(n: int) -> int:
    """Number of unordered node pairs on ``n`` nodes."""
    return n * (n - 1) // 2


def edge_index(i: int, j: int, n: int) -> int:
    """Lexicographic rank of the pair ``(i, j)`` among all pairs with ``i < j < n``."""
    if not (0 <= i < j < n):
        raise ValueError(f"invalid pair ({i}, {j}) for n={n}: need 0 <= i < j < n")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


@cache
def all_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered pairs ``(i, j)``, ``i < j``, in rank order.

    Built once per ``n`` and shared by every caller; :func:`pair_of` indexes it.
    """
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def pair_of(index: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`edge_index`."""
    if not (0 <= index < num_pairs(n)):
        raise ValueError(f"pair index {index} out of range for n={n}")
    return all_pairs(n)[index]


def _pair_bit(i: int, j: int, n: int) -> int:
    """The bitset bit of the pair ``{i, j}``, given in either order."""
    if i > j:
        i, j = j, i
    return 1 << edge_index(i, j, n)


class Graph:
    """Undirected simple graph on ``n`` labeled nodes.

    The edge set is an integer bitset indexed by :func:`edge_index`, so
    self-loops and parallel edges are unrepresentable.  Instances are
    treated as immutable: the mutating-style operations (``toggled``,
    ``with_edge``, ``without_edge``) return new graphs.
    """

    __slots__ = ("n", "bits", "_adj", "_triangles", "_hop_total")

    def __init__(self, n: int, bits: int = 0):
        if n < 1:
            raise ValueError("graph needs at least one node")
        if bits < 0 or bits >> num_pairs(n):
            raise ValueError(f"edge bitset out of range for n={n}")
        self.n = n
        self.bits = bits
        self._adj: tuple[int, ...] | None = None
        self._triangles: int | None = None  # set by count_triangles
        self._hop_total: int | None = None  # set by total_hop_count, so only when connected

    # -- constructors ------------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, (1 << num_pairs(n)) - 1)

    @classmethod
    def star(cls, n: int, center: int = 0) -> "Graph":
        return cls.from_edges(n, ((center, v) for v in range(n) if v != center))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, ((v, v + 1) for v in range(n - 1)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 nodes")
        return cls.from_edges(n, ((v, (v + 1) % n) for v in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        bits = 0
        for i, j in edges:
            bits |= _pair_bit(i, j, n)
        return cls(n, bits)

    # -- basic queries -----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.bits & _pair_bit(i, j, self.n))

    def edges(self) -> Iterator[tuple[int, int]]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield pair_of(low.bit_length() - 1, self.n)
            bits ^= low

    def adjacency(self) -> tuple[int, ...]:
        """Per-node neighbor bitmasks (bit ``v`` of ``adjacency()[u]`` = edge uv)."""
        if self._adj is None:
            adj = [0] * self.n
            for i, j in self.edges():
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            self._adj = tuple(adj)
        return self._adj

    # -- derived graphs ----------------------------------------------------

    def toggled(self, i: int, j: int) -> "Graph":
        """This graph with pair (i, j) flipped; built rows are carried, not rebuilt."""
        g = Graph(self.n, self.bits ^ _pair_bit(i, j, self.n))
        if self._adj is not None:
            adj = list(self._adj)
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
            g._adj = tuple(adj)
        return g

    def with_edge(self, i: int, j: int) -> "Graph":
        return self if self.has_edge(i, j) else self.toggled(i, j)

    def without_edge(self, i: int, j: int) -> "Graph":
        return self.toggled(i, j) if self.has_edge(i, j) else self

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges())})"


# ---------------------------------------------------------------------------
# structural counts


def count_triangles(g: Graph) -> int:
    """Number of node triples ``i < j < k`` with all three edges present; a count
    stored by an earlier call is returned as is."""
    if g._triangles is not None:
        return g._triangles
    adj = g.adjacency()
    total = 0
    for i, row in enumerate(adj):
        above = row >> (i + 1)
        while above:
            low = above & -above
            j = i + low.bit_length()
            # common neighbors above j close a triangle exactly once per triple
            total += ((row & adj[j]) >> (j + 1)).bit_count()
            above ^= low
    g._triangles = total
    return total


def connected_triples(g: Graph) -> int:
    """Number of paths of length two (open or closed), i.e. sum of C(deg, 2)."""
    adj = g.adjacency()
    return sum(d * (d - 1) // 2 for d in (a.bit_count() for a in adj))


def bfs_layers(adj: Sequence[int], source: int) -> Iterator[int]:
    """Breadth-first search from ``source`` over the adjacency rows `adj`:
    yield the bitmasks of the nodes at hop 0, 1, 2, ... from it, up to the
    last nonempty one, each when it is reached, so a caller may stop early."""
    seen = frontier = 1 << source
    yield frontier
    while True:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        if not frontier:
            return
        seen |= frontier
        yield frontier


def reached(g: Graph, source: int) -> int:
    """Bitmask of the nodes a breadth-first search from ``source`` reaches."""
    seen = 0
    for layer in bfs_layers(g.adjacency(), source):
        seen |= layer
    return seen


def joined_without(adj: tuple[int, ...], i: int, j: int) -> bool:
    """True when i reaches j over the adjacency rows `adj` with the pair
    (i, j) cleared, searching only until j is found: removing the edge
    (i, j) keeps a connected graph connected exactly then."""
    rows = list(adj)
    rows[i] &= ~(1 << j)
    rows[j] &= ~(1 << i)
    return any(layer >> j & 1 for layer in bfs_layers(rows, i))


def is_connected(g: Graph) -> bool:
    """True iff one traversal from node 0 reaches every node."""
    return reached(g, 0) == (1 << g.n) - 1


def shares_hub(adj: tuple[int, ...], i: int, j: int) -> bool:
    """True when some common neighbour of i and j, given adjacency rows
    `adj`, is adjacent to every node.  A hub other than i and j is adjacent
    to both, so the common neighbours are the only candidates."""
    everyone = (1 << len(adj)) - 1
    common = adj[i] & adj[j]
    while common:
        low = common & -common
        if adj[low.bit_length() - 1] | low == everyone:
            return True
        common ^= low
    return False


def hop_total(adj: Sequence[int]) -> int:
    """Sum of shortest-path hop counts over all ordered node pairs of the graph
    with adjacency rows `adj`.  A graph with a hub, a node adjacent to every
    other, has diameter at most two: its n(n-1) - 2m ordered non-adjacent pairs
    are two hops apart and its 2m adjacent ones one, 2n(n-1) - 2m in all.  Any
    other graph sums a search from every source, and raises if one misses a node."""
    n = len(adj)
    everyone = (1 << n) - 1
    if any(row | 1 << v == everyone for v, row in enumerate(adj)):
        return 2 * n * (n - 1) - sum(row.bit_count() for row in adj)
    total = 0
    for s in range(n):
        counts = [layer.bit_count() for layer in bfs_layers(adj, s)]
        if sum(counts) != n:
            raise DisconnectedGraphError("hop sums are undefined on a disconnected graph")
        total += sum(d * c for d, c in enumerate(counts))
    return total


def total_hop_count(g: Graph) -> int:
    """:func:`hop_total` of g's adjacency rows, computed once per graph."""
    if g._hop_total is None:
        g._hop_total = hop_total(g.adjacency())
    return g._hop_total


def average_path_length(g: Graph) -> Fraction:
    """Mean shortest-path hop count over ordered node pairs (connected graphs only)."""
    if g.n == 1:
        return Fraction(0)
    return Fraction(total_hop_count(g), g.n * (g.n - 1))


def clustering_coefficient(g: Graph) -> Fraction:
    """Global transitivity: 3 * triangles / connected triples (0 if no triples)."""
    triples = connected_triples(g)
    if triples == 0:
        return Fraction(0)
    return Fraction(3 * count_triangles(g), triples)


def average_local_clustering(g: Graph) -> Fraction:
    """Mean over all nodes of the local clustering coefficient (0 for degree < 2).
    A node of degree d adds t/(d(d-1)), t twice the edges among its
    neighbours: the t are summed per degree, then over one common denominator."""
    adj = g.adjacency()
    links: dict[int, int] = {}
    for nv in adj:
        deg = nv.bit_count()
        if deg < 2:
            continue
        t, mask = 0, nv
        while mask:
            low = mask & -mask
            t += (adj[low.bit_length() - 1] & nv).bit_count()
            mask ^= low
        links[deg] = links.get(deg, 0) + t
    common = math.lcm(*(d * (d - 1) for d in links))
    return Fraction(sum(t * (common // (d * (d - 1))) for d, t in links.items()), common * g.n)


@dataclass(frozen=True)
class GraphMetrics:
    """Reported structural metrics of a single graph, all exact."""

    edge_count: int
    triangle_count: int
    density: Fraction
    clustering_coefficient: Fraction
    average_local_clustering: Fraction
    average_path_length: Fraction | None  # None when the graph is disconnected


def graph_metrics(g: Graph) -> GraphMetrics:
    apl: Fraction | None
    try:
        apl = average_path_length(g)
    except DisconnectedGraphError:
        apl = None
    pairs = num_pairs(g.n)
    return GraphMetrics(
        edge_count=g.edge_count,
        triangle_count=count_triangles(g),
        density=Fraction(g.edge_count, pairs) if pairs else Fraction(0),
        clustering_coefficient=clustering_coefficient(g),
        average_local_clustering=average_local_clustering(g),
        average_path_length=apl,
    )


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m distinct lines "i j" with
# i < j, and nothing but blank lines after them


def edge_list_string(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{i} {j}" for i, j in sorted(g.edges()))
    return "\n".join(lines) + "\n"


def read_edge_list(inp: TextIO) -> Graph:
    header = inp.readline().split()
    if len(header) != 2:
        raise ValueError("edge-list header must be 'n m'")
    n, m = int(header[0]), int(header[1])
    edges = []
    for _ in range(m):
        fields = inp.readline().split()
        if len(fields) != 2:
            raise ValueError("edge line must be 'i j'")
        i, j = int(fields[0]), int(fields[1])
        if not (0 <= i < j < n):
            raise ValueError(f"edge ({i}, {j}) violates 0 <= i < j < n")
        edges.append((i, j))
    distinct = len(set(edges))
    if distinct != m:
        raise ValueError(f"header promises {m} edges but the list holds {distinct} distinct ones")
    if any(line.strip() for line in inp):
        raise ValueError(f"unexpected text after the {m} edge lines")
    return Graph.from_edges(n, edges)
