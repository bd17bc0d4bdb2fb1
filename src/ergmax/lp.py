"""Linear-constraint encodings of graph structure, with CPLEX-LP export.

The builders compile binary edge variables, triangle indicators, and
flow-based connectivity/routing constraints into an explicit
:class:`ConstraintSystem` that can be written as a CPLEX LP text file or
dumped as JSON.  Nothing here solves anything: the module's checker
verifies externally produced assignments against both the rows and the
graph semantics they are supposed to encode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, starmap
from operator import itemgetter
from string import Formatter
from typing import Any, Callable, Iterable, Iterator, Mapping, TextIO

from .graph import (
    DisconnectedGraphError,
    Graph,
    all_pairs,
    bfs_layers,
    is_connected,
    num_pairs,
    reached,
)
from .space import SampleSpace
from .stats import Hamiltonian, StatisticKind, StatisticSpec, eval_hamiltonian, exact_decimal

Number = Fraction | int


@dataclass(slots=True)
class Variable:
    name: str
    kind: str  # 'binary' | 'continuous'
    lower: Fraction | None = None
    upper: Fraction | None = None


@dataclass(slots=True)
class Row:
    name: str
    coeffs: dict[str, Fraction]
    relation: str  # '<=' | '=' | '>='
    rhs: Fraction


class _Memo(dict):
    """``make(key)`` per key, made on the key's first lookup and kept."""

    def __init__(self, make: Callable[[Any], Any]):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        result = self[key] = self.make(key)
        return result


def _by_identity(render: Callable[[Any], str]) -> Callable[[Any], str]:
    """``render(c)`` once per object `c`, looked up by ``id(c)``, which costs
    less than hashing a Fraction; each entry holds its object, so no id is
    reused while the memo lives."""
    memo: dict[int, tuple[Any, str]] = {}

    def text(c: Any) -> str:
        try:
            return memo[id(c)][1]
        except KeyError:
            entry = memo[id(c)] = (c, render(c))
            return entry[1]

    return text


def _literal(name: str) -> str:
    """`name` as a pattern without fields: its braces doubled."""
    if type(name) is not str:
        raise TypeError(f"name {name!r} is not a string")
    return name.replace("{", "{{").replace("}", "}}")


# (literal text, field, format spec, conversion) for each field of a pattern
_fields = Formatter().parse


def _check_fields(patterns: list[str], indices: list[tuple[str, ...]]) -> None:
    """Refuse with ValueError a field of `patterns` that is not a plain
    ``{k}``, or an index entry that is not a string of decimal digits."""
    # one parse for all patterns; a field across the separator has a non-digit
    for _, field, spec, conversion in _fields("\0".join(patterns)):
        if field is not None and not (field.isdecimal() and field.isascii()
                                      and not spec and conversion is None):
            raise ValueError(f"field {{{field}}} is not a plain index field")
    for entry in set(chain.from_iterable(indices)):
        if not (type(entry) is str and entry.isdecimal() and entry.isascii()):
            raise ValueError(f"index entry {entry!r} is not a string of decimal digits")


def _names(patterns: list[str], indices: list[tuple[str, ...]]) -> list[str]:
    """Every pattern filled from every index tuple, pattern by pattern."""
    try:
        return list(chain.from_iterable(starmap(p.format, indices) for p in patterns))
    except IndexError as exc:
        raise ValueError(f"a pattern field has no index entry: {exc}") from exc


def _new_names(patterns: list[str], indices: list[tuple[str, ...]], taken: set[str],
               what: str) -> set[str]:
    """The names `patterns` take over `indices`; ValueError, naming the first
    in fill order, if one comes twice or is already in `taken`."""
    names = _names(patterns, indices)
    new = set(names)
    if len(new) != len(names) or not taken.isdisjoint(new):
        seen = set(taken)
        for idx in indices:
            for p in patterns:
                name = p.format(*idx)
                if name in seen:
                    raise ValueError(f"{what} {name!r} declared twice")
                seen.add(name)
    return new


def _filled(patterns: tuple[Row, ...], indices: list[tuple[str, ...]]) -> Iterator[Row]:
    """The rows of a block: each pattern filled from each index tuple in turn."""
    for idx in indices:
        for p in patterns:
            yield Row(p.name.format(*idx), {v.format(*idx): c for v, c in p.coeffs.items()},
                      p.relation, p.rhs)


# index tuples filled into one string by :func:`_fill`
_BATCH = 256


def _fill(template: str, indices: list[tuple[str, ...]], sep: str = "") -> Iterable[str]:
    """`template`, a pattern with ``{0}``, ``{1}``, ... fields, filled from each
    index tuple in turn and joined by `sep`, one string per batch of tuples.

    The template compiles once into a printf-style string, its literal ``%``
    doubled, and an itemgetter over its fields; a batch is that string
    repeated, filled by one ``%`` from its tuples' picked entries.  A block
    of one tuple, as every plain variable and row is, is filled directly.
    """
    if len(indices) == 1:
        return (template.format(*indices[0]),)
    return _batches(template, indices, sep)


def _batches(template: str, indices: list[tuple[str, ...]], sep: str) -> Iterator[str]:
    parts, picks = [], []
    for text, field, _, _ in _fields(template):
        parts.append(text.replace("%", "%%"))
        if field is not None:
            parts.append("%s")
            picks.append(int(field))
    one = "".join(parts)
    pick = itemgetter(*picks) if picks else None
    joined: dict[int, str] = {}
    for start in range(0, len(indices), _BATCH):
        batch = indices[start:start + _BATCH]
        if len(batch) not in joined:
            joined[len(batch)] = sep.join([one] * len(batch))
        text = joined[len(batch)]
        if len(picks) > 1:
            yield text % tuple(chain.from_iterable(map(pick, batch)))
        else:  # one field picks a string, and none picks nothing
            yield text % tuple(map(pick, batch) if picks else ())


class ConstraintSystem:
    """Ordered collection of variables, rows and one objective.

    Variables and rows are stored in blocks.  A block is a tuple of
    patterns, variables or rows whose names (and a row's variable names)
    carry fields ``{0}``, ``{1}``, ... (literal braces doubled), and a list
    of index tuples of decimal-digit strings; it stands for every pattern
    filled from every tuple, tuple by tuple.  A plain variable or row is a
    block of one pattern without fields, over one empty tuple.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.objective_sense = "minimize"
        self.objective: dict[str, Fraction] = {}
        self.meta: dict[str, Any] = {}
        self._var_blocks: list[tuple[tuple[Variable, ...], list[tuple[str, ...]]]] = []
        self._row_blocks: list[tuple[tuple[Row, ...], list[tuple[str, ...]]]] = []
        self._var_names: set[str] = set()
        self._row_names: set[str] = set()
        # a coefficient given as an int (or as a string, from the JSON IR)
        # converts once, and every row holding it shares that Fraction
        self._exact: dict[Number, Fraction] = _Memo(Fraction)

    def _fraction(self, c: Number) -> Fraction:
        return c if type(c) is Fraction else self._exact[c]

    @property
    def variables(self) -> list[Variable]:
        """Every variable, in the order declared, filled from its block's patterns."""
        return [Variable(p.name.format(*idx), p.kind, p.lower, p.upper)
                for patterns, indices in self._var_blocks for idx in indices for p in patterns]

    @property
    def rows(self) -> list[Row]:
        """Every row, in the order added, filled from its block's patterns;
        a filled row shares its pattern's coefficient objects."""
        return [row for patterns, indices in self._row_blocks
                for row in _filled(patterns, indices)]

    def has_variable(self, name: str) -> bool:
        return name in self._var_names

    def add_variable(
        self,
        name: str,
        kind: str,
        lower: Number | None = None,
        upper: Number | None = None,
    ) -> None:
        """One variable: a block of one pattern without fields, over one empty tuple."""
        self.add_variable_block([Variable(_literal(name), kind, lower, upper)], [()])

    def _variable(self, name: str, kind: str, lower: Number | None,
                  upper: Number | None) -> Variable:
        """A variable pattern, its bounds made Fractions, once its kind and
        bounds are checked: ValueError on an unknown kind or a bounded binary."""
        if kind not in ("binary", "continuous"):
            raise ValueError(f"unknown variable kind {kind!r}")
        if kind == "binary" and (lower is not None or upper is not None):
            raise ValueError(f"binary variable {name!r} takes no bounds")
        return Variable(name, kind, None if lower is None else self._fraction(lower),
                        None if upper is None else self._fraction(upper))

    def add_variable_block(self, patterns: Iterable[Variable],
                           indices: Iterable[tuple[str, ...]]) -> None:
        """Declare the variables of `patterns` filled from each index tuple in turn.

        Refused, declaring nothing: a name that is not a string (TypeError);
        with ValueError, a field that is not a plain ``{k}`` or has no entry
        in an index tuple, an entry that is not a string of decimal digits,
        an unknown kind, a bound on a binary variable, or a name given twice.
        """
        patterns, indices = tuple(patterns), list(indices)
        for p in patterns:
            if type(p.name) is not str:
                raise TypeError(f"name {p.name!r} is not a string")
        names = [p.name for p in patterns]
        _check_fields(names, indices)
        patterns = tuple(self._variable(p.name, p.kind, p.lower, p.upper) for p in patterns)
        new_names = _new_names(names, indices, self._var_names, "variable")
        if patterns and indices:
            self._var_blocks.append((patterns, indices))
        self._var_names |= new_names

    def add_row(
        self,
        name: str,
        coeffs: Mapping[str, Number],
        relation: str,
        rhs: Number,
    ) -> None:
        """One row: a block of one pattern without fields, over one empty tuple."""
        self.add_block([Row(_literal(name), {_literal(v): c for v, c in coeffs.items()},
                            relation, rhs)], [()])

    def add_block(self, patterns: Iterable[Row], indices: Iterable[tuple[str, ...]]) -> None:
        """Add the rows of `patterns` filled from each index tuple in turn.

        Refused with ValueError, adding nothing: a field that is not a
        plain ``{k}`` or has no entry in an index tuple, an entry that is
        not a string of decimal digits, a row name given twice, an unknown
        relation, or a row naming an undeclared variable.
        """
        patterns, indices = tuple(patterns), list(indices)
        var_patterns = list(dict.fromkeys(v for p in patterns for v in p.coeffs))
        _check_fields([p.name for p in patterns] + var_patterns, indices)
        var_names = set(_names(var_patterns, indices))
        new_names = _new_names([p.name for p in patterns], indices, self._row_names, "row")
        for p in patterns:
            if p.relation not in ("<=", "=", ">="):
                raise ValueError(f"unknown relation {p.relation!r}")
        if not self._var_names.issuperset(var_names):
            for row in _filled(patterns, indices):
                unknown = [v for v in row.coeffs if v not in self._var_names]
                if unknown:
                    raise ValueError(f"row {row.name!r} references undeclared variables {unknown}")
        exact = self._exact
        patterns = tuple(
            Row(p.name, {v: c if type(c) is Fraction else exact[c] for v, c in p.coeffs.items()},
                p.relation, self._fraction(p.rhs))
            for p in patterns
        )
        if patterns and indices:
            self._row_blocks.append((patterns, indices))
        self._row_names |= new_names

    def set_objective(self, sense: str, coeffs: Mapping[str, Number]) -> None:
        if sense not in ("maximize", "minimize"):
            raise ValueError(f"unknown sense {sense!r}")
        if not self._var_names.issuperset(coeffs):
            unknown = [v for v in coeffs if v not in self._var_names]
            raise ValueError(f"objective references undeclared variables {unknown}")
        self.objective_sense = sense
        self.objective = {v: self._fraction(c) for v, c in coeffs.items()}

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "meta": self.meta,
            "objective": {
                "sense": self.objective_sense,
                "coeffs": {v: str(c) for v, c in self.objective.items()},
            },
            "variables": [
                {
                    "name": v.name,
                    "kind": v.kind,
                    "lower": None if v.lower is None else str(v.lower),
                    "upper": None if v.upper is None else str(v.upper),
                }
                for v in self.variables
            ],
            "rows": [
                {
                    "name": r.name,
                    "coeffs": {v: str(c) for v, c in r.coeffs.items()},
                    "relation": r.relation,
                    "rhs": str(r.rhs),
                }
                for r in self.rows
            ],
        }

    def to_json(self, f: TextIO) -> None:
        """Write ``json.dumps(self.to_json_dict(), indent=2)`` into the open text file `f`.

        Each variable and row block is rendered once as a template and
        filled by :func:`_fill`, a batch of index tuples per write, so no
        string-valued copy of the system is built.  Names go through json's
        string encoder, which leaves braces, ``%`` and the digits filled in
        unchanged, and each stored coefficient is rendered once.
        """
        quoted = json.encoder.encode_basestring_ascii
        value = _by_identity(lambda c: "null" if c is None else f'"{c}"')

        def coeffs_text(coeffs: dict[str, Fraction], pad: str, left="{", right="}") -> str:
            # an object whose members sit at `pad`, closed two spaces left of it
            members = f",\n{pad}".join([f"{quoted(v)}: {value(c)}" for v, c in coeffs.items()])
            return f"{left}\n{pad}{members}\n{pad[:-2]}{right}" if coeffs else left + right

        # each pattern's item as a template, so its own braces are doubled
        def variable_format(v: Variable) -> str:
            return (
                f'{{{{\n      "name": {quoted(v.name)},\n      "kind": {quoted(v.kind)},\n'
                f'      "lower": {value(v.lower)},\n      "upper": {value(v.upper)}\n    }}}}'
            )

        def row_format(r: Row) -> str:
            return (
                f'{{{{\n      "name": {quoted(r.name)},\n'
                f'      "coeffs": {coeffs_text(r.coeffs, " " * 8, "{{", "}}")},\n'
                f'      "relation": {quoted(r.relation)},\n      "rhs": {value(r.rhs)}\n    }}}}'
            )

        def write_array(render: Callable[[Any], str], blocks: list) -> None:
            # items are rendered at indent 4, a batch of them per write; the
            # array closes at indent 2
            sep = ",\n    "
            empty = True
            for patterns, indices in blocks:
                for text in _fill(sep.join(map(render, patterns)), indices, sep):
                    f.write(("[\n    " if empty else sep) + text)
                    empty = False
            f.write("[]" if empty else "\n  ]")

        head = json.dumps({"name": self.name, "meta": self.meta}, indent=2)
        f.write(head[:-2])  # all but the closing "\n}"
        f.write(
            f',\n  "objective": {{\n    "sense": {quoted(self.objective_sense)},\n'
            f'    "coeffs": {coeffs_text(self.objective, " " * 6)}\n  }},\n  "variables": '
        )
        write_array(variable_format, self._var_blocks)
        f.write(',\n  "rows": ')
        write_array(row_format, self._row_blocks)
        f.write("\n}")

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "ConstraintSystem":
        """Inverse of :meth:`to_json_dict`; a missing key, a wrong type (a
        JSON boolean where a number belongs among them), a variable or row
        name that is not a string, anything :meth:`add_variable_block`,
        :meth:`add_block` or :meth:`set_objective` refuses (a bound on a
        binary variable among them), or a ``meta.n`` that does not count the
        declared ``x_`` edge variables raises ValueError, its message
        starting ``malformed constraint IR:``.  The variables are added as
        one block of plain patterns, and so are the rows."""
        try:
            cs = cls(data.get("name", "model"))
            cs.meta = dict(data.get("meta", {}))
            variables = []
            for v in data["variables"]:
                _refuse_booleans(v["lower"], v["upper"])
                variables.append(Variable(_literal(v["name"]), v["kind"], v["lower"], v["upper"]))
            cs.add_variable_block(variables, [()])
            rows = []
            for r in data["rows"]:
                _refuse_booleans(r["rhs"], *r["coeffs"].values())
                rows.append(Row(_literal(r["name"]),
                                {_literal(v): c for v, c in r["coeffs"].items()},
                                r["relation"], r["rhs"]))
            cs.add_block(rows, [()])
            obj = data["objective"]
            cs.set_objective(obj["sense"], obj["coeffs"])
            _refuse_booleans(*obj["coeffs"].values())
        except KeyError as exc:
            raise ValueError(f"malformed constraint IR: missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed constraint IR: {exc}") from exc
        # checked here, before check_assignment builds the pair table of n
        n = cs.meta.get("n")
        edge_vars = sum(v.name.startswith("x_") for v in cs.variables)
        if n is not None and (type(n) is not int or num_pairs(n) != edge_vars):
            raise ValueError(
                f"malformed constraint IR: meta.n = {n!r} does not fit {edge_vars} edge variables")
        return cs


def _refuse_booleans(*values: Any) -> None:
    """Raise TypeError on a bool: JSON's true and false load as bools, which
    Fraction would take for 1 and 0."""
    for value in values:
        if type(value) is bool:
            raise TypeError(f"boolean {value!r} where a number belongs")


# ---------------------------------------------------------------------------
# variable-name scheme (deterministic given n and formulation options); a
# node given as one of FIELDS makes the name a pattern for a block


Node = int | str
FIELDS = ("{0}", "{1}", "{2}")


def x_name(i: Node, j: Node) -> str:
    return f"x_{i}_{j}"


def w_name(i: Node, j: Node, k: Node) -> str:
    return f"w_{i}_{j}_{k}"


def flow_name(i: Node, j: Node) -> str:
    return f"f_{i}_{j}"


def mcflow_name(h: Node, i: Node, j: Node) -> str:
    return f"fm_{h}_{i}_{j}"


def _index_tuples(n: int, k: int) -> list[tuple[str, ...]]:
    """The k-subsets of the nodes as increasing tuples of digit strings, in
    the order of ``combinations(range(n), k)``."""
    return list(combinations([str(v) for v in range(n)], k))


def ensure_edge_variables(cs: ConstraintSystem, n: int) -> None:
    """Declare the binary edge variable for every pair, once."""
    cs.meta.setdefault("n", n)
    if cs.meta["n"] != n:
        raise ValueError("constraint system already built for a different n")
    x = x_name(*FIELDS[:2])
    cs.add_variable_block([Variable(x, "binary")], [
        pair for pair in _index_tuples(n, 2) if not cs.has_variable(x.format(*pair))])


# ---------------------------------------------------------------------------
# builders


def build_fixed_density(n: int, d: int, cs: ConstraintSystem | None = None) -> ConstraintSystem:
    """Binary edge variables plus the single equality fixing the edge count."""
    if not (0 <= d <= num_pairs(n)):
        raise ValueError(f"edge count {d} out of range for n={n}")
    cs = cs or ConstraintSystem("fixed_density")
    ensure_edge_variables(cs, n)
    cs.add_row("edge_count", {x_name(i, j): 1 for i, j in all_pairs(n)}, "=", d)
    return cs


def build_triangle_indicators(n: int, cs: ConstraintSystem | None = None) -> ConstraintSystem:
    """Binary triangle indicators w_ijk for every triple i < j < k.

    The standard 4-row AND linearization pins w to the product of the
    three edge variables without auxiliaries; its four rows are one block
    over the triples.
    """
    if n < 3:
        raise ValueError("triangle indicators need n >= 3")
    cs = cs or ConstraintSystem("triangle_indicators")
    ensure_edge_variables(cs, n)
    cs.meta["triangle_variant"] = "and"
    triples = _index_tuples(n, 3)
    i, j, k = FIELDS[:3]
    w = w_name(i, j, k)
    xij, xjk, xik = x_name(i, j), x_name(j, k), x_name(i, k)
    cs.add_variable_block([Variable(w, "binary")], triples)
    cs.add_block(
        [
            Row(f"tri_ub1_{i}_{j}_{k}", {w: 1, xij: -1}, "<=", 0),
            Row(f"tri_ub2_{i}_{j}_{k}", {w: 1, xjk: -1}, "<=", 0),
            Row(f"tri_ub3_{i}_{j}_{k}", {w: 1, xik: -1}, "<=", 0),
            Row(f"tri_lb_{i}_{j}_{k}", {xij: 1, xjk: 1, xik: 1, w: -1}, "<=", 2),
        ],
        triples,
    )
    return cs


def _add_commodity(
    cs: ConstraintSystem, n: int, source: int, arc: Callable[[Node, Node], str], balance: str
) -> None:
    """Arc variables of one commodity plus its balance rows ``{balance}_{k}``.

    n-1 units leave ``source`` and one unit terminates at every other node.
    The arc pairs are one block over the pairs.  The balance rows are at
    most three blocks of one pattern, whose field 0 is the row's node k and
    fields 1, ..., n-1 the other nodes in order: the sinks before the
    source, the source, and the sinks after it.
    """
    i, j = FIELDS[:2]
    cs.add_variable_block([Variable(arc(i, j), "continuous", 0),
                           Variable(arc(j, i), "continuous", 0)], _index_tuples(n, 2))
    coeffs: dict[str, int] = {}
    for m in range(1, n):
        coeffs[arc("{0}", f"{{{m}}}")] = 1
        coeffs[arc(f"{{{m}}}", "{0}")] = -1
    nodes = [str(v) for v in range(n)]
    rows = [(node, *nodes[:k], *nodes[k + 1:]) for k, node in enumerate(nodes)]
    name = f"{_literal(balance)}_{{0}}"
    for rhs, indices in ((-1, rows[:source]), (n - 1, rows[source:source + 1]),
                         (-1, rows[source + 1:])):
        cs.add_block([Row(name, coeffs, "=", rhs)], indices)


def build_connectivity_flow(n: int, cs: ConstraintSystem | None = None) -> ConstraintSystem:
    """Single-commodity flow whose feasibility is equivalent to connectivity.

    n-1 units leave the root, node 0, and one unit terminates at every
    other node; each pair's two directed flows share the capacity n * x_ij.
    """
    cs = cs or ConstraintSystem("connectivity_flow")
    ensure_edge_variables(cs, n)
    cs.meta["flow_root"] = 0
    _add_commodity(cs, n, 0, flow_name, "flow_balance")
    i, j = FIELDS[:2]
    cs.add_block(
        [Row(f"flow_cap_{i}_{j}", {flow_name(i, j): 1, flow_name(j, i): 1, x_name(i, j): -n},
             "<=", 0)],
        _index_tuples(n, 2),
    )
    return cs


def build_multicommodity_flow(n: int, cs: ConstraintSystem | None = None) -> ConstraintSystem:
    """One commodity per node, n-1 units from its node to all others.

    All commodities share the per-pair capacity n^2 * x_ij; minimizing
    the total flow makes it the flow-distance statistic.
    """
    if n < 2:
        raise ValueError("multicommodity flow needs n >= 2")
    cs = cs or ConstraintSystem("multicommodity_flow")
    ensure_edge_variables(cs, n)
    for h in range(n):
        _add_commodity(cs, n, h, partial(mcflow_name, h), f"mcflow_balance_{h}")
    i, j = FIELDS[:2]
    coeffs = {mcflow_name(h, a, b): 1 for h in range(n) for a, b in ((i, j), (j, i))}
    coeffs[x_name(i, j)] = -n * n
    cs.add_block([Row(f"mcflow_cap_{i}_{j}", coeffs, "<=", 0)], _index_tuples(n, 2))
    return cs


def _add_space_rows(cs: ConstraintSystem, n: int, space: SampleSpace) -> None:
    if space.density is not None:
        build_fixed_density(n, space.density, cs)
    if space.connected:
        build_connectivity_flow(n, cs)
    cs.meta["space"] = space.label()


def build_maxmin(
    n: int,
    alpha: Fraction,
    space: SampleSpace = SampleSpace.connected_graphs(),
) -> ConstraintSystem:
    """Full robust model: maximize H with H below each weighted statistic.

    H <= alpha * (non-edges) and H <= (1 - alpha) * (triangles); a
    zero-weight epigraph row is emitted as written, so alpha in {0, 1}
    pins the optimum at 0.
    """
    alpha = Fraction(alpha)
    if not (0 <= alpha <= 1):
        raise ValueError("alpha must lie in [0, 1]")
    space.validate_for(n)
    cs = ConstraintSystem("maxmin_nonedges_triangles")
    ensure_edge_variables(cs, n)
    build_triangle_indicators(n, cs)
    _add_space_rows(cs, n, space)
    pairs = num_pairs(n)
    cs.add_variable("H", "continuous", lower=0, upper=alpha * pairs)
    # H + alpha * (edges) <= alpha * pairs
    row = {x_name(i, j): alpha for i, j in all_pairs(n)}
    row["H"] = Fraction(1)
    cs.add_row("epi_non_edges", row, "<=", alpha * pairs)
    # H - (1 - alpha) * (triangles) <= 0
    c = alpha - 1
    row = {w_name(i, j, k): c for i, j, k in combinations(range(n), 3)}
    row["H"] = Fraction(1)
    cs.add_row("epi_triangles", row, "<=", 0)
    cs.set_objective("maximize", {"H": 1})
    cs.meta["alpha"] = str(alpha)
    cs.meta["formulation"] = "maxmin_nonedges_triangles"
    return cs


def build_minmax_distance(
    n: int,
    alpha: Fraction,
    delta,
    space: SampleSpace = SampleSpace.connected_graphs(),
) -> ConstraintSystem:
    """Min-max mirror: minimize H with H above each weighted distance statistic.

    Connectivity is implied by the multicommodity balance rows, so no
    separate connectivity flow is added.  `delta` must be an n x n matrix
    that :class:`~ergmax.stats.StatisticSpec` accepts.
    """
    alpha = Fraction(alpha)
    if not (0 <= alpha <= 1):
        raise ValueError("alpha must lie in [0, 1]")
    space.validate_for(n)
    StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta)
    if len(delta) != n:
        raise ValueError(f"distance matrix is {len(delta)}x{len(delta)}, graph has n={n}")
    cs = ConstraintSystem("minmax_distance")
    ensure_edge_variables(cs, n)
    build_multicommodity_flow(n, cs)
    if space.density is not None:
        build_fixed_density(n, space.density, cs)
    cs.meta["space"] = space.label()
    cs.add_variable("H", "continuous", lower=0)
    # alpha * (physical distance) - H <= 0
    row = {x_name(i, j): alpha * Fraction(delta[i][j]) for i, j in all_pairs(n)}
    row["H"] = Fraction(-1)
    cs.add_row("epi_physical", row, "<=", 0)
    # (1 - alpha) * (total flow) - H <= 0
    c = 1 - alpha
    row = {
        mcflow_name(h, a, b): c
        for h in range(n)
        for i, j in all_pairs(n)
        for a, b in ((i, j), (j, i))
    }
    row["H"] = Fraction(-1)
    cs.add_row("epi_flow", row, "<=", 0)
    cs.set_objective("minimize", {"H": 1})
    cs.meta["alpha"] = str(alpha)
    cs.meta["formulation"] = "minmax_distance"
    return cs


# ---------------------------------------------------------------------------
# CPLEX LP text export


def _lp_lines(cs: ConstraintSystem) -> Iterator[str]:
    """The CPLEX LP text of `cs` in pieces, each ending in a newline: a block's
    rows, bounds or binaries are rendered once as a template and filled by
    :func:`_fill`, a batch of index tuples per piece."""
    decimal = _by_identity(exact_decimal)
    # the text a term puts before its variable's name, e.g. "- 0.5 "
    term = _by_identity(lambda c: f"{'-' if c < 0 else '+'} {exact_decimal(abs(c))} ")

    def terms(coeffs: dict[str, Fraction]) -> str:
        return " ".join([term(c) + name for name, c in coeffs.items()])

    yield f"\\ {cs.name}\n"
    yield "Maximize\n" if cs.objective_sense == "maximize" else "Minimize\n"
    yield f" obj: {terms(cs.objective)}".rstrip() + "\n"
    yield "Subject To\n"
    for patterns, indices in cs._row_blocks:
        yield from _fill("".join([f" {r.name}: {terms(r.coeffs)} {r.relation} {decimal(r.rhs)}\n"
                                  for r in patterns]), indices)

    def bound(v: Variable) -> str:
        if v.lower is None and v.upper is None:
            return f" {v.name} free\n"
        if v.upper is None:
            return f" {decimal(v.lower)} <= {v.name}\n"
        lower = "-infinity" if v.lower is None else decimal(v.lower)
        return f" {lower} <= {v.name} <= {decimal(v.upper)}\n"

    for head, binary, line in (("Bounds\n", False, bound),
                               ("Binaries\n", True, lambda v: f" {v.name}\n")):
        # each variable block's lines of the section as one template
        blocks = [("".join([line(v) for v in patterns if (v.kind == "binary") == binary]),
                   indices) for patterns, indices in cs._var_blocks]
        blocks = [(text, indices) for text, indices in blocks if text]
        if blocks:
            yield head
        for text, indices in blocks:
            yield from _fill(text, indices)
    yield "End\n"


def lp_string(cs: ConstraintSystem) -> str:
    """Render the system in CPLEX LP text format with deterministic ordering."""
    return "".join(_lp_lines(cs))


def export_lp(cs: ConstraintSystem, path) -> None:
    """Write :func:`lp_string` of `cs` to `path`, line by line."""
    with open(path, "w") as f:
        f.writelines(_lp_lines(cs))


# ---------------------------------------------------------------------------
# assignment construction and checking


def edge_assignment(g: Graph) -> dict[str, Fraction]:
    return {
        x_name(i, j): Fraction(1 if g.has_edge(i, j) else 0) for i, j in all_pairs(g.n)
    }


def triangle_indicator_assignment(g: Graph) -> dict[str, Fraction]:
    values: dict[str, Fraction] = {}
    for i, j, k in combinations(range(g.n), 3):
        prod = int(g.has_edge(i, j) and g.has_edge(j, k) and g.has_edge(i, k))
        values[w_name(i, j, k)] = Fraction(prod)
    return values


def _tree_flow(g: Graph, root: int, name: Callable[[int, int], str]) -> dict[str, Fraction]:
    """One commodity routed from ``root`` along a BFS tree of g.

    Every arc (a, b) gets a value under ``name(a, b)``: the size of b's
    subtree on tree arcs, zero elsewhere.  A node's parent is its lowest
    neighbour one layer nearer the root; the layers are walked deepest
    first, so each subtree is complete before it joins its parent's.
    Raises if g is disconnected.
    """
    adj = g.adjacency()
    layers = tuple(bfs_layers(adj, root))
    if sum(layer.bit_count() for layer in layers) != g.n:
        raise DisconnectedGraphError("graph is disconnected; no spanning tree exists")
    size = [1] * g.n
    values = {name(a, b): Fraction(0) for i, j in all_pairs(g.n) for a, b in ((i, j), (j, i))}
    for d in range(len(layers) - 1, 0, -1):
        layer = layers[d]
        while layer:
            low = layer & -layer
            v = low.bit_length() - 1
            up = adj[v] & layers[d - 1]
            parent = (up & -up).bit_length() - 1
            size[parent] += size[v]
            values[name(parent, v)] = Fraction(size[v])
            layer ^= low
    return values


def connectivity_flow_assignment(g: Graph) -> dict[str, Fraction]:
    """Feasible flow certifying connectivity: route along a BFS tree from node 0."""
    return _tree_flow(g, 0, flow_name)


def multicommodity_flow_assignment(g: Graph) -> dict[str, Fraction]:
    """Shortest-path routing for every commodity, via per-root BFS trees."""
    values: dict[str, Fraction] = {}
    for h in range(g.n):
        values.update(_tree_flow(g, h, partial(mcflow_name, h)))
    return values


def zero_capacity_cut(g: Graph) -> frozenset[int]:
    """Nodes reachable from the root, node 0; a proper subset certifies infeasibility.

    Every pair crossing the cut has no edge, so the shared capacity rows
    force zero flow across it while the balance rows demand a positive
    net outflow.
    """
    mask = reached(g, 0)
    return frozenset(v for v in range(g.n) if mask >> v & 1)


def maxmin_assignment(
    n: int, alpha: Fraction, g: Graph, space: SampleSpace = SampleSpace.connected_graphs()
) -> dict[str, Fraction]:
    """Complete variable assignment for a `build_maxmin` system at graph g."""
    if g.n != n:
        raise ValueError(f"graph has n={g.n} but the model has n={n}")
    values = edge_assignment(g)
    values.update(triangle_indicator_assignment(g))
    if space.connected:
        values.update(connectivity_flow_assignment(g))
    h = Hamiltonian.max_min_pair(
        alpha, StatisticSpec(StatisticKind.NON_EDGES), StatisticSpec(StatisticKind.TRIANGLES)
    )
    values["H"] = eval_hamiltonian(h, g)
    return values


@dataclass(frozen=True)
class RowViolation:
    row: str
    relation: str
    lhs: Fraction
    rhs: Fraction
    amount: Fraction  # positive violation magnitude


@dataclass
class CheckResult:
    feasible: bool
    row_violations: list[RowViolation] = field(default_factory=list)
    variable_violations: list[str] = field(default_factory=list)
    semantic_notes: list[str] = field(default_factory=list)
    graph: Graph | None = None


def check_assignment(
    cs: ConstraintSystem,
    assignment: Mapping[str, Number | float],
    tolerance: Number = 0,
) -> CheckResult:
    """Verify an assignment against every row, bound, and the graph semantics.

    The assignment must cover every declared variable.  Beyond the rows,
    the x variables are decoded into a graph and the triangle indicators
    and flow rows are checked against triangle counts and connectivity.
    """
    tol = Fraction(tolerance)
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, not {tol}")
    variables = cs.variables
    values: dict[str, Fraction] = {}
    missing = []
    for v in variables:
        if v.name not in assignment:
            missing.append(v.name)
        else:
            raw = assignment[v.name]
            try:
                if isinstance(raw, bool):  # Fraction(True) would read as 1
                    raise TypeError
                values[v.name] = Fraction(str(raw)) if isinstance(raw, float) else Fraction(raw)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"assignment value of {v.name} is not a number: {raw!r}") from exc
    if missing:
        raise ValueError(f"assignment is missing variables: {missing[:5]}"
                         + ("..." if len(missing) > 5 else ""))

    result = CheckResult(feasible=True)
    for v in variables:
        val = values[v.name]
        lo = Fraction(0) if v.kind == "binary" else v.lower
        hi = Fraction(1) if v.kind == "binary" else v.upper
        if lo is not None and val < lo - tol:
            result.variable_violations.append(f"{v.name} = {val} below lower bound {lo}")
        if hi is not None and val > hi + tol:
            result.variable_violations.append(f"{v.name} = {val} above upper bound {hi}")
        if v.kind == "binary" and min(abs(val), abs(1 - val)) > tol:
            result.variable_violations.append(f"{v.name} = {val} is not 0/1")

    violated_rows = set()
    rows = cs.rows
    for row in rows:
        lhs = sum((c * values[name] for name, c in row.coeffs.items()), start=Fraction(0))
        if row.relation == "<=":
            amount = lhs - row.rhs
        elif row.relation == ">=":
            amount = row.rhs - lhs
        else:
            amount = abs(lhs - row.rhs)
        if amount > tol:
            result.row_violations.append(RowViolation(row.name, row.relation, lhs, row.rhs, amount))
            violated_rows.add(row.name)

    n = cs.meta.get("n")
    if n is not None and all(cs.has_variable(x_name(i, j)) for i, j in all_pairs(n)):
        g = Graph.from_edges(
            n, (pair for pair in all_pairs(n) if values[x_name(*pair)] >= Fraction(1, 2))
        )
        result.graph = g
        for name, expected in triangle_indicator_assignment(g).items():
            if cs.has_variable(name) and abs(values[name] - expected) > tol:
                result.semantic_notes.append(
                    f"{name} = {values[name]} but the edge product is {expected}"
                )
        flow_rows = [r.name for r in rows if r.name.startswith("flow_")]
        if flow_rows:
            flow_ok = not any(name in violated_rows for name in flow_rows)
            if flow_ok != is_connected(g):
                result.semantic_notes.append(
                    "connectivity flow rows hold but the decoded graph is disconnected"
                    if flow_ok
                    else "decoded graph is connected but the given flow violates its rows"
                )

    result.feasible = not result.row_violations and not result.variable_violations
    return result
