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
from itertools import chain, combinations, repeat
from operator import itemgetter
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


# a pattern's name: a string, taken as written, or a (prefix, k) pair that
# fills as prefix + entry k of an index tuple
Name = str | tuple[str, int]


@dataclass(slots=True)
class Variable:
    name: Name
    kind: str  # 'binary' | 'continuous'
    lower: Fraction | None = None
    upper: Fraction | None = None


@dataclass(slots=True)
class Row:
    name: Name
    coeffs: dict[Name, Fraction]
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


def _suffixes(entries: list[Any]) -> bool:
    """Whether every entry is a name suffix: groups of ASCII decimal digits
    joined by ``_``, such as ``"3_7_12"``.  The entries are joined and
    tested at once, so each test is one pass over one string."""
    if not entries:
        return True
    try:
        text = "\n".join(entries)
    except TypeError:  # an entry that is not a string
        return False
    # every group of every entry, one run: an empty group or entry shows as
    # a "_" next to another or at an end
    groups = text.replace("\n", "_")
    return (text.isascii() and text.count("\n") == len(entries) - 1
            and groups.replace("_", "").isdecimal() and "__" not in groups
            and not groups.startswith("_") and not groups.endswith("_"))


def _check_entries(indices: list[tuple[str, ...]]) -> None:
    """Refuse with ValueError an index entry that is not a name suffix."""
    entries = list(chain.from_iterable(indices))
    if not _suffixes(entries):
        for entry in entries:
            if not _suffixes([entry]):
                raise ValueError(f"index entry {entry!r} is not a string of decimal digits"
                                 " or of such groups joined by '_'")


def _fill_name(name: Name, idx: tuple[str, ...]) -> str:
    return name if type(name) is str else name[0] + idx[name[1]]


def _names(patterns: list[Any], indices: list[tuple[str, ...]],
           distinct: bool = False) -> list[str]:
    """Every pattern name filled from every index tuple, pattern by pattern.

    With `distinct`, a (prefix, k) name is filled once per distinct entry
    k, and a string once: the set of names is the same, but ``("x_", 1)``
    over the 9 880 triples of n = 40 is 780 names, not 9 880.  Refused: a
    name that is not a string or a tuple (TypeError), and with ValueError
    a tuple that is not a (prefix, k) pair or whose k is past an index tuple.
    """
    names: list[str] = []
    width = min(map(len, indices), default=0)
    column = _Memo(lambda k: set(map(itemgetter(k), indices)))  # entry k's distinct values
    for p in patterns:
        if type(p) is str:
            names += [p] * (min(len(indices), 1) if distinct else len(indices))
            continue
        if type(p) is not tuple:
            raise TypeError(f"name {p!r} is not a string")
        if len(p) != 2 or type(p[0]) is not str or type(p[1]) is not int or p[1] < 0:
            raise ValueError(f"name {p!r} is not a (prefix, k) pair")
        prefix, k = p
        if indices and k >= width:
            raise ValueError(f"name {p!r} has no index entry {k}")
        names += map(prefix.__add__, column[k] if distinct else map(itemgetter(k), indices))
    return names


def _new_names(patterns: list[Any], indices: list[tuple[str, ...]], taken: set[str],
               what: str) -> set[str]:
    """The names `patterns` take over `indices`; ValueError, naming the first
    in fill order, if one comes twice or is already in `taken`."""
    names = _names(patterns, indices)
    new = set(names)
    if len(new) != len(names) or not taken.isdisjoint(new):
        seen = set(taken)
        for idx in indices:
            for p in patterns:
                name = _fill_name(p, idx)
                if name in seen:
                    raise ValueError(f"{what} {name!r} declared twice")
                seen.add(name)
    return new


def _filled(patterns: tuple[Row, ...], indices: list[tuple[str, ...]]) -> Iterator[Row]:
    """The rows of a block: each pattern filled from each index tuple in turn."""
    for idx in indices:
        for p in patterns:
            yield Row(_fill_name(p.name, idx), {_fill_name(v, idx): c for v, c in p.coeffs.items()},
                      p.relation, p.rhs)


class _Slots(list):
    """The entry k that fills each ``%s`` of a printf-style template, in turn.

    Called on a name, it gives the name's template text, appending k for a
    (prefix, k) pair: a string or prefix with its ``%`` doubled, and a
    ``%s`` after the prefix.  A renderer calls it on a pattern's names in
    the order their text comes, so the slots follow the ``%s`` in turn.
    """

    def __call__(self, name: Name) -> str:
        if type(name) is str:
            return name.replace("%", "%%")
        self.append(name[1])
        return name[0].replace("%", "%%") + "%s"


# index tuples filled into one string by :func:`_fill`
_BATCH = 256


def _fill(render: Callable[[Any, _Slots], str], patterns: Iterable[Any],
          indices: list[tuple[str, ...]], sep: str = "") -> Iterator[str]:
    """The text of a block: each of `patterns` rendered once by
    ``render(p, slots)`` and joined by `sep` into one printf-style template,
    then the template filled from each index tuple in turn, joined by `sep`,
    one string per batch of tuples.  A batch is the template repeated,
    filled by one ``%`` from its tuples' entries that the slots pick."""
    slots = _Slots()
    template = sep.join([render(p, slots) for p in patterns])
    pick = itemgetter(*slots) if slots else None
    joined: dict[int, str] = {}
    for start in range(0, len(indices), _BATCH):
        batch = indices[start:start + _BATCH]
        if len(batch) not in joined:
            joined[len(batch)] = sep.join([template] * len(batch))
        text = joined[len(batch)]
        if len(slots) > 1:
            yield text % tuple(chain.from_iterable(map(pick, batch)))
        else:  # one slot picks a string, and none picks nothing
            yield text % tuple(map(pick, batch) if slots else ())


class ConstraintSystem:
    """Ordered collection of variables, rows and one objective.

    Variables and rows are stored in blocks.  A block is a tuple of
    patterns, variables or rows, and a list of index tuples; it stands for
    every pattern filled from every tuple, tuple by tuple.  A pattern's name
    (and each of a row pattern's variable names) is a string, taken as
    written, or a ``(prefix, k)`` pair, filled as ``prefix + idx[k]``.  An
    index entry is a whole name suffix, groups of decimal digits joined by
    ``_`` such as ``"3_7_12"`` or ``"3_7"``: ``("w_", 0)``, ``("x_", 1)``,
    ``("x_", 2)`` and ``("x_", 3)`` over ``("0_1_2", "0_1", "1_2", "0_2")``
    are ``w_0_1_2``, ``x_0_1``, ``x_1_2`` and ``x_0_2``.  A plain variable
    or row is a block of one pattern named by a string, over one empty tuple.
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
        return [Variable(_fill_name(p.name, idx), p.kind, p.lower, p.upper)
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
        """One variable: a block of one pattern, over one empty tuple."""
        self.add_variable_block([Variable(name, kind, lower, upper)], [()])

    def _variable(self, name: Name, kind: str, lower: Number | None,
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
        """Declare the variables of `patterns` filled from each index tuple in
        turn, each entry a name suffix (see :class:`ConstraintSystem`).

        Refused, declaring nothing: a name that is neither a string nor a
        tuple (TypeError); with ValueError, a tuple that is not a
        ``(prefix, k)`` pair or whose k is past an index tuple, an entry that
        is not a name suffix (the message names it), an unknown kind, a bound
        on a binary variable, or a name given twice.
        """
        patterns, indices = tuple(patterns), list(indices)
        _check_entries(indices)
        patterns = tuple(self._variable(p.name, p.kind, p.lower, p.upper) for p in patterns)
        new_names = _new_names([p.name for p in patterns], indices, self._var_names, "variable")
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
        """One row: a block of one pattern, over one empty tuple."""
        self.add_block([Row(name, coeffs, relation, rhs)], [()])

    def add_block(self, patterns: Iterable[Row], indices: Iterable[tuple[str, ...]]) -> None:
        """Add the rows of `patterns` filled from each index tuple in turn,
        each entry a name suffix (see :class:`ConstraintSystem`).

        Refused, adding nothing: a name that is neither a string nor a
        tuple (TypeError); with ValueError, a tuple that is not a
        ``(prefix, k)`` pair or whose k is past an index tuple, an entry that
        is not a name suffix (the message names it), a row name given twice,
        an unknown relation, or a row naming an undeclared variable.
        """
        patterns, indices = tuple(patterns), list(indices)
        _check_entries(indices)
        var_names = _names(list(dict.fromkeys(v for p in patterns for v in p.coeffs)), indices,
                           distinct=True)
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
        string encoder, which leaves ``%`` and the digits filled in
        unchanged, and each stored coefficient is rendered once.
        """
        quoted = json.encoder.encode_basestring_ascii
        value = _by_identity(lambda c: "null" if c is None else f'"{c}"')

        def coeffs_text(coeffs: dict[Name, Fraction], pad: str, text: Callable[[Name], str]) -> str:
            # an object whose members sit at `pad`, closed two spaces left of
            # it; a string without "%" is its own text, with no call
            members = f",\n{pad}".join([
                f"{quoted(v if type(v) is str and '%' not in v else text(v))}: {value(c)}"
                for v, c in coeffs.items()])
            return f"{{\n{pad}{members}\n{pad[:-2]}}}" if coeffs else "{}"

        def variable_item(v: Variable, slots: _Slots) -> str:
            return (
                f'{{\n      "name": {quoted(slots(v.name))},\n      "kind": {quoted(v.kind)},\n'
                f'      "lower": {value(v.lower)},\n      "upper": {value(v.upper)}\n    }}'
            )

        def row_item(r: Row, slots: _Slots) -> str:
            return (
                f'{{\n      "name": {quoted(slots(r.name))},\n'
                f'      "coeffs": {coeffs_text(r.coeffs, " " * 8, slots)},\n'
                f'      "relation": {quoted(r.relation)},\n      "rhs": {value(r.rhs)}\n    }}'
            )

        def write_array(render: Callable[[Any, _Slots], str], blocks: list) -> None:
            # items are rendered at indent 4, a batch of them per write; the
            # array closes at indent 2
            sep = ",\n    "
            empty = True
            for patterns, indices in blocks:
                for text in _fill(render, patterns, indices, sep):
                    f.write(("[\n    " if empty else sep) + text)
                    empty = False
            f.write("[]" if empty else "\n  ]")

        head = json.dumps({"name": self.name, "meta": self.meta}, indent=2)
        f.write(head[:-2])  # all but the closing "\n}"
        f.write(
            f',\n  "objective": {{\n    "sense": {quoted(self.objective_sense)},\n'
            # the objective is written, not filled: its names go as they are
            f'    "coeffs": {coeffs_text(self.objective, " " * 6, str)}\n  }},\n  "variables": '
        )
        write_array(variable_item, self._var_blocks)
        f.write(',\n  "rows": ')
        write_array(row_item, self._row_blocks)
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
        one block over one empty tuple, and so are the rows; JSON has no
        tuples, so every name is a string, and any other is refused."""
        try:
            cs = cls(data.get("name", "model"))
            cs.meta = dict(data.get("meta", {}))
            variables = []
            for v in data["variables"]:
                _refuse_booleans(v["lower"], v["upper"])
                variables.append(Variable(v["name"], v["kind"], v["lower"], v["upper"]))
            cs.add_variable_block(variables, [()])
            rows = []
            for r in data["rows"]:
                _refuse_booleans(r["rhs"], *r["coeffs"].values())
                rows.append(Row(r["name"], r["coeffs"], r["relation"], r["rhs"]))
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
        edge_vars = sum(name.startswith("x_") for name in cs._var_names)
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
# variable-name scheme (deterministic given n and formulation options); the
# builders' blocks spell the same names from suffixes, ``("x_", 0)`` over
# ("i_j",) being x_name(i, j), and likewise ``w_``, ``f_`` and ``fm_h_``


def x_name(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def w_name(i: int, j: int, k: int) -> str:
    return f"w_{i}_{j}_{k}"


def flow_name(i: int, j: int) -> str:
    return f"f_{i}_{j}"


def mcflow_name(h: int, i: int, j: int) -> str:
    return f"fm_{h}_{i}_{j}"


def _arc_suffixes(n: int) -> list[list[str]]:
    """``"i_j"`` at ``[i][j]`` for every two nodes: the name suffix of the
    pair or arc (i, j)."""
    nodes = [str(v) for v in range(n)]
    return [list(map(f"{a}_".__add__, nodes)) for a in nodes]


def ensure_edge_variables(cs: ConstraintSystem, n: int) -> None:
    """Declare the binary edge variable for every pair, once."""
    cs.meta.setdefault("n", n)
    if cs.meta["n"] != n:
        raise ValueError("constraint system already built for a different n")
    cs.add_variable_block([Variable(("x_", 0), "binary")], [
        (ij,) for i, row in enumerate(_arc_suffixes(n)) for ij in row[i + 1:]
        if not cs.has_variable("x_" + ij)])


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
    over the triples' suffixes (ijk, ij, jk, ik).
    """
    if n < 3:
        raise ValueError("triangle indicators need n >= 3")
    cs = cs or ConstraintSystem("triangle_indicators")
    ensure_edge_variables(cs, n)
    cs.meta["triangle_variant"] = "and"
    nodes, table = [str(v) for v in range(n)], _arc_suffixes(n)
    triples: list[tuple[str, str, str, str]] = []
    for i, row in enumerate(table):
        for j in range(i + 1, n):  # (i_j_k, i_j, j_k, i_k) for each k > j
            triples += zip(map(f"{row[j]}_".__add__, nodes[j + 1:]), repeat(row[j]),
                           table[j][j + 1:], row[j + 1:])
    cs.add_variable_block([Variable(("w_", 0), "binary")], triples)
    cs.add_block(
        [
            Row(("tri_ub1_", 0), {("w_", 0): 1, ("x_", 1): -1}, "<=", 0),
            Row(("tri_ub2_", 0), {("w_", 0): 1, ("x_", 2): -1}, "<=", 0),
            Row(("tri_ub3_", 0), {("w_", 0): 1, ("x_", 3): -1}, "<=", 0),
            Row(("tri_lb_", 0), {("x_", 1): 1, ("x_", 2): 1, ("x_", 3): 1, ("w_", 0): -1}, "<=", 2),
        ],
        triples,
    )
    return cs


def _flow_suffixes(n: int) -> tuple[list[tuple[str, str]], list[tuple[str, ...]]]:
    """The index tuples of a commodity's blocks: (ij, ji) for each pair
    i < j, and for each node k, (k, k_m, m_k, ...) over the other nodes m
    in order."""
    table = _arc_suffixes(n)
    arcs = [(row[j], table[j][i]) for i, row in enumerate(table) for j in range(i + 1, n)]
    balance = [(str(k), *chain.from_iterable((table[k][m], table[m][k])
                                             for m in range(n) if m != k))
               for k in range(n)]
    return arcs, balance


def _add_commodity(cs: ConstraintSystem, n: int, source: int, arc: str, balance: str,
                   suffixes: tuple[list[tuple[str, str]], list[tuple[str, ...]]]) -> None:
    """Arc variables ``arc + "i_j"`` of one commodity plus its balance rows
    ``balance + "_k"``, over `suffixes` from :func:`_flow_suffixes`.

    n-1 units leave ``source`` and one unit terminates at every other node.
    The arc pairs are one block over the pairs.  The balance rows are at
    most three blocks of one pattern: the sinks before the source, the
    source, and the sinks after it.
    """
    arcs, rows = suffixes
    cs.add_variable_block([Variable((arc, 0), "continuous", 0),
                           Variable((arc, 1), "continuous", 0)], arcs)
    coeffs: dict[Name, int] = {}
    for m in range(1, n):
        coeffs[arc, 2 * m - 1] = 1
        coeffs[arc, 2 * m] = -1
    name = (balance + "_", 0)
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
    suffixes = _flow_suffixes(n)
    _add_commodity(cs, n, 0, "f_", "flow_balance", suffixes)
    cs.add_block([Row(("flow_cap_", 0), {("f_", 0): 1, ("f_", 1): 1, ("x_", 0): -n}, "<=", 0)],
                 suffixes[0])
    return cs


def build_multicommodity_flow(n: int, cs: ConstraintSystem | None = None) -> ConstraintSystem:
    """One commodity per node, n-1 units from its node to all others.

    All commodities share the per-pair capacity n^2 * x_ij; minimizing
    the total flow makes it the flow-distance statistic.  Every commodity's
    blocks take the same index tuples.
    """
    if n < 2:
        raise ValueError("multicommodity flow needs n >= 2")
    cs = cs or ConstraintSystem("multicommodity_flow")
    ensure_edge_variables(cs, n)
    suffixes = _flow_suffixes(n)
    for h in range(n):
        _add_commodity(cs, n, h, f"fm_{h}_", f"mcflow_balance_{h}", suffixes)
    coeffs: dict[Name, int] = {(f"fm_{h}_", k): 1 for h in range(n) for k in (0, 1)}
    coeffs["x_", 0] = -n * n
    cs.add_block([Row(("mcflow_cap_", 0), coeffs, "<=", 0)], suffixes[0])
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

    def terms(coeffs: dict[Name, Fraction], text: Callable[[Name], str]) -> str:
        # a string without "%" is its own text, with no call
        return " ".join([term(c) + (v if type(v) is str and "%" not in v else text(v))
                         for v, c in coeffs.items()])

    def row(r: Row, slots: _Slots) -> str:
        return f" {slots(r.name)}: {terms(r.coeffs, slots)} {r.relation} {decimal(r.rhs)}\n"

    yield f"\\ {cs.name}\n"
    yield "Maximize\n" if cs.objective_sense == "maximize" else "Minimize\n"
    # the objective is written, not filled: its names go as they are
    yield f" obj: {terms(cs.objective, str)}".rstrip() + "\n"
    yield "Subject To\n"
    for patterns, indices in cs._row_blocks:
        yield from _fill(row, patterns, indices)

    def bound(v: Variable, slots: _Slots) -> str:
        if v.lower is None and v.upper is None:
            return f" {slots(v.name)} free\n"
        if v.upper is None:
            return f" {decimal(v.lower)} <= {slots(v.name)}\n"
        lower = "-infinity" if v.lower is None else decimal(v.lower)
        return f" {lower} <= {slots(v.name)} <= {decimal(v.upper)}\n"

    for head, binary, line in (("Bounds\n", False, bound),
                               ("Binaries\n", True, lambda v, slots: f" {slots(v.name)}\n")):
        # each variable block's lines of the section as one template
        blocks = [(chosen, indices) for patterns, indices in cs._var_blocks
                  if (chosen := [v for v in patterns if (v.kind == "binary") == binary])]
        if blocks:
            yield head
        for patterns, indices in blocks:
            yield from _fill(line, patterns, indices)
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
