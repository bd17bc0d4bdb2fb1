"""Static checks that keep dead code from accumulating in the package.

Each module of ``src/ergmax`` (``__init__.py`` aside, since it exists to
re-export) must use every name it imports at module level, and every
``_``-prefixed module-level function must be referenced somewhere in the
package outside its own definition.  Every other function, method and
property of the package must be referenced somewhere in the repository's
Python code (package, tests, demos, benchmark) or be exported in
``ergmax.__all__``.  Every probe the benchmark's tracer installs must
name a function it can find, and every name the benchmark imports from
the package must exist.  Only ``stats.py`` reads a Hamiltonian's
``sense``: everywhere else it is folded into the sign of ``scale``.
``cli.py`` names no model.  Only ``graph.py`` gives a graph its hop
total.  ``lp.py`` fills names without ``string`` or ``.format``.  The
package imports nothing outside the standard library, and
not ``random``: its searches are deterministic.  The searches build no
Fraction per node or toggle, and branch-and-bound no Graph per node.
"""

from __future__ import annotations

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

import pytest

import ergmax

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ergmax"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def used_names(node: ast.AST) -> Counter[str]:
    """Every identifier read in ``node``, with its number of uses: bare
    names, attribute names and names imported from a module."""
    names: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = parse(path)
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = stmt.lineno
    used: Counter[str] = Counter()
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            used |= used_names(stmt)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def imported_modules(path: Path) -> Iterator[tuple[int, str]]:
    """(line, top-level module) of each absolute import in the file at `path`."""
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library():
    outside = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in imported_modules(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside, f"imports from outside the standard library: {outside}"


def test_no_package_module_imports_random():
    # the solvers are deterministic, and the distance model's points come
    # from the seeded PCG stream in stats
    importers = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in imported_modules(path)
        if name == "random"
    ]
    assert not importers, f"modules that import random: {importers}"


def test_only_stats_reads_the_sense():
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "stats.py"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "sense"
    ]
    assert not readers, f"modules that read .sense instead of the sign of scale: {readers}"


def test_the_cli_names_no_model():
    # each model's choices live in reporting, and the command line only parses and prints
    from ergmax.reporting import MODELS

    named = [
        f"cli.py:{node.lineno} {node.value!r}"
        for node in ast.walk(parse(PACKAGE / "cli.py"))
        if isinstance(node, ast.Constant) and node.value in MODELS
    ]
    assert not named, f"model names in the command line: {named}"


def test_only_graph_assigns_the_hop_total():
    writers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "graph.py"
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for sub in ast.walk(target)
        if isinstance(sub, ast.Attribute) and sub.attr == "_hop_total"
    ]
    assert not writers, f"modules that assign a hop total outside graph.py: {writers}"


def test_lp_fills_names_by_one_path():
    # a pattern name is a string or a (prefix, k) pair, filled by
    # concatenation or a printf-style batch, never by a format template
    tree = parse(PACKAGE / "lp.py")
    found = [f"lp.py:{line} {name}" for line, name in imported_modules(PACKAGE / "lp.py")
             if name == "string"]
    found += [f"lp.py:{node.lineno} .format" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "format"]
    assert not found, f"format templates in lp.py: {found}"


def test_every_private_function_is_referenced():
    trees = {path.name: parse(PACKAGE / path.name) for path in PACKAGE.glob("*.py")}
    unreferenced = []
    for path in MODULES:
        for stmt in trees[path.name].body:
            if not (isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")):
                continue
            referenced = any(
                stmt.name in used_names(other)
                for name, tree in trees.items()
                for other in tree.body
                if other is not stmt
            )
            if not referenced:
                unreferenced.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    assert not unreferenced, f"private functions nothing references: {unreferenced}"


def test_every_function_is_referenced_or_exported():
    uses: Counter[str] = Counter()
    for top in ("src", "tests", "demos", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            uses.update(used_names(parse(path)))
    exported = set(ergmax.__all__)
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            # uses inside its own body (recursion) do not count
            if uses[name] <= used_names(node)[name]:
                unreferenced.append(f"{path.name}:{node.lineno} {name}")
    assert not unreferenced, f"functions nothing references or exports: {unreferenced}"


def test_every_benchmark_probe_resolves():
    # read PROBES from the tracer's source, without importing the benchmark
    tree = parse(ROOT / "bench" / "tracer.py")
    [probes] = [
        ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["PROBES"]
    ]
    missing = []
    for name, module_name, attr, cls_name, _ in probes:
        home = importlib.import_module(module_name)
        # the tracer swaps a method in its class's own __dict__, and a
        # function wherever a module binds it
        if cls_name is not None:
            owner = getattr(home, cls_name, None)
            target = None if owner is None else vars(owner).get(attr)
        else:
            target = getattr(home, attr, None)
        if not callable(target):
            missing.append(f"{name}: {module_name}.{cls_name + '.' if cls_name else ''}{attr}")
    assert not missing, f"benchmark probes whose target is gone: {missing}"


def test_every_benchmark_import_resolves():
    # this suite does not run bench/test_bench.py, so the names it and the
    # runner import, at module or function level, are checked here
    missing = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom):
                wanted = [(node.module or "", alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                wanted = [(alias.name, None) for alias in node.names]
            else:
                continue
            for module_name, name in wanted:
                if module_name.split(".")[0] != "ergmax":
                    continue
                # a name is bound in its module, or is one of its submodules
                try:
                    home = importlib.import_module(module_name)
                    if name is not None and not hasattr(home, name):
                        importlib.import_module(f"{module_name}.{name}")
                except ImportError:
                    missing.append(f"{path.name}:{node.lineno} {module_name} {name or ''}")
    assert not missing, f"names the benchmark imports that the package lacks: {missing}"


@pytest.mark.parametrize("solve", ["bnb-6", "first-improve-triads-20", "first-improve-distance-20"])
def test_the_searches_build_no_fraction_per_node_or_toggle(monkeypatch, solve):
    # every search scores on its Hamiltonian's integer grid and divides back
    # once, so the Fractions it builds do not grow with its nodes or toggles
    from fractions import Fraction

    from ergmax.exact import branch_and_bound, star_with_chords, structural_lower_bounds
    from ergmax.local_search import first_improve
    from ergmax.reporting import ExperimentSpec, hamiltonian_for

    space = ergmax.SampleSpace.connected_graphs()
    alpha = Fraction(1, 2)
    if solve == "bnb-6":
        h = hamiltonian_for(ExperimentSpec(n=6, alpha=alpha))
        start = star_with_chords(6, structural_lower_bounds(6, alpha).min_triangles)

        def run():
            return branch_and_bound(6, space, h, incumbent=start).nodes_explored
    else:
        triads = solve == "first-improve-triads-20"
        model = "triads_vs_nonedges" if triads else "distance_vs_flow"
        h = hamiltonian_for(ExperimentSpec(n=20, model=model, alpha=alpha, seed=1))
        # a start that climbs: K20 has no non-edge, so removals help the
        # triads model; the star's flow term binds, so additions help the other
        start = ergmax.Graph.complete(20) if triads else ergmax.Graph.star(20)

        def run():
            return first_improve(start, h, space).nodes_explored

    built = 0
    fraction_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    work = run()
    monkeypatch.undo()
    assert work > 100 and built <= 4


def test_branch_and_bound_builds_no_graph_per_node(monkeypatch):
    # every toggle step reads adjacency rows, so the Graphs bnb builds are its
    # root's, its leaves' and the divide-back's, not one per node (15 000 for
    # these 16 207 nodes when a flow step summed a toggled graph's hops)
    from fractions import Fraction

    from ergmax.exact import branch_and_bound
    from ergmax.frontier import distance_interval
    from ergmax.stats import random_unit_square_delta

    delta = tuple(tuple(20 * d for d in row) for row in random_unit_square_delta(7, 1))
    h = ergmax.Hamiltonian.max_min_pair(
        Fraction(7, 10), ergmax.StatisticSpec(ergmax.StatisticKind.PHYSICAL_DISTANCE, delta),
        ergmax.StatisticSpec(ergmax.StatisticKind.FLOW_DISTANCE), "minimize")
    bound, _, start = distance_interval(h)
    built = 0
    graph_init = ergmax.Graph.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        graph_init(self, *args, **kwargs)

    monkeypatch.setattr(ergmax.Graph, "__init__", counted)
    res = branch_and_bound(7, ergmax.SampleSpace.connected_graphs(), h,
                           incumbent=start, ceiling=bound)
    monkeypatch.undo()
    assert res.status == "optimal" and res.nodes_explored == 16_207
    assert built <= 20
