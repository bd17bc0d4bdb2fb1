"""Export-format tests: determinism, golden shapes, and an independent parse-back."""

import gc
import hashlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ergmax import ConstraintSystem, SampleSpace
from ergmax import lp
from ergmax.graph import num_pairs
from ergmax.stats import exact_decimal, random_unit_square_delta

from helpers import (
    connectivity_flow_by_rows,
    expanded,
    fixed_density_by_rows,
    maxmin_by_rows,
    minmax_distance_by_rows,
    multicommodity_flow_by_rows,
    triangle_indicators_by_rows,
)

TERM_RE = re.compile(r"([+-])\s*([0-9.]+(?:e-?\d+)?)\s+(\w+)")


def parse_lp_text(text: str) -> dict:
    """Minimal reader for the CPLEX LP subset the exporter emits."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("\\")]
    sense = None
    objective: dict[str, float] = {}
    rows = []
    bounds = []
    binaries = []
    section = None
    for ln in lines:
        stripped = ln.strip()
        if stripped in ("Maximize", "Minimize"):
            sense = stripped.lower()
            section = "objective"
            continue
        if stripped == "Subject To":
            section = "rows"
            continue
        if stripped == "Bounds":
            section = "bounds"
            continue
        if stripped == "Binaries":
            section = "binaries"
            continue
        if stripped == "End":
            section = None
            continue
        if section == "objective":
            body = stripped.split(":", 1)[1]
            for sign, coef, name in TERM_RE.findall(body):
                objective[name] = float(f"{sign}{coef}")
        elif section == "rows":
            name, body = stripped.split(":", 1)
            m = re.search(r"(<=|>=|=)\s*(-?[0-9.]+(?:e-?\d+)?)\s*$", body)
            assert m, body
            rel, rhs = m.group(1), float(m.group(2))
            coeffs = {
                var: float(f"{sign}{coef}")
                for sign, coef, var in TERM_RE.findall(body[: m.start()])
            }
            rows.append((name.strip(), coeffs, rel, rhs))
        elif section == "bounds":
            bounds.append(stripped)
        elif section == "binaries":
            binaries.append(stripped)
    return {
        "sense": sense,
        "objective": objective,
        "rows": rows,
        "binaries": binaries,
        "bounds": bounds,
    }


def test_export_is_deterministic():
    a = lp.lp_string(lp.build_maxmin(4, Fraction(1, 2)))
    b = lp.lp_string(lp.build_maxmin(4, Fraction(1, 2)))
    assert a == b


def test_empty_system_is_minimal():
    cs = ConstraintSystem("empty")
    text = lp.lp_string(cs)
    assert text.splitlines() == ["\\ empty", "Minimize", " obj:", "Subject To", "End"]


def test_fixed_density_export_golden():
    text = lp.lp_string(lp.build_fixed_density(4, 2))
    parsed = parse_lp_text(text)
    assert len(parsed["binaries"]) == 6
    assert len(parsed["rows"]) == 1
    name, coeffs, rel, rhs = parsed["rows"][0]
    assert name == "edge_count"
    assert rel == "="
    assert rhs == 2
    assert coeffs == {f"x_{i}_{j}": 1.0 for i in range(4) for j in range(i + 1, 4)}


def test_maxmin_export_parses_back_consistently():
    cs = lp.build_maxmin(4, Fraction(1, 2))
    parsed = parse_lp_text(lp.lp_string(cs))
    assert parsed["sense"] == "maximize"
    assert parsed["objective"] == {"H": 1.0}
    assert len(parsed["rows"]) == len(cs.rows)
    by_name = {name: (coeffs, rel, rhs) for name, coeffs, rel, rhs in parsed["rows"]}
    for row in cs.rows:
        coeffs, rel, rhs = by_name[row.name]
        assert rel == row.relation
        assert rhs == pytest.approx(float(row.rhs))
        assert set(coeffs) == set(row.coeffs)
        for var, c in row.coeffs.items():
            assert coeffs[var] == pytest.approx(float(c))
    # binaries: 6 edges + 4 triangle indicators
    assert len(parsed["binaries"]) == 10
    assert any(b.startswith("0 <= H <=") for b in parsed["bounds"])


def test_nonterminating_coefficients_round_to_float_repr():
    cs = ConstraintSystem("thirds")
    cs.add_variable("u", "continuous", lower=0)
    cs.add_row("r", {"u": Fraction(1, 3)}, "<=", Fraction(2, 3))
    text = lp.lp_string(cs)
    assert "0.3333333333333333 u" in text


def test_json_ir_roundtrip():
    cs = lp.build_maxmin(4, Fraction(7, 10))
    clone = ConstraintSystem.from_json_dict(cs.to_json_dict())
    assert [v.name for v in clone.variables] == [v.name for v in cs.variables]
    assert [r.name for r in clone.rows] == [r.name for r in cs.rows]
    for r1, r2 in zip(cs.rows, clone.rows):
        assert r1.coeffs == r2.coeffs
        assert r1.rhs == r2.rhs
        assert r1.relation == r2.relation
    assert clone.objective == cs.objective
    assert clone.meta["n"] == 4
    assert lp.lp_string(clone) == lp.lp_string(cs)


# sha256 of (lp_string, to_json) per model; a change here is a format change
GOLDEN_DIGESTS = {
    "maxmin_6_1/2_connected": (
        lambda: lp.build_maxmin(6, Fraction(1, 2)),
        "e94692eea7ce9da99399558fc0d7aa286e45756698124127b544d6729784bb0e",
        "9745c04e73ca6f1a51b39a517499ec4230feaee50cbc168d25db144411f79ad9",
    ),
    "maxmin_6_7/10_all_m8": (
        lambda: lp.build_maxmin(6, Fraction(7, 10), SampleSpace.fixed_density(8)),
        "5c22fceca6aa6eb3e15f7c6e698695505ffbc46b243893f4876790afb3802e83",
        "d91a22cb18ade4f67f2e5104306f540e6a20160d63edaa3e4f1b22eb776ae625",
    ),
    "maxmin_5_0": (
        lambda: lp.build_maxmin(5, Fraction(0)),
        "c720b59f4e04d4b0ed3d66bb96830980e5ccaabebd925cf8666974a8ef98c9d5",
        "2120578f922ad563a442897c213ab99486fcbac4a3bad39349183b9b75abdc9d",
    ),
    "maxmin_5_1": (
        lambda: lp.build_maxmin(5, Fraction(1)),
        "597df8b5a3b8a9624dd8b551e3546abe9f031b0db98e9cc8cc92e2678cae880b",
        "e641c1c3c3946ca65b32284101e1eacdd4618d9d1b98cf0593de2421e3fb6df9",
    ),
    "minmax_distance_5_3/10": (
        lambda: lp.build_minmax_distance(5, Fraction(3, 10), random_unit_square_delta(5, 3)),
        "f5325b467ceb86542b4946398facf6f7fb27fe03fe00865d91bcc91975058d19",
        "4a65668602950232e006aaa2da059e3f05aea6ab67c725be25cf7ae4478bd48b",
    ),
    # 960 rows over a handful of distinct values, so each rendered text is reused many times
    "maxmin_12_3/10_connected": (
        lambda: lp.build_maxmin(12, Fraction(3, 10)),
        "ad64207054414c42ebd68e5dfc80817cbec636c258caf59e552efbbff4377fc8",
        "17cccbce0777fb5fe3bebb1758d35cad013778dce6403dff4df46cf0f12cc221",
    ),
    # the benchmark's two export sizes: 9 880 triples and 14 commodities of
    # 14 balance rows each, so the fills cross their batch boundaries
    "maxmin_40_1/2_connected": (
        lambda: lp.build_maxmin(40, Fraction(1, 2)),
        "d6ed81e9f2e42049e0b617de801ff3385483e40e63d70a58a0668a8abbfe3eeb",
        "398e569111a23f04f955a4a96500805b3585d15e083c69e66ec7a48634d91682",
    ),
    "minmax_distance_14_1/2_seed1": (
        lambda: lp.build_minmax_distance(14, Fraction(1, 2), random_unit_square_delta(14, 1)),
        "35c702c5a701614bf4fa199ec5c426bf447f0498d33ddadb74d96e3e4301f70b",
        "6b7a8d548b6bb0afad47959b9080350f79cfba0b7a56b5b2fc4edae9466d6745",
    ),
}


@pytest.mark.parametrize("model", GOLDEN_DIGESTS)
def test_export_bytes_match_the_golden_digests(model, tmp_path):
    build, lp_digest, ir_digest = GOLDEN_DIGESTS[model]
    cs = build()
    assert hashlib.sha256(lp.lp_string(cs).encode()).hexdigest() == lp_digest
    lp.export_lp(cs, tmp_path / "model.lp")
    assert (tmp_path / "model.lp").read_bytes() == lp.lp_string(cs).encode()
    ir = io.StringIO()
    cs.to_json(ir)
    assert hashlib.sha256(ir.getvalue().encode()).hexdigest() == ir_digest


def test_streamed_ir_equals_the_one_string_rendering_at_n14():
    # to_json renders row by row; the reference is json's own indent-2 text
    cs = lp.build_maxmin(14, Fraction(1, 2))
    ir = io.StringIO()
    cs.to_json(ir)
    assert ir.getvalue() == json.dumps(cs.to_json_dict(), indent=2)


def test_coefficients_are_stored_as_fractions_and_each_int_converts_once():
    cs = ConstraintSystem("mixed")
    third = Fraction(1, 3)
    cs.add_variable("u", "continuous", lower=0, upper=third)
    cs.add_variable("v", "binary")
    cs.add_row("a", {"u": 1, "v": third}, "<=", 2)
    cs.add_row("b", {"u": 2, "v": 1}, ">=", Fraction(-1, 2))
    cs.set_objective("maximize", {"u": 1, "v": third})
    stored = [c for r in cs.rows for c in (*r.coeffs.values(), r.rhs)]
    stored += [*cs.objective.values(), cs.variables[0].lower, cs.variables[0].upper]
    assert all(type(c) is Fraction for c in stored)
    # a Fraction is kept as given; every int 1 is the one shared Fraction(1)
    assert cs.rows[0].coeffs["v"] is third and cs.objective["v"] is third
    assert cs.rows[0].coeffs["u"] is cs.rows[1].coeffs["v"] is cs.objective["u"]
    assert cs.rows[0].rhs is cs.rows[1].coeffs["u"]
    clone = ConstraintSystem.from_json_dict(cs.to_json_dict())
    assert clone.to_json_dict() == cs.to_json_dict()
    assert [r.coeffs for r in clone.rows] == [r.coeffs for r in cs.rows]
    assert all(type(c) is Fraction for r in clone.rows for c in (*r.coeffs.values(), r.rhs))
    for build, _, _ in GOLDEN_DIGESTS.values():
        cs = build()
        assert all(type(c) is Fraction for r in cs.rows for c in (*r.coeffs.values(), r.rhs))
        assert all(type(c) is Fraction for c in cs.objective.values())


NUMBERS = st.integers(-5, 5) | st.builds(
    Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 7, 10]))
META = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8,
)


@st.composite
def constraint_systems(draw) -> ConstraintSystem:
    """Small systems with arbitrary names, bounds of every shape on the
    continuous variables, 1/3-style coefficients and nested meta."""
    cs = ConstraintSystem(draw(st.text(max_size=5)))
    cs.meta = draw(st.dictionaries(st.text(max_size=4), META, max_size=3))
    names = draw(st.lists(st.text(min_size=1, max_size=4), unique=True, max_size=5))
    for name in names:
        if draw(st.booleans()):
            cs.add_variable(name, "binary")
        else:
            cs.add_variable(name, "continuous", draw(st.none() | NUMBERS),
                            draw(st.none() | NUMBERS))
    coeffs = st.dictionaries(st.sampled_from(names), NUMBERS, max_size=4) if names else st.just({})
    for k in range(draw(st.integers(0, 4))):
        cs.add_row(f"r{k}", draw(coeffs), draw(st.sampled_from(["<=", "=", ">="])), draw(NUMBERS))
    cs.set_objective(draw(st.sampled_from(["maximize", "minimize"])), draw(coeffs))
    return cs


@settings(max_examples=200, deadline=None)
@given(constraint_systems())
@example(ConstraintSystem())
def test_to_json_equals_the_reference_rendering(cs):
    ir = io.StringIO()
    cs.to_json(ir)
    assert ir.getvalue() == json.dumps(cs.to_json_dict(), indent=2)


def reference_lp_string(cs: ConstraintSystem) -> str:
    """The CPLEX LP text of `cs`, with every number formatted where it is written."""

    def terms(coeffs):
        return " ".join(f"{'-' if c < 0 else '+'} {exact_decimal(abs(c))} {name}"
                        for name, c in coeffs.items())

    lines = [f"\\ {cs.name}", "Maximize" if cs.objective_sense == "maximize" else "Minimize",
             f" obj: {terms(cs.objective)}".rstrip(), "Subject To"]
    lines += [f" {r.name}: {terms(r.coeffs)} {r.relation} {exact_decimal(r.rhs)}"
              for r in cs.rows]
    bounded = [v for v in cs.variables if v.kind != "binary"]
    lines += ["Bounds"] if bounded else []
    for v in bounded:
        if v.lower is None and v.upper is None:
            lines.append(f" {v.name} free")
        elif v.upper is None:
            lines.append(f" {exact_decimal(v.lower)} <= {v.name}")
        else:
            lower = "-infinity" if v.lower is None else exact_decimal(v.lower)
            lines.append(f" {lower} <= {v.name} <= {exact_decimal(v.upper)}")
    binaries = [v.name for v in cs.variables if v.kind == "binary"]
    lines += ["Binaries"] if binaries else []
    lines += [f" {name}" for name in binaries]
    return "\n".join(lines + ["End", ""])


def equal_values_in_distinct_objects() -> ConstraintSystem:
    # every Fraction(1, 2), Fraction(-1, 3) and Fraction(1) below is its own object
    cs = ConstraintSystem("twins")
    cs.add_variable("u", "continuous", Fraction(1, 2), Fraction(1, 2))
    cs.add_variable("v", "continuous", None, Fraction(-1, 3))
    cs.add_variable("b", "binary")
    cs.add_row("r0", {"u": Fraction(1, 2), "v": Fraction(-1, 3), "b": 1}, "<=", Fraction(1, 2))
    cs.add_row("r1", {"u": Fraction(-1, 3), "v": Fraction(1), "b": Fraction(1, 2)}, "=", 1)
    cs.set_objective("maximize", {"u": Fraction(1), "b": Fraction(-1, 3)})
    return cs


@settings(max_examples=200, deadline=None)
@given(constraint_systems())
@example(ConstraintSystem())
@example(equal_values_in_distinct_objects())
def test_lp_string_equals_the_reference_rendering(cs):
    assert lp.lp_string(cs) == reference_lp_string(cs)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_rendering_after_dropped_systems_and_temporaries_equals_the_reference(data):
    # objects freed between renderings leave their ids free for the next system's values
    first = data.draw(constraint_systems())
    lp.lp_string(first)
    first.to_json(io.StringIO())
    del first
    temporaries = [Fraction(k, 7) for k in range(-20, 20)]
    del temporaries
    gc.collect()
    cs = data.draw(constraint_systems())
    assert lp.lp_string(cs) == reference_lp_string(cs)
    ir = io.StringIO()
    cs.to_json(ir)
    assert ir.getvalue() == json.dumps(cs.to_json_dict(), indent=2)


def test_the_exports_hash_a_fraction_per_distinct_value_not_per_term(monkeypatch):
    cs = lp.build_maxmin(12, Fraction(3, 10))
    stored = [c for r in cs.rows for c in (*r.coeffs.values(), r.rhs)]
    stored += [*cs.objective.values()]
    stored += [b for v in cs.variables for b in (v.lower, v.upper) if b is not None]
    distinct = len(set(stored))
    hashes = 0
    fraction_hash = Fraction.__hash__

    def counted(self):
        nonlocal hashes
        hashes += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    lp.lp_string(cs)
    cs.to_json(io.StringIO())
    monkeypatch.undo()
    assert len(cs.rows) == 960 and len(stored) > 100 * distinct
    assert hashes <= distinct


# -- blocks against rows added one by one --------------------------------------


def referee_cases(n):
    """(builder, its reference by rows) for each builder of the package at n."""
    alpha, d = Fraction(3, 10), num_pairs(n) // 2
    delta = random_unit_square_delta(n, n)
    cases = {
        "fixed_density": (lambda: lp.build_fixed_density(n, d),
                          lambda: fixed_density_by_rows(n, d)),
        "triangle_indicators": (lambda: lp.build_triangle_indicators(n),
                                lambda: triangle_indicators_by_rows(n)),
        "connectivity_flow": (lambda: lp.build_connectivity_flow(n),
                              lambda: connectivity_flow_by_rows(n)),
        "multicommodity_flow": (lambda: lp.build_multicommodity_flow(n),
                                lambda: multicommodity_flow_by_rows(n)),
        "minmax_distance": (lambda: lp.build_minmax_distance(n, alpha, delta),
                            lambda: minmax_distance_by_rows(
                                n, alpha, delta, SampleSpace.connected_graphs())),
    }
    for space in (SampleSpace.connected_graphs(), SampleSpace.all_graphs(),
                  SampleSpace.fixed_density(d)):
        cases[f"maxmin_{space.label()}"] = (
            lambda space=space: lp.build_maxmin(n, alpha, space),
            lambda space=space: maxmin_by_rows(n, alpha, space))
    return cases


@pytest.mark.parametrize("n", range(3, 10))
def test_every_builder_declares_what_its_reference_adds_name_by_name(n):
    # the reference names each variable and row by x_name, w_name, flow_name
    # and mcflow_name over node ints, one add_variable or add_row each
    for model, (build, by_rows) in referee_cases(n).items():
        cs, reference = build(), by_rows()
        assert all(indices == [()] for _, indices in reference._row_blocks)
        assert all(indices == [()] for _, indices in reference._var_blocks)
        assert expanded(cs) == expanded(reference), model
        assert (cs.name, cs.meta, cs.objective_sense, cs.objective) == (
            reference.name, reference.meta, reference.objective_sense, reference.objective), model


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(3, 9), st.sampled_from(["triads", "distance"]),
       st.sampled_from([Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(1)]))
def test_blocks_render_as_the_rows_added_one_by_one(data, n, model, alpha):
    space = data.draw(st.sampled_from([SampleSpace.connected_graphs(), SampleSpace.all_graphs()])
                      | st.integers(0, num_pairs(n)).map(SampleSpace.fixed_density))
    if model == "triads":
        cs = lp.build_maxmin(n, alpha, space)
        reference = maxmin_by_rows(n, alpha, space)
    else:
        delta = random_unit_square_delta(n, data.draw(st.integers(0, 99)))
        cs = lp.build_minmax_distance(n, alpha, delta, space)
        reference = minmax_distance_by_rows(n, alpha, delta, space)
    assert cs.variables == reference.variables
    assert cs.rows == reference.rows
    text = lp.lp_string(cs)
    assert text == reference_lp_string(cs) == lp.lp_string(reference)
    ir = io.StringIO()
    cs.to_json(ir)
    assert ir.getvalue() == json.dumps(cs.to_json_dict(), indent=2)
    clone = ConstraintSystem.from_json_dict(json.loads(ir.getvalue()))
    again = io.StringIO()
    clone.to_json(again)
    assert lp.lp_string(clone) == text and again.getvalue() == ir.getvalue()


def test_a_block_writes_percent_and_braces_in_its_names_as_given():
    # a (prefix, k) name's prefix and a string name keep their % and braces
    # through both writers' printf-style fill
    suffixes = [("1",), ("2_3",)]
    cs, reference = ConstraintSystem("%s"), ConstraintSystem("%s")
    cs.add_variable_block([lp.Variable(("%s{", 0), "continuous", 0),
                           lp.Variable(("b%_", 0), "binary")], suffixes)
    cs.add_variable("%}", "continuous")
    cs.add_block([lp.Row(("r%%_", 0), {("%s{", 0): 1, "%}": -1, ("b%_", 0): 2}, "<=", 0)],
                 suffixes)
    for (k,) in suffixes:
        reference.add_variable("%s{" + k, "continuous", lower=0)
        reference.add_variable("b%_" + k, "binary")
    reference.add_variable("%}", "continuous")
    for (k,) in suffixes:
        reference.add_row("r%%_" + k, {"%s{" + k: 1, "%}": -1, "b%_" + k: 2}, "<=", 0)
    assert lp.lp_string(cs) == lp.lp_string(reference) == reference_lp_string(reference)
    ir = io.StringIO()
    cs.to_json(ir)
    assert ir.getvalue() == json.dumps(reference.to_json_dict(), indent=2)


def braced_names() -> ConstraintSystem:
    # braces and printf's % in names, which the block filler must leave as they are
    cs = ConstraintSystem("{0}")
    for name in ("{0}", "}{", "{{", "a{b}", "%", "%s"):
        cs.add_variable(name, "continuous", lower=0)
    cs.add_variable("%%", "binary")
    cs.add_row("{0}", {"{0}": 1, "}{": -1, "%s": 1}, "<=", 1)
    cs.add_row("}}{", {"{{": 2, "a{b}": Fraction(1, 3)}, ">=", 0)
    cs.add_row("%s%%", {"%": 1, "%%": -2}, "=", 0)
    cs.set_objective("minimize", {"a{b}": 1})
    return cs


@settings(max_examples=100, deadline=None)
@given(constraint_systems())
@example(braced_names())
def test_plain_rows_with_any_names_round_trip_through_the_ir(cs):
    assume(cs.meta.get("n") is None)  # a meta.n must count the x_ edge variables
    ir = io.StringIO()
    cs.to_json(ir)
    assert ir.getvalue() == json.dumps(cs.to_json_dict(), indent=2)
    clone = ConstraintSystem.from_json_dict(json.loads(ir.getvalue()))
    assert clone.rows == cs.rows
    assert lp.lp_string(clone) == lp.lp_string(cs) == reference_lp_string(cs)
    again = io.StringIO()
    clone.to_json(again)
    assert again.getvalue() == ir.getvalue()
