"""Export-format tests: determinism, golden shapes, and an independent parse-back."""

import hashlib
import io
import json
import re
from fractions import Fraction

import pytest

from ergmax import ConstraintSystem, SampleSpace
from ergmax import lp
from ergmax.stats import random_unit_square_delta

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
}


@pytest.mark.parametrize("model", GOLDEN_DIGESTS)
def test_export_bytes_match_the_golden_digests(model):
    build, lp_digest, ir_digest = GOLDEN_DIGESTS[model]
    cs = build()
    assert hashlib.sha256(lp.lp_string(cs).encode()).hexdigest() == lp_digest
    ir = io.StringIO()
    cs.to_json(ir)
    assert hashlib.sha256(ir.getvalue().encode()).hexdigest() == ir_digest


def test_streamed_ir_spans_several_batches_and_equals_the_one_string_rendering():
    # n = 14 makes over 65 536 encoder chunks, so to_json writes at least two batches
    cs = lp.build_maxmin(14, Fraction(1, 2))
    ir = io.StringIO()
    cs.to_json(ir)
    assert ir.getvalue() == json.dumps(cs.to_json_dict(), indent=2)
