import json
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner

from permalg.cli import main
from permalg.jordan import jordan_express
from permalg.parser import parse_expr
from permalg.perm import PermPolynomial

from oracles import dynkin, head

ALGEBRAS = str(Path(__file__).resolve().parent.parent / "algebras")


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, expect=0):
    result = runner.invoke(main, list(args))
    assert result.exit_code == expect, result.output
    return result.output


def test_normalize_and_expand(runner):
    out = invoke(runner, "normalize", "x2*x1*x3")
    assert out.strip() == "x2*x1*x3"
    out = invoke(runner, "expand", "[x1,x2]")
    assert out.strip() == "x1*x2 - x2*x1"
    out = invoke(runner, "expand", "{{x1,x2},{x3,x4}}")
    assert out.strip() == "2*x1*x2*x3*x4 + 2*x2*x1*x3*x4 + 2*x3*x1*x2*x4 + 2*x4*x1*x2*x3"


def test_long_flat_word(runner):
    """A flat product parses to a left-nested tree, and every walk over a
    tree keeps a stack of its own, so 3000-letter words expand, print,
    compare and substitute."""
    word = "*".join(["x2"] + ["x3", "x1"] * 1500)
    expected = "*".join(["x2"] + ["x1"] * 1500 + ["x3"] * 1500)
    for command in ("normalize", "expand"):
        assert invoke(runner, command, word).strip() == expected
    assert invoke(runner, "expand", f"{word} - {word}").strip() == "0"
    flat = "*".join(["x2"] + ["x1"] * 3000)
    out = invoke(runner, "jordan-express", flat).strip()
    assert out.startswith("-1/") and "*{{x2,x1},{" in out
    g = PermPolynomial.from_word((2,) + (1,) * 3000)
    assert jordan_express(g).expand() == g
    bracket = "[" * 3001 + "x2" + ",x1]" * 3001
    assert invoke(runner, "lie-express", "*".join(["[x2,x1]"] + ["x1"] * 3000)).strip() == bracket
    assert invoke(runner, "is-lie", "*".join(["[x2,x1]"] + ["x1"] * 3000)).strip() == (
        f"Lie element: {bracket}"
    )
    power = "*".join(["a"] * 2000)
    assert invoke(runner, "check-identity", "--template", f"{power} = {power}").strip() == "holds"
    dotted = "*".join(["d(e2)"] + ["e1"] * 2000)
    out = invoke(runner, "envelope", "nf", "--algebra", f"{ALGEBRAS}/heisenberg.json", dotted)
    assert out.strip() == "*".join(["d(e1)"] + ["e1"] * 1999 + ["e2"])


def test_is_lie_exit_codes(runner):
    out = invoke(runner, "is-lie", "x2*x1*x3 - x1*x2*x3")
    assert out.strip() == "Lie element: [[x2,x1],x3]"
    result = runner.invoke(main, ["is-lie", "x1*x2"])
    assert result.exit_code == 1
    assert "defect" in result.output


def test_is_lie_defect_matches_projection(runner, rng):
    """The printed defect is ``f - dynkin(head(f))`` on seeded inputs."""
    rejected = 0
    for _ in range(40):
        k = rng.randint(1, 3)
        f = sum(
            (
                PermPolynomial.from_word(
                    [rng.randint(1, k) for _ in range(rng.randint(1, 4))],
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                )
                for _ in range(rng.randint(1, 5))
            ),
            PermPolynomial.zero(),
        )
        if not f:
            continue
        text = str(f)
        f = parse_expr(text).expand()  # a leading "-" negates the whole sum
        defect = f - dynkin(head(f))
        result = runner.invoke(main, ["is-lie", "--json", "--", text])
        assert result.exit_code == (1 if defect else 0), text
        data = json.loads(result.output)
        assert data["is_lie"] is not bool(defect)
        if defect:
            assert data["defect"] == str(defect)
            rejected += 1
    assert 0 < rejected < 40


def test_lie_express_and_jordan_express(runner):
    out = invoke(runner, "lie-express", "x2*x1 - x1*x2")
    assert out.strip() == "[x2,x1]"
    result = runner.invoke(main, ["jordan-express", "x1*x2"])
    assert result.exit_code == 1
    out = invoke(runner, "jordan-express", "x1*x2 + x2*x1")
    assert out.strip() == "{x2,x1}"
    out = invoke(runner, "jordan-express", "x1*x2*x3")
    assert out.strip() == "-1/4*{{x1,x2},x3} - 1/4*{{x1,x3},x2} + 3/4*{{x2,x3},x1}"


def test_check_identity(runner):
    invoke(runner, "check-identity", "--template", "[[a,b],[c,d]] = 0")
    invoke(runner, "check-identity", "--template", "{a,b} = {b,a}", "--polarized")
    result = runner.invoke(main, ["check-identity", "--template", "a*b = b*a"])
    assert result.exit_code == 1
    assert "witness" in result.output


def test_dims_prints_exact_numbers_of_any_size(runner):
    """A dimension past CPython's default 4300-digit int-to-str limit
    prints in full, in text and in JSON.  The limit is process-wide, so it
    is set to its default first and restored after."""
    expected = 8000 * comb(8000 + 8000 - 2, 8000 - 1)
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if saved is not None:
            sys.set_int_max_str_digits(4300)
        text = invoke(runner, "dims", "--gens", "8000", "--deg", "8000")
        payload = invoke(runner, "dims", "--gens", "8000", "--deg", "8000", "--json")
        digits = str(expected)
        assert len(digits) > 4300
        assert text == f"dim of degree-8000 component on 8000 generators: {digits}\n"
        assert json.loads(payload) == {"generators": 8000, "degree": 8000, "dimension": expected}
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def test_dims_and_bn(runner):
    out = invoke(runner, "dims", "--gens", "2", "--deg", "3", "--json")
    assert json.loads(out)["dimension"] == 6
    out = invoke(runner, "bn", "--gens", "3", "--deg", "3", "--json")
    data = json.loads(out)
    assert data["count"] == 18
    result = runner.invoke(main, ["bn", "--gens", "2", "--deg", "2"])
    assert result.exit_code == 2


def test_to_bn(runner):
    out = invoke(runner, "to-bn", "x1*x2*x3")
    assert out.strip() == "f(x1;x2,x3) + f(x2;x1,x3) + 2*f(x3;x1,x2)"
    result = runner.invoke(main, ["to-bn", "x1*x2"])
    assert result.exit_code == 2
    out = invoke(runner, "to-bn", "*".join(["x1"] * 1200))
    assert out.strip() == "4*f(x1;x1," + "*".join(["x1"] * 1198) + ")"


def test_cohn_witness(runner):
    out = invoke(runner, "cohn-witness", "--json")
    data = json.loads(out)
    assert data["ideal_slice_dim"] == 1
    assert data["perm_slice_dim"] == 2
    assert data["exceptional_quotient"] is True


def test_envelope_commands(runner):
    out = invoke(runner, "envelope", "nf", "--algebra", f"{ALGEBRAS}/heisenberg.json", "d(e2)*e1")
    assert out.strip() == "d(e1)*e2 - d(e3)"
    out = invoke(
        runner,
        "envelope",
        "nf",
        "--algebra",
        f"{ALGEBRAS}/heisenberg.json",
        "d(e2)*e1",
        "--unicode",
    )
    assert "̇" in out
    out = invoke(runner, "envelope", "build", "--algebra", f"{ALGEBRAS}/heisenberg.json", "--deg", "3", "--json")
    data = json.loads(out)
    assert data["counts"] == {"1": 3, "2": 3, "3": 4}
    out = invoke(runner, "envelope", "check", "--algebra", f"{ALGEBRAS}/heisenberg.json", "--seed", "5", "--json")
    data = json.loads(out)
    assert data["ok"] is True
    result = runner.invoke(main, ["envelope", "check", "--algebra", f"{ALGEBRAS}/sl2.json"])
    assert result.exit_code == 1
    result = runner.invoke(main, ["envelope", "build", "--algebra", f"{ALGEBRAS}/sl2.json", "--deg", "2"])
    assert result.exit_code == 1


def test_envelope_check_validates_once(runner, monkeypatch):
    from permalg.metabelian import MetabelianLieAlgebra

    calls = []
    validate = MetabelianLieAlgebra.validate

    def counting(self):
        calls.append(self.dim)
        return validate(self)

    monkeypatch.setattr(MetabelianLieAlgebra, "validate", counting)
    invoke(runner, "envelope", "check", "--algebra", f"{ALGEBRAS}/heisenberg.json")
    assert calls == [3]


def test_envelope_check_invalid_report(runner):
    violations = [[1, 2, 1, 3], [1, 2, 2, 3], [1, 3, 2, 3]]
    result = runner.invoke(main, ["envelope", "check", "--algebra", f"{ALGEBRAS}/sl2.json"])
    assert result.exit_code == 1
    assert result.output == (
        "invalid algebra: {'valid': False, 'jacobi_violations': [], "
        f"'metabelian_violations': {violations}}}\n"
    )
    result = runner.invoke(main, ["envelope", "check", "--algebra", f"{ALGEBRAS}/sl2.json", "--json"])
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "valid": False,
        "jacobi_violations": [],
        "metabelian_violations": violations,
    }
    assert result.output == json.dumps(json.loads(result.output), indent=2) + "\n"


def test_gk_command(runner):
    out = invoke(runner, "gk", "--algebra", f"{ALGEBRAS}/heisenberg.json", "--max-deg", "12", "--json")
    data = json.loads(out)
    assert abs(float(data["slope"]) - 2.0) <= 0.25
    result = runner.invoke(main, ["gk", "--algebra", f"{ALGEBRAS}/heisenberg.json", "--max-deg", "3"])
    assert result.exit_code == 2


def test_input_error_exit_codes(runner, tmp_path):
    result = runner.invoke(main, ["expand", "x1*x2 +"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["expand", "foo"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["envelope", "nf", "--algebra", "does-not-exist.json", "d(e1)"])
    assert result.exit_code == 2
    for bad in ('{"dim": 3.7}', '{"dim": 2, "basis": ["x", ""]}', '{"dim": 2, "basis": [1, 2]}'):
        path = tmp_path / "bad.json"
        path.write_text(bad)
        for args in (
            ["envelope", "build", "--algebra", str(path), "--unicode"],
            ["gk", "--algebra", str(path), "--max-deg", "4"],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (bad, args, result.output)
            assert "Traceback" not in result.output
    deep_bracket = "[" * 1200 + "x1" + ",x2]" * 1200
    deep_parens = "(" * 3000 + "x1" + ")" * 3000
    for args in (["expand", deep_bracket], ["is-lie", deep_bracket], ["expand", deep_parens]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "nested too deeply" in result.output
        # the usage line names the subcommand the input was given to
        assert f" {args[0]} [OPTIONS]" in result.output


def test_deeply_nested_json_is_an_input_error(runner, tmp_path):
    """JSON nested beyond the decoder's recursion limit is a malformed
    algebra file: exit 2 with a message, no traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    for args in (
        ["envelope", "build", "--algebra", str(path), "--deg", "2"],
        ["envelope", "check", "--algebra", str(path)],
        ["gk", "--algebra", str(path), "--max-deg", "4"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.output)
        assert "nested too deeply" in result.output
        assert "Traceback" not in result.output
        assert not isinstance(result.exception, RecursionError)


def test_json_flag_stable_within_process(runner):
    first = invoke(runner, "expand", "{x1,x2}", "--json")
    second = invoke(runner, "expand", "{x1,x2}", "--json")
    assert first == second
    data = json.loads(first)
    assert data["terms"] == [
        {"coefficient": "1", "word": [1, 2]},
        {"coefficient": "1", "word": [2, 1]},
    ]
