import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner

from permalg import cli
from permalg.cli import main
from permalg.jordan import bn_basis, jordan_express
from permalg.metabelian import AlgebraFormatError, MetabelianLieAlgebra, load_algebra, random_metabelian, split_basis
from permalg.parser import parse_expr
from permalg.perm import PermPolynomial, dimension

from oracles import dynkin, head

REPO = Path(__file__).resolve().parent.parent
ALGEBRAS = str(REPO / "algebras")
CRITERION_10 = [g["args"] for g in json.loads((REPO / "tests" / "data" / "criterion10_json.json").read_text())]


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


def test_check_identity_names_the_witness_by_the_template(runner):
    """The witness uses the names the template bound, in slot order, so it
    agrees with the residual; ``--polarized`` runs the same substitution."""
    for flags in ([], ["--polarized"]):
        out = invoke(runner, "check-identity", "--template", "b*a = a*b", *flags, expect=1)
        assert out == "fails with witness b=x1, a=x2; residual: x1*x2 - x2*x1\n"
    data = json.loads(invoke(runner, "check-identity", "--template", "q*p = p*q", "--json", expect=1))
    assert data["counterexample"] == {"q": "x1", "p": "x2"}
    assert data["residual"] == "x1*x2 - x2*x1"
    out = invoke(runner, "check-identity", "--template", "x1*a = a*x1", expect=1)
    assert out.startswith("fails with witness x1=x1, a=x2;")
    # any number of slots, and slots on the right only
    eight = "a*b*c*d*e*f*g*h"
    assert invoke(runner, "check-identity", "--template", f"{eight} = a*b*c*d*e*f*h*g") == "holds\n"
    invoke(runner, "check-identity", "--template", f"{eight} = b*a*c*d*e*f*g*h", expect=1)
    assert invoke(runner, "check-identity", "--template", "0 = [a,b] + [b,a]") == "holds\n"


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


def test_bn_sizes_the_basis_before_building_it(runner, monkeypatch):
    """``bn`` counts the basis with ``dimension`` first and exits 2 with the
    count above ``BN_LIMIT``, without calling ``bn_basis``."""
    for k in range(1, 4):
        for n in range(3, 6):
            assert len(bn_basis(k, n)) == dimension(k, n)

    def refuse(k, n):
        raise AssertionError("bn_basis called")

    monkeypatch.setattr("permalg.jordan.bn_basis", refuse)
    result = runner.invoke(main, ["bn", "--gens", "30", "--deg", "30"])
    assert result.exit_code == 2, result.output
    assert str(dimension(30, 30)) in result.stderr
    assert "Usage: main bn [OPTIONS]" in result.stderr
    monkeypatch.undo()
    monkeypatch.setattr(cli, "BN_LIMIT", 18)
    assert json.loads(invoke(runner, "bn", "--gens", "3", "--deg", "3", "--json"))["count"] == 18
    monkeypatch.setattr(cli, "BN_LIMIT", 17)
    assert runner.invoke(main, ["bn", "--gens", "3", "--deg", "3"]).exit_code == 2


def test_envelope_build_sizes_the_output_before_building_it(runner, monkeypatch):
    """``envelope build`` counts the basis letters it would print with
    ``envelope.letter_count`` and exits 2 with the count above
    ``BUILD_LIMIT``, without calling ``basis_up_to``."""
    from permalg.envelope import Envelope

    heisenberg = f"{ALGEBRAS}/heisenberg.json"
    args = ["envelope", "build", "--algebra", heisenberg, "--deg", "2"]
    monkeypatch.setattr(cli, "BUILD_LIMIT", 9)  # d(e1), d(e2), d(e3), then 3 words of 2 letters
    invoke(runner, *args)
    monkeypatch.setattr(cli, "BUILD_LIMIT", 8)
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and "print 9 basis letters; the limit is 8" in result.stderr
    monkeypatch.undo()

    def refuse(self, d):
        raise AssertionError("basis_up_to called")

    monkeypatch.setattr(Envelope, "basis_up_to", refuse)
    result = runner.invoke(main, ["envelope", "build", "--algebra", heisenberg, "--deg", "1000000000"])
    assert result.exit_code == 2, result.output
    # two complement letters: 2 * C(d + 2, d - 1), plus one derived letter at degree 1
    assert str(2 * comb(10**9 + 2, 3) + 1) in result.stderr
    assert "Usage: main envelope build [OPTIONS]" in result.stderr


def test_envelope_build_counts_the_rules_before_building_them(runner, monkeypatch, tmp_path):
    """``envelope build`` counts its rules with ``envelope.rule_count``,
    ``|Y|*|Z| + C(|Z|, 2)``, and exits 2 above ``RULES_LIMIT`` before
    ``rules`` is called: 5000 abelian letters print few basis letters at
    degree 1 but make ``C(5000, 2)`` rules, and so does the dim-1500
    algebra, whose 1.1 million rules took 24 s to build and print under
    the letters' limit alone."""
    from permalg.envelope import Envelope, rule_count

    heisenberg = f"{ALGEBRAS}/heisenberg.json"
    env = Envelope(load_algebra(heisenberg))
    assert rule_count(env.dim, env.y_count) == len(env.rules()) == 3
    args = ["envelope", "build", "--algebra", heisenberg, "--deg", "1"]  # Y = {e3}, Z = {e1, e2}
    monkeypatch.setattr(cli, "RULES_LIMIT", 3)
    assert "rules:" in invoke(runner, *args)
    monkeypatch.setattr(cli, "RULES_LIMIT", 2)
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and "build 3 rules; the limit is 2" in result.stderr
    monkeypatch.undo()

    def refuse(self):
        raise AssertionError("rules called")

    monkeypatch.setattr(Envelope, "rules", refuse)
    for dim in (5000, 1500):
        big = tmp_path / f"dim{dim}.json"
        big.write_text(f'{{"dim": {dim}}}')
        result = runner.invoke(main, ["envelope", "build", "--algebra", str(big), "--deg", "1"])
        assert result.exit_code == 2 and result.stdout == ""
        assert f"build {comb(dim, 2)} rules; the limit is {cli.RULES_LIMIT}" in result.stderr
        assert "Usage: main envelope build [OPTIONS]" in result.stderr


def test_to_bn(runner):
    out = invoke(runner, "to-bn", "x1*x2*x3")
    assert out.strip() == "f(x1;x2,x3) + f(x2;x1,x3) + 2*f(x3;x1,x2)"
    result = runner.invoke(main, ["to-bn", "x1*x2"])
    assert result.exit_code == 2
    assert result.stderr == (
        "Usage: main to-bn [OPTIONS] WORD\nTry 'main to-bn --help' for help.\n\n"
        "Error: word must have length >= 3\n"
    )
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


def test_envelope_check_counts_the_overlaps_before_reducing_them(runner, monkeypatch, tmp_path):
    """``envelope check`` counts the overlap words with
    ``envelope.overlap_count`` and exits 2 above ``CHECK_LIMIT``, before
    ``check_compositions``; every stock algebra is under the limit."""
    from permalg.envelope import Envelope, overlap_count

    for path in sorted(Path(ALGEBRAS).glob("*.json")):
        result = runner.invoke(main, ["envelope", "check", "--algebra", str(path)])
        assert result.exit_code == (1 if path.name == "sl2.json" else 0), result.output
        assert "limit" not in result.stderr
    heisenberg = f"{ALGEBRAS}/heisenberg.json"  # Y = {e3}, Z = {e1, e2}: one y-overlap
    assert overlap_count(3, load_algebra(heisenberg).derived_dim()) == 1
    monkeypatch.setattr(cli, "CHECK_LIMIT", 0)
    result = runner.invoke(main, ["envelope", "check", "--algebra", heisenberg])
    assert result.exit_code == 2 and "reduce 1 overlap words; the limit is 0" in result.stderr
    monkeypatch.undo()

    def refuse(self):
        raise AssertionError("check_compositions called")

    monkeypatch.setattr(Envelope, "check_compositions", refuse)
    big = tmp_path / "dim500.json"
    big.write_text('{"dim": 500}')
    result = runner.invoke(main, ["envelope", "check", "--algebra", str(big)])
    assert result.exit_code == 2 and result.stdout == ""
    assert "reduce 20708500 overlap words; the limit is 1000000" in result.stderr


def test_envelope_check_refuses_before_the_basis_split(runner, monkeypatch, tmp_path, rng):
    """Every envelope count is a closed form in ``dim`` and ``|Y|``, which
    ``derived_dim`` takes from the brackets alone.  So ``envelope check``
    and ``envelope build`` refuse on the exact count, and ``gk`` answers,
    without splitting the basis; the refusals do not validate either."""
    stock = [load_algebra(path) for path in sorted(Path(ALGEBRAS).glob("*.json"))]
    for algebra in stock + [random_metabelian(d, rng) for d in range(1, 9) for _ in range(4)]:
        assert algebra.derived_dim() == split_basis(algebra).y_count

    def refuse(*args, **kwargs):
        raise AssertionError("the algebra was validated or its basis split")

    huge = tmp_path / "huge.json"  # Y is empty
    huge.write_text('{"dim": 10000000}')
    paired = tmp_path / "paired.json"  # Y = {e3}
    paired.write_text('{"dim": 2000000, "brackets": [{"i": 1, "j": 2, "value": [[3, "1"]]}]}')
    bracketed = tmp_path / "bracketed.json"  # C(182, 2) + C(182, 3) = 1,004,731 overlaps
    bracketed.write_text('{"dim": 183, "brackets": [{"i": 1, "j": 2, "value": [[3, "1"]]}]}')

    def timed(*args):
        start = time.perf_counter()
        result = runner.invoke(main, [*args])
        assert time.perf_counter() - start < 2.0, args
        return result

    with monkeypatch.context() as patch:
        patch.setattr("permalg.envelope.split_basis", refuse)
        for path, dim, y in ((huge, 10**7, 0), (paired, 2 * 10**6, 1)):
            k = dim - y
            result = timed("gk", "--algebra", str(path), "--max-deg", "4", "--json")
            assert result.exit_code == 0, result.output
            assert json.loads(result.stdout)["per_degree"] == [dim, comb(k + 1, 2), comb(k + 2, 3), comb(k + 3, 4)]
            with monkeypatch.context() as strict:
                strict.setattr(MetabelianLieAlgebra, "validate", refuse)
                result = timed("envelope", "check", "--algebra", str(path))
                assert result.exit_code == 2 and result.stdout == ""
                overlaps = comb(k, 2) * y + comb(k, 3)
                assert f"reduce {overlaps} overlap words; the limit is {cli.CHECK_LIMIT}\n" in result.stderr
                result = timed("envelope", "build", "--algebra", str(path), "--deg", "1")
                assert result.exit_code == 2 and result.stdout == ""
                assert f"build {y * k + comb(k, 2)} rules; the limit is {cli.RULES_LIMIT}\n" in result.stderr
        patch.setattr(MetabelianLieAlgebra, "validate", refuse)
        result = runner.invoke(main, ["envelope", "check", "--algebra", str(bracketed)])
        assert result.exit_code == 2 and result.stdout == ""
        assert "reduce 1004731 overlap words" in result.stderr


def test_gk_bounds_the_printed_size(runner, monkeypatch):
    """``gk`` bounds the digits it would print from ``--max-deg`` and
    ``|Z|`` and exits 2 above ``GK_LIMIT`` before ``gk_estimate`` runs:
    each row's three numbers are at most ``dim + (dmax + k)^min(dmax, k)``,
    for ``k = |Z|``."""
    heisenberg = f"{ALGEBRAS}/heisenberg.json"  # dim 3, |Z| = 2
    args = ["gk", "--algebra", heisenberg, "--max-deg", "12"]
    monkeypatch.setattr(cli, "GK_LIMIT", 3 * 12 * (2 * 2 + 1))
    invoke(runner, *args)
    monkeypatch.setattr(cli, "GK_LIMIT", 3 * 12 * (2 * 2 + 1) - 1)
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and result.stdout == ""
    assert "print up to 180 digits; the limit is 179\n" in result.stderr
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("gk_estimate called")

    monkeypatch.setattr("permalg.envelope.gk_estimate", refuse)
    start = time.perf_counter()
    result = runner.invoke(main, ["gk", "--algebra", heisenberg, "--max-deg", "1000000000"])
    assert time.perf_counter() - start < 2.0
    assert result.exit_code == 2 and result.stdout == ""
    digits = 3 * 10**9 * (2 * 10 + 1)
    assert f"gk would print up to {digits} digits; the limit is {cli.GK_LIMIT}\n" in result.stderr
    assert "Usage: main gk [OPTIONS]" in result.stderr


def test_envelope_nf_reads_its_expression_before_the_split(runner, monkeypatch, tmp_path):
    """``envelope nf`` reads its expression in the algebra's own labels
    before it validates the algebra or splits its basis, so a malformed
    expression exits 2 at once, on an invalid algebra too."""

    def refuse(*args, **kwargs):
        raise AssertionError("the algebra was validated or its basis split")

    paired = tmp_path / "paired.json"  # one pair [e1,e2] = e3
    paired.write_text('{"dim": 200000, "brackets": [{"i": 1, "j": 2, "value": [[3, "1"]]}]}')
    with monkeypatch.context() as patch:
        patch.setattr("permalg.envelope.split_basis", refuse)
        patch.setattr(MetabelianLieAlgebra, "validate", refuse)
        for path in (str(paired), f"{ALGEBRAS}/sl2.json"):
            for expression in ("d(e2)*", "d(e200001)*e1", "e1*e2"):
                start = time.perf_counter()
                result = runner.invoke(main, ["envelope", "nf", "--algebra", path, "--", expression])
                assert time.perf_counter() - start < 2.0, (path, expression)
                assert (result.exit_code, result.stdout) == (2, ""), result.output
                assert "Usage: main envelope nf" in result.stderr and "Traceback" not in result.output
    result = runner.invoke(main, ["envelope", "nf", "--algebra", f"{ALGEBRAS}/sl2.json", "d(e2)*e1"])
    assert result.exit_code == 1 and "not a valid metabelian Lie algebra" in result.stderr


def test_envelope_check_sizes_the_algebra_before_building_its_labels(runner, tmp_path):
    """A ten-million-letter basis with no labels is refused on its overlap
    count without building ``e1`` .. ``e10000000`` first: the default
    labels are built on first use, and unique by construction."""
    big = tmp_path / "huge.json"
    big.write_text('{"dim": 10000000}')
    start = time.perf_counter()
    result = runner.invoke(main, ["envelope", "check", "--algebra", str(big)])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2 and result.stdout == ""
    assert f"reduce {comb(10**7, 3)} overlap words; the limit is {cli.CHECK_LIMIT}" in result.stderr
    assert elapsed < 2.0, elapsed
    # the labels every command prints are the same, built on first use
    assert MetabelianLieAlgebra(3).labels == ("e1", "e2", "e3")
    assert MetabelianLieAlgebra(2, ["a", "b"]).labels == ("a", "b")
    with pytest.raises(AlgebraFormatError, match="unique"):
        MetabelianLieAlgebra(2, ["a", "a"])


def test_jordan_express_names_the_first_offending_slice(runner):
    """Of several non-Jordan degree-2 slices the report names the one of
    least exponent vector, in text and in JSON."""
    cases = {
        "x1*x2 + x2*x3 + x1*x3 + x1 + x1*x2*x3": "x2*x3",
        "x3*x1 + 2*x2*x4 - x4*x2 + x1*x1*x2": "2*x2*x4 - x4*x2",
        "x2*x1 + x3*x3 + x1*x3": "x1*x3",
    }
    for text, offending in cases.items():
        out = invoke(runner, "jordan-express", "--", text, expect=1)
        assert out == f"not a Jordan element; offending component: {offending}\n"
        data = json.loads(invoke(runner, "jordan-express", "--json", "--", text, expect=1))
        assert data == {"input": text, "is_jordan": False, "offending": offending}


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


@pytest.mark.parametrize(
    "argv, code",
    [([*args, "--json"], 0) for args in CRITERION_10]
    + [
        (["is-lie", "x1*x2"], 1),
        (["dims", "--gens", "x", "--deg", "2"], 2),
        (["is-lie", "--", "-x2*x1 + x1*x2"], 1),
    ],
)
def test_in_process_run_matches_the_child_process(runner, monkeypatch, argv, code):
    """perfbench's cli check: ``CliRunner`` on ``main`` gives the stdout and
    exit code of a ``python -m permalg`` child, and the same stderr up to
    the program name."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PERMALG_OUTPUT"}
    proc = subprocess.run(
        [sys.executable, "-m", "permalg", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**env, "PYTHONPATH": path},
        timeout=120,
    )
    monkeypatch.chdir(REPO)
    result = runner.invoke(main, argv)
    assert (proc.returncode, result.exit_code) == (code, code), proc.stderr
    assert result.stdout == proc.stdout
    assert result.stderr == proc.stderr.replace("python -m permalg", "main")


def test_permalg_output_sets_the_default_format():
    """``PERMALG_OUTPUT=json``, in any case and with blanks around it, makes
    a child print what ``--json`` prints; ``text`` keeps the text report."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PERMALG_OUTPUT"}

    def dims(*flags, output=None):
        extra = {} if output is None else {"PERMALG_OUTPUT": output}
        proc = subprocess.run(
            [sys.executable, "-m", "permalg", "dims", "--gens", "2", "--deg", "2", *flags],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={**env, **extra, "PYTHONPATH": path},
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    as_json = dims("--json")
    assert json.loads(as_json) == {"generators": 2, "degree": 2, "dimension": 4}
    assert dims(output=" JSON ") == as_json
    assert dims(output="text") == dims() == "dim of degree-2 component on 2 generators: 4\n"


def test_option_syntax(runner):
    """Options and the argument in any order, ``--name=value``, the last
    of a repeated option wins, an option's value is taken verbatim even
    when it starts with ``-``, and ``--`` comes before an argument that does."""
    same = invoke(runner, "dims", "--gens", "3", "--deg", "2")
    assert invoke(runner, "dims", "--deg=2", "--gens=3") == same
    assert invoke(runner, "dims", "--gens", "2", "--deg", "2", "--gens", "3") == same
    assert invoke(runner, "check-identity", "--template", "-[a,b] = [b,a]") == "holds\n"
    heisenberg = f"--algebra={ALGEBRAS}/heisenberg.json"
    assert invoke(runner, "envelope", "nf", heisenberg, "--", "-d(e1)") == "-d(e1)\n"
    assert runner.invoke(main, ["envelope", "nf", "--", "-d(e1)", heisenberg]).exit_code == 2
    assert invoke(runner, "--version") == "permalg, version 0.1.0\n"


GROUP = "[OPTIONS] COMMAND [ARGS]..."


@pytest.mark.parametrize(
    "argv, usage, error",
    [
        (["dims", "--gens", "x", "--deg", "2"], "dims [OPTIONS]", "Invalid value for '--gens': 'x' is not a valid integer."),
        (["dims", "--deg", "2"], "dims [OPTIONS]", "Missing option '--gens'."),
        (["normalize"], "normalize [OPTIONS] EXPRESSION", "Missing argument 'EXPRESSION'."),
        (["dims", "--jsn"], "dims [OPTIONS]", "No such option '--jsn'. Did you mean '--json'?"),
        (["dims", "--hel"], "dims [OPTIONS]", "No such option '--hel'. (Did you mean one of: '--deg', '--help'?)"),
        (["is-lie", "-x2*x1"], "is-lie [OPTIONS] EXPRESSION", "No such option '-x'."),
        (["is-lie", "x1", "x2", "x3"], "is-lie [OPTIONS] EXPRESSION", "Got unexpected extra arguments (x2 x3)"),
        (["dims", "--json=1"], None, "Option '--json' does not take a value."),
        (["dims", "--gens"], None, "Option '--gens' requires an argument."),
        (["foo"], GROUP, "No such command 'foo'."),
        (["--"], GROUP, "Missing command."),
        (["envelope", "nff"], f"envelope {GROUP}", "No such command 'nff'. Did you mean 'nf'?"),
        (
            ["envelope", "nf", "--algebra", "algebras", "d(e1)"],
            "envelope nf [OPTIONS] EXPRESSION",
            "Invalid value for '--algebra': File 'algebras' is a directory.",
        ),
        (
            ["gk", "--max-deg", "4", "--algebra", "nope.json"],
            "gk [OPTIONS]",
            "Invalid value for '--algebra': File 'nope.json' does not exist.",
        ),
        (
            ["envelope", "check", "--algebra", "algebras/heisenberg.json", "--words", "5"],
            "envelope check [OPTIONS]",
            "No such option '--words'.",
        ),
        (
            # ``c`` is bound as slot 1, then dropped with its zero coefficient
            ["check-identity", "--template", "0*c + a*b = b*a"],
            "check-identity [OPTIONS]",
            "slots must be contiguous starting at 1: c has no term left once like terms are combined",
        ),
    ],
)
def test_usage_errors(runner, monkeypatch, argv, usage, error):
    """Input errors exit 2 with click's text on stderr: the usage line of
    the command the input was given to, a hint, then the error; a
    malformed option gets the error line only."""
    monkeypatch.chdir(REPO)
    result = runner.invoke(main, argv)
    assert (result.exit_code, result.stdout) == (2, "")
    if usage is None:
        assert result.stderr == f"Error: {error}\n"
    else:
        command = " ".join(["main", *usage.split("[OPTIONS]")[0].split()])
        expected = f"Usage: main {usage}\nTry '{command} --help' for help.\n\nError: {error}\n"
        assert result.stderr == expected
