"""End-to-end verification suite.

One test per exit criterion; each prints a single pass/fail line (visible
with ``pytest -s``).  Every equality is exact except the two growth-slope
checks, which carry an explicit +-0.25 tolerance.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permalg.envelope import Envelope, gk_estimate
from permalg.expr import (
    Anti,
    ExprSum,
    IdentityTemplate,
    Slot,
    check_identity,
    left_normed,
    wrap,
)
from permalg.jordan import (
    bn_basis,
    cohn_witness,
    expand_bn,
    jordan_express,
    sj_span,
    to_bn,
    verify_J_identities,
    verify_perm_plus_identities,
)
from permalg.lie import is_lie, lie_span_oracle, ml_basis
from permalg.linalg import Subspace, span_solve
from permalg.metabelian import MetabelianLieAlgebra, random_metabelian
from permalg.perm import PermMonomial, PermPolynomial, dimension, enumerate_basis, letters, multidegrees

REPO = Path(__file__).resolve().parent.parent
ALGEBRAS = REPO / "algebras"

x = PermPolynomial.from_word


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_identity_suite():
    a, b, c, d = (Slot(i) for i in range(1, 5))
    metabelian = check_identity(
        IdentityTemplate(wrap(a).comm(b).comm(wrap(c).comm(d)), 0 * wrap(a))
    ).holds
    right_comm = check_identity(
        IdentityTemplate(wrap(a).prod(b).prod(c), wrap(a).prod(c).prod(b))
    ).holds
    plus = verify_perm_plus_identities()
    jsuite = verify_J_identities()
    ok = metabelian and right_comm and plus.ok and jsuite.ok
    _verdict("1 identity suite", ok, f"failures: {plus.failures() + jsuite.failures()}")


def test_criterion_2_lie_criterion_vs_oracle(seed):
    rng = random.Random(seed)
    checked = 0
    for k in (1, 2, 3):
        for n in range(1, 7):
            oracle = lie_span_oracle(k, n)
            basis = oracle.basis()
            for p in basis:
                assert is_lie(p), f"oracle basis vector fails at k={k}, n={n}"
                checked += 1
            monos = enumerate_basis(k, n)
            slices = {letters(md): lie_span_oracle(k, n, md).basis() for md in multidegrees(k, n)}

            def outside(p: PermPolynomial) -> bool:
                if p.is_zero:
                    return False
                for content, comp in p.components().items():
                    if span_solve(slices[content], comp) is None:
                        return True
                return False

            n_inside = 100 if basis else 0
            proper = oracle.dim < len(monos)
            n_outside = 100 if proper else 0
            for _ in range(n_inside):
                p = PermPolynomial.zero()
                for row in basis:
                    p = p + row.scale(Fraction(rng.randint(-5, 5)))
                assert is_lie(p), f"inside sample fails at k={k}, n={n}"
                checked += 1
            drawn = 0
            while drawn < n_outside:
                p = PermPolynomial(
                    (m, Fraction(rng.randint(-4, 4))) for m in monos if rng.random() < 0.7
                )
                if not outside(p):
                    continue
                assert not is_lie(p), f"outside sample passes at k={k}, n={n}"
                drawn += 1
                checked += 1
    _verdict("2 Lie criterion vs oracle", True, f"{checked} exact agreements")


def test_criterion_3_multilinear_rank():
    ok = True
    for n in range(2, 7):
        basis = ml_basis(n, n, (1,) * n)
        span = Subspace(enumerate_basis(n, n, (1,) * n))
        for m in basis:
            span.add(m.expand())
        ok = ok and len(basis) == span.dim == n - 1
    _verdict("3 multilinear bracket rank", ok)


def test_criterion_4_jordan_spans_and_roundtrip(seed):
    rng = random.Random(seed)
    dims_ok = True
    for k in (1, 2, 3):
        for n in range(3, 7):
            dims_ok = dims_ok and sj_span(k, n).dim == dimension(k, n)
    count = 0
    for _ in range(300):
        k = rng.randint(1, 3)
        n = rng.randint(3, 6)
        monos = enumerate_basis(k, n)
        g = PermPolynomial(
            (m, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for m in monos if rng.random() < 0.6
        )
        assert jordan_express(g).expand() == g
        count += 1
    _verdict("4 anticommutator spans + roundtrip", dims_ok, f"{count} exact roundtrips")


def test_criterion_5_f_element_basis():
    ok = True
    for k in (1, 2, 3):
        for n in range(3, 7):
            elements = bn_basis(k, n)
            ok = ok and len(elements) == dimension(k, n)
            span = Subspace(enumerate_basis(k, n))
            for e in elements:
                span.add(e.expand())
            ok = ok and span.dim == dimension(k, n)
    words = 0
    for length in (3, 4, 5):
        for word in _all_words(3, length):
            combo = to_bn(word)
            assert expand_bn(combo) == ExprSum.of(left_normed(Anti, word)).expand()
            words += 1
    _verdict("5 f-element basis + rewriting", ok, f"{words} words round-tripped")


def _all_words(k: int, length: int):
    if length == 0:
        yield ()
        return
    for rest in _all_words(k, length - 1):
        for i in range(1, k + 1):
            yield (i, *rest)


def test_criterion_6_cohn_witness():
    report = cohn_witness()
    ideal_line = x((1, 1, 2), 3) + x((2, 1, 1))
    from permalg.jordan import ideal_component

    pair = x((1, 2)) + x((2, 1))
    cube = x((1, 1, 1), 2)
    square = x((2, 2))
    ideal = ideal_component("jordan", [pair, cube, square], (2, 1))
    ok = (
        report.ideal_slice_dim == 1
        and ideal.contains(ideal_line)
        and report.perm_slice_dim == 2
        and report.witness == x((1, 1, 2)) + x((2, 1, 1))
        and not report.in_ideal_slice
        and report.in_perm_slice
        and report.in_sj_slice
        and report.exceptional
    )
    _verdict("6 Cohn witness", ok)


def test_criterion_7_heisenberg_envelope():
    env = Envelope(MetabelianLieAlgebra(3, ["e1", "e2", "e3"], {(1, 2): {3: 1}}))
    basis = env.basis_up_to(8)
    ok = {env.monomial_str(m) for m in basis[1]} == {"d(e1)", "d(e2)", "d(e3)"}
    for n in range(2, 9):
        ok = ok and len(basis[n]) == n + 1
        for m in basis[n]:
            labels = [env.label(m.head)] + [env.label(i) for i in m.tail]
            if labels[0] == "e2":
                ok = ok and all(t == "e2" for t in labels[1:])
            else:
                ok = ok and labels[0] == "e1" and all(t in ("e1", "e2") for t in labels[1:])
    ok = ok and env.check_compositions().all_trivial
    ok = ok and env.embed_check().ok
    idx = {lbl: i + 1 for i, lbl in enumerate(env.algebra.labels)}
    nf = env.normal_form(PermPolynomial({PermMonomial(idx["e2"], (idx["e1"],)): Fraction(1)}))
    expected = PermPolynomial(
        {
            PermMonomial(idx["e1"], (idx["e2"],)): Fraction(1),
            PermMonomial(idx["e3"]): Fraction(-1),
        }
    )
    ok = ok and nf == expected
    _verdict("7 Heisenberg envelope", ok)


def test_criterion_8_growth_slopes():
    heis = MetabelianLieAlgebra(3, ["e1", "e2", "e3"], {(1, 2): {3: 1}})
    ab3 = MetabelianLieAlgebra(3)
    s_heis = gk_estimate(3, heis.derived_dim(), 12).slope
    s_ab3 = gk_estimate(3, ab3.derived_dim(), 12).slope
    ok = abs(s_heis - 2) <= 0.25 and abs(s_ab3 - 3) <= 0.25
    _verdict("8 growth slopes", ok, f"heisenberg {s_heis:.3f}, abelian-3 {s_ab3:.3f}")


def test_criterion_9_rewriting_robustness(seed):
    rng = random.Random(seed)
    algebras = []
    dims = [2, 3, 4, 5, 4]
    while len(algebras) < 5:
        algebra = random_metabelian(dims[len(algebras)], rng)
        if algebra.validate().ok:
            algebras.append(algebra)
    ok = True
    for algebra in algebras:
        env = Envelope(algebra)
        ok = ok and env.check_compositions().all_trivial
        for _ in range(100):
            degree = rng.randint(1, 6)
            dot = rng.randint(1, env.dim)
            tail = tuple(sorted(rng.randint(1, env.dim) for _ in range(degree - 1)))
            element = PermPolynomial.from_monomial(PermMonomial(dot, tail))
            ok = ok and env.normal_form(element, "leftmost") == env.normal_form(
                element, "rightmost"
            )
    _verdict("9 rewriting robustness", ok, "5 algebras x 100 words x 2 strategies")


CLI_COMMANDS = [
    ["normalize", "x2*x1 + x1*x2"],
    ["expand", "{{x1,x2},{x3,x4}}"],
    ["is-lie", "x2*x1*x3 - x1*x2*x3"],
    ["lie-express", "x2*x1 - x1*x2"],
    ["jordan-express", "x1*x2*x3"],
    ["check-identity", "--template", "[[a,b],[c,d]] = 0", "--polarized"],
    ["dims", "--gens", "3", "--deg", "4"],
    ["bn", "--gens", "2", "--deg", "3"],
    ["to-bn", "x1*x2*x3*x4"],
    ["cohn-witness"],
    ["envelope", "build", "--algebra", str(ALGEBRAS / "heisenberg.json"), "--deg", "4"],
    ["envelope", "nf", "--algebra", str(ALGEBRAS / "heisenberg.json"), "d(e2)*e1"],
    ["envelope", "check", "--algebra", str(ALGEBRAS / "heisenberg.json"), "--seed", "11"],
    ["gk", "--algebra", str(ALGEBRAS / "heisenberg.json"), "--max-deg", "12"],
]


# ``--json`` stdout of each CLI_COMMANDS entry, recorded at an earlier
# commit; algebra paths are stored relative to the repository root.
GOLDEN = json.loads((REPO / "tests" / "data" / "criterion10_json.json").read_text())


def test_criterion_10_cli_determinism():
    assert len(GOLDEN) == len(CLI_COMMANDS)
    for args, golden in zip(CLI_COMMANDS, GOLDEN):
        assert [a.replace(f"{REPO}/", "") for a in args] == golden["args"]
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "permalg", *args, "--json"],
                capture_output=True,
                cwd=REPO,
            )
            assert proc.returncode == 0, (args, proc.stderr.decode())
            json.loads(proc.stdout.decode())  # must be valid JSON
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"nondeterministic output for {args}"
        assert outputs[0].decode() == golden["stdout"], f"output of {args} differs from the recording"
    _verdict("10 CLI determinism", True, f"{len(CLI_COMMANDS)} commands byte-identical")
