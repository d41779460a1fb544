"""Per-layer timings of the slice closures, the Lie sum test, ``to_bn``,
the perm product, the row echelon, the coordinates read off its
witnesses, the expression-tree walks (expansion, printing, equality),
identity checking, algebra validation, the envelope's input in original
coordinates and its normal form, and the CLI (a whole ``python -m
permalg`` child, and dispatch in process).

Run from the repository root (not part of the default test run, which
collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks -q

The library keeps no slices between calls, so every round is cold: it
pays for every lower slice it needs.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

from permalg.envelope import Envelope
from permalg.expr import check_identity
from permalg.jordan import ideal_component, jordan_express, sj_span, to_bn, verify_J_identities
from permalg.lie import is_lie, lie_span_oracle, ml_basis
from permalg.linalg import Subspace, span_solve
from permalg.metabelian import MetabelianLieAlgebra, load_algebra, random_metabelian
from permalg.parser import parse_expr, parse_template
from permalg.perm import PermMonomial, PermPolynomial, dimension, enumerate_basis, multidegrees

REPO = Path(__file__).resolve().parent.parent
ALGEBRAS = REPO / "algebras"


def run(benchmark, fn, args, rounds):
    return benchmark.pedantic(fn, args=args, rounds=rounds, iterations=1)


@pytest.mark.parametrize("n, rounds", [(6, 20), (7, 10), (8, 5)])
def test_lie_slice_multilinear(benchmark, n, rounds):
    space = run(benchmark, lie_span_oracle, (n, n, (1,) * n), rounds)
    assert space.dim == n - 1


def test_lie_span_oracle_4_5(benchmark):
    space = run(benchmark, lie_span_oracle, (4, 5), 20)
    assert space.dim == len(ml_basis(4, 5))


def test_lie_span_oracle_3_6(benchmark):
    """The second whole-degree oracle call of perfbench ``closure``: 28
    slices in 16 exponent patterns at the top degree, against 56 in 15 at
    ``(4, 5)``."""
    space = run(benchmark, lie_span_oracle, (3, 6), 20)
    assert space.dim == len(ml_basis(3, 6))


def test_is_lie_oracle_basis_4_5(benchmark):
    """``is_lie`` on every row of the ``lie_span_oracle(4, 5)`` basis: one
    coefficient sum per slice each."""
    rows = lie_span_oracle(4, 5).basis()
    assert run(benchmark, lambda: all(is_lie(p) for p in rows), (), 20)


@pytest.mark.parametrize("n, rounds", [(2000, 20), (8000, 5)])
def test_to_bn_two_letter_flat_word(benchmark, n, rounds):
    """``to_bn`` of ``x2*x1^(n-1)``: two ``f``-elements of ``n - 1``
    arguments, with ``n``-bit coefficients."""
    combo = run(benchmark, to_bn, ((2,) + (1,) * (n - 1),), rounds)
    assert [fe.head for _, fe in combo] == [1, 2]


def test_perm_mul_dense_4_4(benchmark):
    """``PermPolynomial.__mul__`` of two dense degree-4 elements on 4
    letters, every word with a positive seeded coefficient: 80 * 80 word
    products into the 480 words of degree 8.  With no cancellation the
    product law fixes the head sums: ``s_h(f*g) = s_h(f) * s(g)``."""
    rng = random.Random(1)
    f, g = (PermPolynomial((m, rng.randint(1, 5)) for m in enumerate_basis(4, 4)) for _ in range(2))
    product = run(benchmark, f.__mul__, (g,), 20)
    assert len(f) == len(g) == 80 and len(product) == dimension(4, 8)

    def head_sums(p):
        sums = [0] * 5
        for m, c in p.items():
            sums[m.head] += c
        return sums

    assert head_sums(product) == [s * sum(head_sums(g)) for s in head_sums(f)]


def test_perm_commutator_with_letter(benchmark):
    """``u*x - x*u`` for a dense degree-6 ``u`` on 3 letters, each word with
    a positive seeded coefficient: the inner step of the slice closures.
    ``u*x`` has one term per word of ``u``, ``x*u`` one per letter multiset."""
    rng = random.Random(2)
    u = PermPolynomial((m, rng.randint(1, 5)) for m in enumerate_basis(3, 6))
    x = PermPolynomial.generator(2)
    comm = run(benchmark, lambda: u * x - x * u, (), 50)
    assert len(u) == dimension(3, 6) and len(x * u) == comb(8, 2)
    assert is_lie(comm)


def test_check_identity_polarized_associator_exchange(benchmark):
    """``check_identity``, which ``check-identity --polarized`` runs, on the
    associator exchange law
    ``2<{a,b},c,d> = <{a,b},d,c> + <{a,c},b,d> + <{b,c},a,d>``: a law whose
    sides expand to nonzero words, so the one distinct substitution cancels
    term by term.  The layer keeps its name so that its timings pair with
    earlier ones, which ran all 15 identification patterns of 4 slots."""
    template = parse_template("2*<{a,b},c,d> = <{a,b},d,c> + <{a,c},b,d> + <{b,c},a,d>")
    assert run(benchmark, check_identity, (template,), 50).holds


def test_sj_span_3_5(benchmark):
    """Witness arithmetic: every row carries an ``ExprSum`` witness."""
    space = run(benchmark, sj_span, (3, 5), 20)
    assert space.dim == len(space.monomials)


def test_span_solve_dependent_degree_5(benchmark):
    """Coordinates over the 5 words of a degree-5 component from 9
    vectors, 4 of which depend on earlier ones and get coordinate 0."""
    words = enumerate_basis(5, 5, (1,) * 5)

    def poly(*coeffs):
        return PermPolynomial(zip(words, map(Fraction, coeffs)))

    a, b, c = poly(1, 2, 3, 4, 6), poly(0, 1, -1, 2, 5), poly(3, 0, 1, 1, -2)
    w0, w4 = poly(1, 0, 0, 0, 0), poly(0, 0, 0, 0, 1)
    vectors = [a, a.scale(2), b, a - b.scale(Fraction(3, 2)), c, w0, c + w0, b + c + w0, w4]
    target = poly(7, -1, 3, 0, 5)
    coords = run(benchmark, span_solve, (vectors, target), 200)
    assert [coords[j] for j in (1, 3, 6, 7)] == [0] * 4
    rebuilt = PermPolynomial.zero()
    for v, x in zip(vectors, coords):
        rebuilt = rebuilt + v.scale(x)
    assert rebuilt == target


def test_envelope_skew2(benchmark):
    """``Envelope`` set-up on an algebra whose ``split_basis`` changes the
    basis, so the adapted coordinates are read off witnesses."""
    algebra = load_algebra(ALGEBRAS / "skew2.json")
    env = run(benchmark, Envelope, (algebra,), 200)
    assert env.split.changed_basis


def test_envelope_abelian_500(benchmark):
    """``Envelope`` set-up on the 500-dimensional abelian algebra: an empty
    ``table``, so ``split_basis`` brackets no pair of adapted rows."""
    env = run(benchmark, Envelope, (MetabelianLieAlgebra(500),), 5)
    assert env.split.y_count == 0


def test_validate_two_step_nilpotent_34(benchmark):
    """``validate`` on ``random_metabelian(34, Random(2))``, a two-step
    nilpotent algebra with 359 pairs whose values all lie in the centre
    ``e34``.  ``e34`` has no pair, so no triple can fail Jacobi and no two
    values can bracket to nonzero: the law is decided without a bracket."""
    algebra = random_metabelian(34, random.Random(2))
    assert len(algebra.table) == 359 and all(list(v) == [34] for v in algebra.table.values())
    assert run(benchmark, algebra.validate, (), 20).ok


def test_element_from_original_skew2_tail_6(benchmark):
    """``element_from_original`` of ``d(e2)*e2^6`` on ``skew2``, whose
    ``split_basis`` changes the basis: ``e2`` is ``y1 - e1`` there, so the
    perm product of seven two-term images collapses to the 14 words
    ``(y1 - e1)'`` times the binomial expansion of ``(y1 - e1)^6``."""
    env = Envelope(load_algebra(ALGEBRAS / "skew2.json"))
    terms = [(Fraction(1), 2, (2,) * 6)]
    element = run(benchmark, env.element_from_original, (terms,), 200)
    y1, e1 = env.algebra.labels.index("y1") + 1, env.algebra.labels.index("e1") + 1
    expected = {
        PermMonomial(head, tuple(sorted((y1,) * j + (e1,) * (6 - j)))): sign * comb(6, j) * (-1) ** (6 - j)
        for head, sign in ((y1, 1), (e1, -1))
        for j in range(7)
    }
    assert element == PermPolynomial(expected)


def test_normal_form_abelian_7_degree_7(benchmark):
    """``normal_form`` of the 1716-term sum of every degree-7 word on the
    7-dimensional abelian algebra, each dotted at its greatest letter: each
    term moves the dot to its least letter."""
    env = Envelope(MetabelianLieAlgebra(7))
    words = combinations_with_replacement(range(1, 8), 7)
    element = PermPolynomial((PermMonomial(w[-1], w[:-1]), 1) for w in words)
    assert len(element) == 1716
    nf = run(benchmark, env.normal_form, (element,), 10)
    assert len(nf) == 1716 and all(env.is_normal(m) for m in nf.support())


def test_normal_form_random_7_degree_7(benchmark):
    """``normal_form`` of the 6468-term sum of every degree-7 monomial on
    ``random_metabelian(7, Random(3))``."""
    env = Envelope(random_metabelian(7, random.Random(3)))
    letters = range(1, 8)
    element = PermPolynomial(
        (PermMonomial(dot, tail), 1) for dot in letters for tail in combinations_with_replacement(letters, 6)
    )
    assert len(element) == 6468
    nf = run(benchmark, env.normal_form, (element,), 10)
    assert all(env.is_normal(m) for m in nf.support())


@pytest.mark.parametrize("ambient", ["perm", "jordan"])
def test_ideal_component_2_2_1(benchmark, ambient):
    """The ideal of ``{x1,x2}`` and ``x3*x3`` at ``(2, 2, 1)``."""
    x = PermPolynomial.from_word
    gens = [x((1, 2)) + x((2, 1)), x((3, 3))]
    space = run(benchmark, ideal_component, (ambient, gens, (2, 2, 1)), 20)
    assert 0 < space.dim <= len(space.monomials)


def test_ideal_component_jordan_40_3(benchmark):
    """The anticommutator ideal of ``{x1,x2}`` and ``x2*x2`` at ``(40, 3)``:
    both generators sit far below the target, so the slice is whole."""
    x = PermPolynomial.from_word
    gens = [x((1, 2)) + x((2, 1)), x((2, 2))]
    space = run(benchmark, ideal_component, ("jordan", gens, (40, 3)), 20)
    assert space.dim == len(space.monomials) == 2


def test_span_add_whole_degree(benchmark):
    """``Span.add`` alone: the rows of every (4, 5) Lie slice added into one
    whole-degree subspace, the assembly step of ``lie_span_oracle``."""
    monomials = enumerate_basis(4, 5)
    rows = [p for md in multidegrees(4, 5) for p in lie_span_oracle(4, 5, md).basis()]
    space = benchmark(Subspace, monomials, rows)
    assert space.dim == len(rows)


@pytest.mark.parametrize("n, rounds", [(4, 200), (8, 100)])
def test_expand_jordan_express_word(benchmark, n, rounds):
    """The exactness check of ``jordan_express`` on the word ``x1*...*xn``:
    its three anticommutator trees expanded back into the word basis."""
    word = PermPolynomial.from_word(tuple(range(1, n + 1)))
    expr = jordan_express(word)
    assert run(benchmark, expr.expand, (), rounds) == word


def closure_components() -> list[PermPolynomial]:
    """The seven component shapes of perfbench's closure ``jordan_express``
    jobs: every word of a seeded rational component on k = 2..4 letters of
    degree 4..7, its letters shuffled."""
    rng = random.Random(1)
    coefficients = [Fraction(p, q) for p in (-3, -1, 1, 2, 5) for q in (1, 1, 2, 3)]
    components = []
    for shape in [(2, 1, 1), (2, 2, 1), (3, 1, 1), (4, 3), (5, 2), (2, 2, 1, 1), (2, 2, 2, 1)]:
        md = list(shape)
        rng.shuffle(md)
        words = enumerate_basis(len(md), sum(md), md)
        components.append(PermPolynomial((m, rng.choice(coefficients)) for m in words))
    return components


def test_jordan_express_closure_components(benchmark):
    """``jordan_express`` and its exactness check, as perfbench's closure
    jobs run them: each component expressed, expanded back and compared."""
    components = closure_components()
    assert run(benchmark, lambda: all(jordan_express(g).expand() == g for g in components), (), 50)


def test_jordan_express_build_closure_components(benchmark):
    """The witness build alone, on the same components: no expansion."""
    components = closure_components()
    witnesses = run(benchmark, lambda: [jordan_express(g) for g in components], (), 50)
    assert all(w.expand() == g for w, g in zip(witnesses, components))


def test_expand_prime_denominators_300(benchmark):
    """``ExprSum.expand`` of a 300-term sum of seeded commutators,
    anticommutators and associators over 4 letters whose coefficients have
    the first 300 primes as denominators: the largest common denominator,
    a product of 300 primes, for 40 words."""
    rng = random.Random(1)
    primes = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))][:300]
    forms = ("[{}*{},{}]", "{{{},{}*{}}}", "<{},{},{}>")
    terms = [
        f"{rng.randint(1, 9)}/{p} " + forms[i % 3].format(*(f"x{rng.randint(1, 4)}" for _ in range(3)))
        for i, p in enumerate(primes)
    ]
    total = parse_expr(" + ".join(terms))
    expanded = run(benchmark, total.expand, (), 50)
    assert len(expanded) == 40 and expanded == sum((parse_expr(t).expand() for t in terms), PermPolynomial.zero())


def test_verify_J_identities(benchmark):
    """Six laws of the ``f``-calculus by ``check_identity`` plus two frozen
    expansions."""
    assert run(benchmark, verify_J_identities, (), 50).ok


@pytest.mark.parametrize("n, rounds", [(8, 200), (3000, 5)])
def test_print_jordan_witness(benchmark, n, rounds):
    """``str`` of the ``jordan_express`` witness of ``x2*x1*...*x1``: the
    terms sorted by ``node_key`` and printed by ``node_str``."""
    witness = jordan_express(PermPolynomial.from_word((2,) + (1,) * (n - 1)))
    text = run(benchmark, str, (witness,), rounds)
    assert text.count("{") == 3 * (n - 1)


def test_tree_equality(benchmark):
    """``==`` on two separately built, equal witnesses of ``x1*...*x8``:
    every pair of trees hashes alike, so each is walked to its leaves."""
    word = PermPolynomial.from_word(tuple(range(1, 9)))
    a, b = jordan_express(word), jordan_express(word)
    assert run(benchmark, a.__eq__, (b,), 500)


def test_parse_bracket_sum_300(benchmark):
    """``parse_expr`` of a 300-term sum of seeded commutators,
    anticommutators and associators over 4 letters, each with a rational
    coefficient: tokenizing, one bracket form per term and one sum per
    ``+``."""
    rng = random.Random(1)
    forms = ("[{}*{},{}]", "{{{},{}*{}}}", "<{},{},{}>")
    terms = []
    for i in range(300):
        coeff = f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"
        terms.append(f"{coeff} " + forms[i % 3].format(*(f"x{rng.randint(1, 4)}" for _ in range(3))))
    parsed = run(benchmark, parse_expr, (" + ".join(terms),), 20)
    total = parse_expr(terms[0])
    for term in terms[1:]:
        total = total + parse_expr(term)
    assert parsed == total


def run_child(benchmark, argv):
    """Wall time of one ``python -m permalg *argv`` child, 20 rounds.
    Compare minima: the machine's other load only adds to a round."""
    argv = [sys.executable, "-m", "permalg", *argv]
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = run(benchmark, lambda: subprocess.run(argv, capture_output=True, cwd=REPO, env=env), (), 20)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_child_dims(benchmark):
    """``dims --gens 3 --deg 4 --json``: interpreter start, the
    ``permalg.cli`` and ``permalg.perm`` imports and the command."""
    proc = run_child(benchmark, ["dims", "--gens", "3", "--deg", "4", "--json"])
    assert b'"dimension": 30' in proc.stdout


def test_cli_child_envelope_nf(benchmark):
    """``envelope nf`` on the Heisenberg algebra: interpreter start, the
    imports of the parser, the expression trees and the envelope, the
    algebra file, the basis split and one normal form."""
    algebra = str(ALGEBRAS / "heisenberg.json")
    proc = run_child(benchmark, ["envelope", "nf", "--algebra", algebra, "--json", "d(e2)*e1"])
    assert b'"normal_form": "d(e1)*e2 - d(e3)"' in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--gens", "3", "--deg", "4", "--json"],
        ["envelope", "nf", "--algebra", str(ALGEBRAS / "heisenberg.json"), "--json", "d(e2)*e1"],
        ["envelope", "check", "--algebra", str(ALGEBRAS / "heisenberg.json"), "--json"],
    ],
    ids=["dims", "envelope-nf", "envelope-check"],
)
def test_cli_inproc_dispatch(benchmark, argv):
    """``CliRunner().invoke(main, argv)``, as perfbench's cli workload runs
    it after every child: parsing, the command and output capture, with
    the library already imported."""
    from click.testing import CliRunner

    from permalg.cli import main

    runner = CliRunner()
    result = benchmark.pedantic(runner.invoke, args=(main, argv), rounds=200, iterations=1, warmup_rounds=5)
    assert result.exit_code == 0, result.output
