"""No public operation stores a float.

Every stored coefficient is a nonzero ``int`` or ``Fraction``, never a
float and never a ``bool``.  Integral input stays ``int``, and the one
division, a row over its lead in ``Span.add``, is a product with
``Fraction(1) / lead``; an ``int / int`` there would be a float.  These
seeded cases drive each operation with ``int``, ``Fraction`` and mixed
coefficients and check every value it stores.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from permalg.envelope import Envelope
from permalg.jordan import ideal_component, jordan_express, sj_span
from permalg.lie import lie_span_oracle
from permalg.linalg import Span, span_solve
from permalg.metabelian import load_algebra
from permalg.perm import Combination, PermMonomial, PermPolynomial, canonicalize, slice_word

from test_expr import assert_stored_exact, is_stored_exact

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"
KINDS = ("int", "fraction", "mixed")


def coefficient(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    if kind == "int":
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(rng.choice((-5, -3, -1, 1, 2, 5)), rng.choice((2, 3, 4)))


def random_poly(rng, kind, k=3, degrees=(1, 2, 3, 4), terms=5):
    return PermPolynomial(
        (canonicalize([rng.randint(1, k) for _ in range(rng.choice(degrees))]), coefficient(rng, kind))
        for _ in range(rng.randint(1, terms))
    )


def assert_span_exact(span: Span):
    for row in span.rows:
        assert row and all(is_stored_exact(c) for c in row.values())
    for witness in span.witnesses:
        assert_stored_exact(witness)


@pytest.mark.parametrize("kind", KINDS)
def test_arithmetic_stores_exact_values(rng, kind):
    """``*``, ``+``, ``-`` and ``scale``; on ``int`` input every result
    stays ``int``."""
    for _ in range(40):
        f, g = random_poly(rng, kind), random_poly(rng, kind)
        c = coefficient(rng, kind)
        results = [f * g, g * f, f + g, f - g, -f, f.scale(c), c * f, f * c, f - f]
        for r in results:
            assert_stored_exact(r)
        if kind == "int":
            assert all(type(v) is int for r in results for _, v in r.items())


@pytest.mark.parametrize("lead", [2, 3, -1])
def test_span_add_divides_an_integer_lead_exactly(lead):
    span = Span()
    assert span.add({1: lead, 2: 1, 3: lead + 4}, Combination._of({"v": 1}))
    (row,) = span.rows
    assert row == {1: 1, 2: Fraction(1, lead), 3: Fraction(lead + 4, lead)}
    (witness,) = span.witnesses
    assert witness.coefficient("v") == Fraction(1, lead)
    if lead == -1:  # a negation: the row stays int
        assert all(type(c) is int for c in row.values())
    assert span.add({1: 1, 2: lead}, Combination._of({"w": 1}))
    assert_span_exact(span)
    assert span.contains({1: 2 * lead, 2: 2, 3: 2 * lead + 8})


@pytest.mark.parametrize("kind", KINDS)
def test_span_rows_and_witnesses_are_exact(rng, kind):
    """Random vectors with small leads; each row's witness maps to it."""
    for _ in range(20):
        vectors = [
            {j: coefficient(rng, kind) for j in range(1, 7) if rng.random() < 0.6} for _ in range(rng.randint(1, 6))
        ]
        span = Span()
        for i, v in enumerate(vectors):
            span.add(v, Combination._of({i: 1}))
        assert_span_exact(span)
        for row, witness in zip(span.rows, span.witnesses):
            image: dict = {}
            for i, w in witness.items():
                for j, c in vectors[i].items():
                    image[j] = image.get(j, 0) + w * c
            assert {j: c for j, c in image.items() if c} == row


@pytest.mark.parametrize("kind", KINDS)
def test_span_solve_coordinates_are_exact(rng, kind):
    content = (1, 1, 2, 3)
    words = [slice_word(content, h) for h in (1, 2, 3)]
    for _ in range(20):
        vectors = [PermPolynomial((w, coefficient(rng, kind)) for w in words if rng.random() < 0.7) for _ in range(3)]
        weights = [coefficient(rng, kind) for _ in vectors]
        target = PermPolynomial.zero()
        for w, v in zip(weights, vectors):
            target = target + v.scale(w)
        coords = span_solve(vectors, target)
        assert coords is not None and all(type(c) in (int, Fraction) for c in coords)
        got = PermPolynomial.zero()
        for c, v in zip(coords, vectors):
            got = got + v.scale(c)
        assert got == target
        assert_stored_exact(got)


def test_jordan_express_on_integer_input(rng):
    """Letters, multiples of ``{x_a,x_b}`` and words of degree 3 to 5."""
    for _ in range(20):
        g = random_poly(rng, "int", k=3, degrees=(1, 3, 4, 5))
        a, b = sorted(rng.sample(range(1, 4), 2))
        g = g + PermPolynomial([(PermMonomial(a, (b,)), 2), (PermMonomial(b, (a,)), 2)])
        expression = jordan_express(g)
        assert_stored_exact(expression)
        assert expression.expand() == g
        assert_stored_exact(expression.expand())


def test_lie_span_oracle_rows_are_exact():
    for space in (lie_span_oracle(3, 4), lie_span_oracle(2, 5, (3, 2)), lie_span_oracle(4, 3)):
        for row in space.basis():
            assert_stored_exact(row)


def test_sj_span_rows_and_witnesses_are_exact():
    space = sj_span(2, 4)
    for row, witness in zip(space.basis(), space.expressions):
        assert_stored_exact(row)
        assert_stored_exact(witness)
        assert witness.expand() == row


@pytest.mark.parametrize("ambient", ["perm", "jordan"])
@pytest.mark.parametrize("kind", KINDS)
def test_ideal_component_rows_are_exact(rng, ambient, kind):
    for _ in range(5):
        generators = []
        for content in combinations_with_replacement((1, 2), 2):
            heads = sorted(set(content))
            generators.append(PermPolynomial((slice_word(content, h), coefficient(rng, kind)) for h in heads))
        for md in ((2, 1), (1, 2), (2, 2)):
            for row in ideal_component(ambient, generators, md).basis():
                assert_stored_exact(row)


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
@pytest.mark.parametrize("kind", KINDS)
def test_envelope_normal_form_is_exact(rng, strategy, kind):
    env = Envelope(load_algebra(ALGEBRAS / "heisenberg.json"))
    for _ in range(20):
        element = random_poly(rng, kind, k=env.dim, degrees=(1, 2, 3, 4))
        assert_stored_exact(env.normal_form(element, strategy))
