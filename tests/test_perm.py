from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permalg.perm import (
    PermMonomial,
    PermPolynomial,
    accumulate,
    canonicalize,
    dimension,
    enumerate_basis,
    multidegrees,
    slice_word,
)

from oracles import sub_multidegrees, word_product_oracle
from test_expr import assert_stored_exact, is_stored_exact

letters = st.integers(min_value=1, max_value=4)
words = st.lists(letters, min_size=1, max_size=6)
coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def polys(max_terms=4):
    return st.lists(st.tuples(words, coeffs), min_size=0, max_size=max_terms).map(
        lambda items: sum(
            (PermPolynomial.from_word(w, c) for w, c in items), PermPolynomial.zero()
        )
    )


def test_canonicalize_examples():
    assert canonicalize([3, 2, 1]) == PermMonomial(3, (1, 2))
    assert canonicalize([1, 2, 3]) == PermMonomial(1, (2, 3))
    assert canonicalize([2, 3, 1]) == PermMonomial(2, (1, 3))


def test_canonicalize_empty_word():
    with pytest.raises(ValueError, match="empty"):
        canonicalize([])


@given(words)
def test_canonicalize_idempotent(w):
    m = canonicalize(w)
    assert canonicalize(m.word()) == m


def test_multiply_examples():
    x = PermPolynomial.from_word
    assert x((2, 1)) * x((3,)) == x((2, 1, 3))
    # a product kills commutators on its right
    comm = x((2, 1)) - x((1, 2))
    assert (x((3,)) * comm).is_zero
    assert x((1,)) * x((1,)) == x((1, 1))


@given(words, letters, letters)
def test_right_commutativity(w, a, b):
    u = PermPolynomial.from_word(w)
    xa = PermPolynomial.generator(a)
    xb = PermPolynomial.generator(b)
    assert (u * xa) * xb == (u * xb) * xa


@given(polys(), polys(), polys())
def test_associativity(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(polys(), polys())
def test_multiply_output_canonical(u, v):
    prod = u * v
    for m, _ in prod.terms():
        assert m.tail == tuple(sorted(m.tail))


def random_poly(rng, max_terms=6):
    """Zero, one term, or up to ``max_terms`` terms of mixed degree 1..4 on
    3 letters, with ``int`` and ``Fraction`` coefficients.  Repeated words
    and shared letter multisets make sums that cancel."""
    size = rng.choice([0, 1, 1, rng.randint(2, max_terms), rng.randint(2, max_terms)])
    out = PermPolynomial.zero()
    for _ in range(size):
        word = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        coeff = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
        out = out + PermPolynomial.from_word(word, coeff)
    return out


def assert_product_matches_oracle(f, g):
    for a, b in ((f, g), (g, f)):
        got = a * b
        assert got == word_product_oracle(a, b)
        assert_stored_exact(got)


def test_product_law_matches_word_products(rng):
    """``__mul__`` groups the right factor by letter multiset; the oracle
    multiplies every pair of words."""
    for _ in range(320):
        assert_product_matches_oracle(random_poly(rng), random_poly(rng))


def test_product_law_on_every_small_sign_pattern(rng):
    """Every {-1, 0, 1} combination of the 6 words of degree <= 2 on 2
    letters, against itself and three seeded partners, in both orders."""
    words = [(1,), (2,), *product((1, 2), repeat=2)]
    sign_polys = [
        PermPolynomial([(canonicalize(w), c) for w, c in zip(words, signs) if c])
        for signs in product((-1, 0, 1), repeat=len(words))
    ]
    assert len(sign_polys) == 729 and len({str(p) for p in sign_polys}) == 729
    for f in sign_polys:
        for g in (f, *rng.sample(sign_polys, 3)):
            assert_product_matches_oracle(f, g)


def test_product_kills_commutators_on_the_right(rng):
    """``u * [v, w] = 0``: a right factor whose multiset sums all cancel
    leaves no stored term."""
    comm = PermPolynomial.from_word((1, 2)) - PermPolynomial.from_word((2, 1))
    for _ in range(50):
        f = random_poly(rng)
        assert not (f * comm).items()
        assert_product_matches_oracle(f, comm)


def test_terms_are_in_monomial_tuple_order(rng):
    """``terms()`` sorts by the ``(head, tail)`` tuple a ``PermMonomial`` is."""
    for _ in range(100):
        p = random_poly(rng) * random_poly(rng) + random_poly(rng)
        terms = p.terms()
        assert terms == sorted(p.items())
        keys = [(m.head, m.tail) for m, _ in terms]
        assert keys == sorted(keys)


def test_accumulate_stores_nonzero_exact_values():
    """A new key keeps its value's kind: an ``int`` stays an ``int``."""
    data = accumulate({}, [("a", 2), ("b", Fraction(1, 2)), ("c", 0), ("d", Fraction(0))])
    assert data == {"a": 2, "b": Fraction(1, 2)}
    assert type(data["a"]) is int and type(data["b"]) is Fraction
    assert all(is_stored_exact(c) for c in data.values())
    assert accumulate(data, [("a", -2), ("b", Fraction(1, 2))]) == {"b": 1}
    assert "a" not in data  # cancelled, so deleted
    accumulate(data, [("a", 5), ("b", -1)])
    assert data == {"a": 5} and type(data["a"]) is int


def test_from_word_stores_an_exact_value():
    assert_stored_exact(PermPolynomial.from_word((2, 1), 3))
    assert_stored_exact(PermPolynomial.from_word((2, 1), Fraction(3, 2)))
    assert_stored_exact(PermPolynomial.generator(4))
    assert type(PermPolynomial.from_word((2, 1), 3).coefficient(PermMonomial(2, (1,)))) is int
    assert not PermPolynomial.from_word((2, 1), 0).items()
    with pytest.raises(ValueError, match="empty"):
        PermPolynomial.from_word((), 0)


@given(polys(), polys())
def test_subtraction_is_adding_the_negative(a, b):
    assert a - b == a + (-b)
    assert_stored_exact(a - b)
    assert not (a - a).items()


def test_add_scale_examples():
    x1 = PermPolynomial.generator(1)
    assert (x1 + (-x1)).is_zero
    assert PermPolynomial.from_word((1, 2)).scale(0).is_zero
    doubled = PermPolynomial.from_word((1, 2)) + PermPolynomial.from_word((1, 2))
    assert doubled == PermPolynomial.from_word((1, 2), 2)


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/2", None, True, False])
def test_inexact_coefficients_rejected(bad):
    with pytest.raises(TypeError, match="int or Fraction"):
        PermPolynomial.from_word((1, 2), bad)
    with pytest.raises(TypeError, match="int or Fraction"):
        PermPolynomial({PermMonomial(1, (2,)): bad})
    with pytest.raises(TypeError, match="int or Fraction"):
        PermPolynomial.generator(1).scale(bad)


@pytest.mark.parametrize(
    "mono", [PermMonomial(1, (3, 2)), PermMonomial(-3, (2, 1)), PermMonomial(0), PermMonomial(2, (0, 1))]
)
def test_noncanonical_monomials_rejected(mono):
    # a second spelling of a word would make equal elements compare unequal
    with pytest.raises(ValueError, match="not canonical"):
        PermPolynomial([(mono, 1)])


@given(polys(), polys(), coeffs)
def test_linear_structure(u, v, c):
    assert (u + v).scale(c) == u.scale(c) + v.scale(c)
    assert u - u == PermPolynomial.zero()


def test_enumerate_basis_examples():
    got = enumerate_basis(2, 3)
    assert got == [
        PermMonomial(1, (1, 1)),
        PermMonomial(1, (1, 2)),
        PermMonomial(1, (2, 2)),
        PermMonomial(2, (1, 1)),
        PermMonomial(2, (1, 2)),
        PermMonomial(2, (2, 2)),
    ]
    assert enumerate_basis(3, 3, (1, 1, 1)) == [
        PermMonomial(1, (2, 3)),
        PermMonomial(2, (1, 3)),
        PermMonomial(3, (1, 2)),
    ]
    assert enumerate_basis(1, 4) == [PermMonomial(1, (1, 1, 1))]


@pytest.mark.parametrize("k,n", [(1, 4), (2, 3), (3, 4), (4, 2)])
def test_multidegree_walks_match_brute_force(k, n):
    brute = [md for md in product(range(n + 1), repeat=k) if sum(md) == n]
    assert list(multidegrees(k, n)) == brute
    for md in brute:
        splits = list(sub_multidegrees(md))
        # every split but the two with a zero part, each once
        assert len(set(splits)) == len(splits) == prod(e + 1 for e in md) - 2
        assert all(any(a) and any(b) and tuple(map(sum, zip(a, b))) == md for a, b in splits)


def test_content_is_the_sorted_word_and_keys_the_slice_word():
    """On every word of degree <= 5 on <= 4 letters, the content is the
    sorted word and the slice word of its head is the word itself."""
    for n in range(1, 6):
        for m in enumerate_basis(4, n):
            assert m.content() == tuple(sorted(m.word()))
            assert slice_word(m.content(), m.head) == m


def test_components_partition_the_terms(rng):
    """Seeded polynomials: the components split the terms by content, in
    ascending content, and sum back to the polynomial."""
    for _ in range(200):
        p = PermPolynomial(
            (canonicalize([rng.randint(1, 4) for _ in range(rng.randint(1, 5))]), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 12))
        )
        comps = p.components()
        assert list(comps) == sorted(comps)
        assert all(comp and {m.content() for m in comp.support()} == {key} for key, comp in comps.items())
        assert sum(map(len, comps.values())) == len(p)
        assert sum(comps.values(), PermPolynomial.zero()) == p


def test_enumerate_basis_bad_multidegree():
    with pytest.raises(ValueError, match="total"):
        enumerate_basis(2, 3, (1, 1))


def test_dimension_examples():
    assert dimension(2, 3) == 6
    assert dimension(3, 2) == 9
    for k in range(1, 5):
        assert dimension(k, 1) == k


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("n", range(1, 8))
def test_dimension_matches_enumeration(k, n):
    assert dimension(k, n) == len(enumerate_basis(k, n))


def test_str_formats():
    assert str(PermPolynomial.zero()) == "0"
    p = PermPolynomial.from_word((1, 2)) - PermPolynomial.from_word((2, 1))
    assert str(p) == "x1*x2 - x2*x1"
    assert str(PermPolynomial.from_word((1,), Fraction(1, 2))) == "1/2*x1"
