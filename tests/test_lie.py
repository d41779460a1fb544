from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permalg.expr import Comm, ExprSum, left_normed
from permalg.lie import (
    MLMonomial,
    NotLieElement,
    dynkin,
    head,
    is_lie,
    lie_express,
    lie_span_oracle,
    ml_basis,
)
from permalg.linalg import Subspace
from permalg.perm import PermPolynomial, enumerate_basis, multidegrees

from oracles import sub_multidegrees

x = PermPolynomial.from_word


def polys(k=3, max_deg=5):
    words = st.lists(st.integers(1, k), min_size=1, max_size=max_deg)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    return st.lists(st.tuples(words, coeffs), max_size=4).map(
        lambda items: sum(
            (PermPolynomial.from_word(w, c) for w, c in items), PermPolynomial.zero()
        )
    )


def test_head_worked_example():
    f = x((1, 2, 3, 4)) + x((2, 1, 3, 4)) - x((3, 1, 2, 4)) + x((4, 1, 2, 3), 2) + x((2,))
    assert head(f) == x((2, 1, 3, 4)) - x((3, 1, 2, 4)) + x((4, 1, 2, 3), 2) + x((2,))
    assert head(x((1, 2, 3))).is_zero
    assert head(x((2, 1, 3))) == x((2, 1, 3))


def test_dynkin_examples():
    assert dynkin(x((2, 1))) == x((2, 1)) - x((1, 2))
    assert dynkin(x((2, 1, 3))) == x((2, 1, 3)) - x((1, 2, 3))
    assert dynkin(x((1,))) == x((1,))


@given(polys())
def test_dynkin_matches_full_bracket_expansion(f):
    expected = PermPolynomial.zero()
    for m, c in f.terms():
        expected = expected + ExprSum.of(left_normed(Comm, m.word())).expand().scale(c)
    assert dynkin(f) == expected


def test_is_lie_examples():
    assert is_lie(x((2, 1, 3)) - x((1, 2, 3)))
    assert not is_lie(x((1, 2)))
    assert is_lie(x((1,)))


def test_lie_express_examples():
    expr = lie_express(x((2, 1, 3)) - x((1, 2, 3)))
    assert str(expr) == "[[x2,x1],x3]"
    assert expr.expand() == x((2, 1, 3)) - x((1, 2, 3))
    expr2 = lie_express(x((1, 2)) - x((2, 1)))
    assert expr2.expand() == x((1, 2)) - x((2, 1))
    with pytest.raises(NotLieElement) as err:
        lie_express(x((1, 2)))
    assert err.value.defect == x((1, 2))


@given(polys())
def test_dynkin_head_projection(f):
    g = dynkin(head(f))
    if g:
        assert is_lie(g)


def test_ml_basis_examples():
    assert [str(m) for m in ml_basis(3, 3, (1, 1, 1))] == ["[[x2,x1],x3]", "[[x3,x1],x2]"]
    assert [str(m) for m in ml_basis(2, 2, (1, 1))] == ["[x2,x1]"]
    for n in range(2, 7):
        assert len(ml_basis(n, n, (1,) * n)) == n - 1


def test_ml_basis_full_degree():
    got = ml_basis(2, 3)
    assert all(m.first > m.second <= min(m.rest, default=m.second) for m in got)
    # degree-3 words on 2 letters: [[x2,x1],x1] and [[x2,x1],x2]
    assert len(got) == 2


def test_ml_basis_rejects_degree_one():
    with pytest.raises(ValueError):
        ml_basis(2, 1)


def test_ml_expansion_head_shape():
    m = MLMonomial(3, 1, (2,))
    assert m.expand() == x((3, 1, 2)) - x((1, 2, 3))


def test_oracle_dimensions():
    assert lie_span_oracle(2, 2).dim == 1
    assert lie_span_oracle(3, 3, (1, 1, 1)).dim == 2
    assert lie_span_oracle(1, 2).dim == 0
    basis = lie_span_oracle(2, 2).basis()
    assert basis == [x((1, 2)) - x((2, 1))]


def test_oracle_slice_is_not_shared():
    # a caller's change to a returned slice must not reach later calls
    first = lie_span_oracle(2, 3, (2, 1))
    assert first.dim == 1
    assert first.add(x((1, 1, 2)))
    assert lie_span_oracle(2, 3, (2, 1)).dim == 1


def test_oracle_members_are_lie(rng):
    for k in (1, 2, 3):
        for n in range(1, 6):
            sub = lie_span_oracle(k, n)
            for p in sub.basis():
                assert is_lie(p)
            for _ in range(10):
                combo = PermPolynomial.zero()
                for p in sub.basis():
                    combo = combo + p.scale(Fraction(rng.randint(-3, 3)))
                assert is_lie(combo)


def test_non_members_rejected(rng):
    sub = lie_span_oracle(3, 4)
    monos = enumerate_basis(3, 4)
    found = 0
    while found < 25:
        p = PermPolynomial((m, Fraction(rng.randint(-3, 3))) for m in monos)
        if p.is_zero or sub.contains(p):
            continue
        assert not is_lie(p)
        found += 1


def test_oracle_matches_ml_basis_rank():
    for n in range(2, 7):
        oracle_dim = lie_span_oracle(n, n, (1,) * n).dim
        assert oracle_dim == n - 1 == len(ml_basis(n, n, (1,) * n))


def test_left_normed_collapse_law_exhaustive():
    """Brackets after the first collapse onto plain right multiplication,
    checked on every bracket word of degree <= 6 over three letters."""
    from itertools import product

    for degree in range(2, 7):
        for word in product((1, 2, 3), repeat=degree):
            full = ExprSum.of(left_normed(Comm, word)).expand()
            short = x((word[0], word[1])) - x((word[1], word[0]))
            for i in word[2:]:
                short = short * PermPolynomial.generator(i)
            assert full == short


def _all_splits_closure(md, memo):
    """A slice closed under brackets of every pair of lower slices, over
    every split and in both orientations: the closure that
    ``lie_span_oracle`` replaced with one-letter brackets."""
    if md in memo:
        return memo[md]
    k, n = len(md), sum(md)
    space = memo[md] = Subspace(enumerate_basis(k, n, md))
    if n == 1:
        space.add(PermPolynomial.generator(md.index(1) + 1))
        return space
    for alpha, beta in sub_multidegrees(md):
        for u in _all_splits_closure(alpha, memo).basis():
            for v in _all_splits_closure(beta, memo).basis():
                space.add(u * v - v * u)
    return space


def test_one_letter_closure_matches_all_splits_closure():
    """Bracketing with one letter spans what bracketing every pair of lower
    slices spans: the same echelon rows on every multidegree with k <= 3
    letters and degree n <= 6."""
    memo = {}
    for k in (1, 2, 3):
        for n in range(1, 7):
            for md in multidegrees(k, n):
                fast, slow = lie_span_oracle(k, n, md), _all_splits_closure(md, memo)
                assert fast.monomials == slow.monomials
                assert fast._span.pivots == slow._span.pivots, md
                assert fast.basis() == slow.basis(), md


def test_oracle_multilinear_dimension_to_degree_8():
    for n in range(2, 9):
        assert lie_span_oracle(n, n, (1,) * n).dim == n - 1
