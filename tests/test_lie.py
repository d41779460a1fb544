from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permalg.expr import Comm, ExprSum, left_normed
from permalg.lie import (
    MLMonomial,
    NotLieElement,
    is_lie,
    lie_express,
    lie_span_oracle,
    ml_basis,
)
from permalg.linalg import Subspace
from permalg.perm import PermMonomial, PermPolynomial, enumerate_basis, multidegrees

from oracles import dynkin, head, sub_multidegrees

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


def test_ml_basis_rejects_bad_multidegree():
    # a negative entry whose total still matches n must not slip through
    with pytest.raises(ValueError):
        ml_basis(3, 2, (2, 1, -1))
    with pytest.raises(ValueError):
        ml_basis(2, 3, (1, 1))
    with pytest.raises(ValueError):
        ml_basis(2, 3, (1, 1, 1))


def test_ml_basis_is_the_filtered_word_basis():
    """Each bracket word expands to ``W(h) - W(a)``, so the basis is the
    words of the slice whose head is not the least letter, in word order,
    and it spans what the bracket closure spans."""
    for k in (1, 2, 3):
        for n in range(2, 6):
            for md in multidegrees(k, n):
                basis = ml_basis(k, n, md)
                words = enumerate_basis(k, n, md)
                a = words[0].head
                assert [m.expand() for m in basis] == [
                    x(w.word()) - x((a,) + tuple(sorted((w.head,) + w.tail[1:])))
                    for w in words
                    if w.head != a
                ]
                oracle = lie_span_oracle(k, n, md)
                assert oracle.dim == len(basis)
                assert all(oracle.contains(m.expand()) for m in basis)
            assert ml_basis(k, n) == sorted(m for md in multidegrees(k, n) for m in ml_basis(k, n, md))


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
    """Bracketing with one letter, once per exponent pattern and renamed
    onto each multidegree, spans what bracketing every pair of lower slices
    of that very multidegree spans: the same echelon rows on every
    multidegree with k <= 3 letters and degree n <= 6, and with k = 4 and
    n <= 5, where gaps and repeated patterns such as (2,0,1,1) and
    (0,1,0,2) occur.  The whole-degree space holds exactly the rows of its
    slices."""
    memo = {}
    for k, top in ((1, 6), (2, 6), (3, 6), (4, 5)):
        for n in range(1, top + 1):
            for md in multidegrees(k, n):
                fast, slow = lie_span_oracle(k, n, md), _all_splits_closure(md, memo)
                assert fast.monomials == slow.monomials
                assert fast._span.pivots == slow._span.pivots, md
                assert fast.basis() == slow.basis(), md
    whole = lie_span_oracle(4, 5)
    slices = [lie_span_oracle(4, 5, md)._span for md in multidegrees(4, 5)]
    assert dict(zip(whole._span.pivots, whole._span.rows)) == {
        p: row for span in slices for p, row in zip(span.pivots, span.rows)
    }


def test_oracle_multilinear_dimension_to_degree_8():
    for n in range(2, 9):
        assert lie_span_oracle(n, n, (1,) * n).dim == n - 1


def _check_sum_law(f):
    """``is_lie``, the defect and ``lie_express`` against the head/dynkin
    projection."""
    projected = dynkin(head(f))
    assert is_lie(f) == (projected == f), f
    if projected == f:
        assert lie_express(f).expand() == f
    else:
        with pytest.raises(NotLieElement) as err:
            lie_express(f)
        assert err.value.defect == f - projected
        assert str(err.value.defect) == str(f - projected)
    return projected == f


def test_sum_law_matches_projection_exhaustive():
    """Every polynomial with coefficients in {-1, 0, 1} on one multidegree
    slice, k <= 3 letters and degree n <= 4."""
    lie = other = 0
    for k in (1, 2, 3):
        for n in range(1, 5):
            for md in multidegrees(k, n):
                words = enumerate_basis(k, n, md)
                for coeffs in product((-1, 0, 1), repeat=len(words)):
                    f = PermPolynomial(zip(words, coeffs))
                    if _check_sum_law(f):
                        lie += 1
                    else:
                        other += 1
    assert lie and other


def test_sum_law_matches_projection_random(rng):
    """Seeded polynomials spanning several slices and degrees; half are
    pushed onto the Lie part first so both answers occur."""
    lie = 0
    for _ in range(400):
        k, top = rng.randint(1, 4), rng.randint(1, 5)
        f = PermPolynomial(
            (
                PermMonomial(rng.randint(1, k), tuple(sorted(rng.randint(1, k) for _ in range(n - 1)))),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            for n in (rng.randint(1, top) for _ in range(rng.randint(0, 8)))
        )
        if rng.random() < 0.5:
            f = dynkin(head(f))
        lie += _check_sum_law(f)
    assert 0 < lie < 400
