"""``Span`` and ``span_solve`` against sympy's exact row reduction on
small rational matrices."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permalg.linalg import Span, span_solve
from permalg.perm import PermPolynomial, enumerate_basis

sympy = pytest.importorskip("sympy")

entries = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=4)
)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=max_rows)
    )


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])


def to_fractions(matrix):
    return [[Fraction(int(v.p), int(v.q)) for v in matrix.row(i)] for i in range(matrix.rows)]


@given(matrices())
def test_rref_and_span_match_sympy(rows):
    reduced, pivots = to_sympy(rows).rref()
    expected = to_fractions(reduced)[: len(pivots)]
    width = len(rows[0])
    span = Span()
    for row in rows:
        span.add(dict(enumerate(row)))
    assert span.dim == len(pivots)
    assert [[row.get(j, 0) for j in range(width)] for row in span.rows] == expected
    assert span.pivots == list(pivots)


@given(matrices(), st.data())
def test_solve_coordinates_matches_sympy(columns, data):
    target = data.draw(st.lists(entries, min_size=len(columns[0]), max_size=len(columns[0])))
    a = to_sympy(columns).T
    b = to_sympy([[t] for t in target])
    try:
        solution, params = a.gauss_jordan_solve(b)
    except ValueError:  # inconsistent
        expected = None
    else:
        solution = solution.subs({p: 0 for p in params})  # free variables 0
        expected = [row[0] for row in to_fractions(solution)]
    # entry i of a column is its coefficient at word i of the multilinear
    # component (1,)*w, which has exactly w words
    w = len(target)
    words = enumerate_basis(w, w, (1,) * w)
    assert len(words) == w

    def poly(entries):
        return PermPolynomial(zip(words, entries))

    assert span_solve([poly(c) for c in columns], poly(target)) == expected
